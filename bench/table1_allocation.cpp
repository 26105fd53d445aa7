// Table 1 — the data allocation table after swizzling two pointers.
//
// Reproduces the paper's Fig. 2 / Table 1 scenario: two pointers A and B
// are passed from the caller to the callee; the callee allocates locations
// for both on one protected page and records (page #, offset, long
// pointer) in its data allocation table. The table is printed in the
// paper's format, and the micro-benchmarks below price the swizzling
// operations themselves.
#include <benchmark/benchmark.h>

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "core/smart_rpc.hpp"
#include "harness.hpp"
#include "workload/list.hpp"

namespace {

using srpc::AddressSpace;
using srpc::CallContext;
using srpc::CostModel;
using srpc::Runtime;
using srpc::Session;
using srpc::World;
using srpc::WorldOptions;
using srpc::workload::ListNode;

void print_paper_table() {
  WorldOptions options;
  options.cost = CostModel::zero();
  World world(options);
  AddressSpace& caller = world.create_space("caller");
  AddressSpace& callee = world.create_space("callee");
  srpc::workload::register_list_type(world).status().check();

  // The callee receives two pointers; swizzling assigns each a protected
  // location but transfers nothing until access (we never dereference, so
  // the page stays in its "no data yet" state — exactly Fig. 2).
  callee
      .bind("take_two",
            [](CallContext&, ListNode* a, ListNode* b) -> std::int32_t {
              return (a != nullptr ? 1 : 0) + (b != nullptr ? 2 : 0);
            })
      .check();

  caller.run([&](Runtime& rt) {
    auto a = rt.heap().allocate(rt.host_types().find<ListNode>().value());
    auto b = rt.heap().allocate(rt.host_types().find<ListNode>().value());
    a.status().check();
    b.status().check();
    rt.cache().set_closure_bytes(0).check();  // pure swizzling, no eager data

    Session session(rt);
    auto tag = session.call<std::int32_t>(callee.id(), "take_two",
                                          static_cast<ListNode*>(a.value()),
                                          static_cast<ListNode*>(b.value()));
    tag.status().check();

    // Print the callee's data allocation table (the paper's Table 1).
    std::vector<std::vector<double>> rows;
    callee.run([&](Runtime& callee_rt) {
      // The table belongs to the session; this task is not serving it.
      Runtime::ScopedSession pin(callee_rt, session.id());
      std::printf("\n=== Table 1: the callee's data allocation table ===\n");
      std::printf("%8s %18s   %s\n", "page #", "offset within page", "long pointer");
      const auto& table = callee_rt.cache().table();
      for (std::uint32_t page = 0; page < 8; ++page) {
        for (const auto* entry : table.entries_on_page(page)) {
          std::printf("%8u %18u   %s (state: %s)\n", entry->page, entry->offset,
                      entry->pointer.to_string().c_str(),
                      std::string(to_string(callee_rt.cache().page_state(entry->page)))
                          .c_str());
          rows.push_back({static_cast<double>(entry->page),
                          static_cast<double>(entry->offset)});
        }
      }
      std::fflush(stdout);
      return 0;
    });
    session.end().check();

    srpc::bench::RobustnessCounters robust;
    robust.add(rt.stats());
    robust.add(callee.run([](Runtime& c) { return c.stats(); }));
    srpc::MetricsRegistry latency;
    latency.merge(rt.metrics());
    latency.merge(callee.run(
        [](Runtime& c) -> srpc::MetricsRegistry { return c.metrics(); }));
    srpc::bench::write_bench_json(
        "table1_allocation", {{"pointers_passed", 2}},
        {"page", "offset"}, rows, robust, &latency);
    return 0;
  });
}

void BM_SwizzleMiss(benchmark::State& state) {
  // Swizzling a never-seen long pointer: allocate a protected location and
  // insert into the data allocation table.
  WorldOptions options;
  options.cost = CostModel::zero();
  options.cache.page_count = 1 << 16;
  World world(options);
  AddressSpace& space = world.create_space("s0");
  world.create_space("s1");
  srpc::workload::register_list_type(world).status().check();
  const srpc::TypeId node = world.registry().find_by_name("ListNode").value();

  std::uint64_t addr = 0x100000;
  space.run([&](Runtime& rt) {
    for (auto _ : state) {
      auto local = rt.cache().swizzle({1, addr, node}, node);
      benchmark::DoNotOptimize(local);
      addr += 64;
    }
    return 0;
  });
  state.SetItemsProcessed(state.iterations());
}

void BM_SwizzleHit(benchmark::State& state) {
  // Swizzling a pointer already in the table: pure lookup.
  WorldOptions options;
  options.cost = CostModel::zero();
  World world(options);
  AddressSpace& space = world.create_space("s0");
  world.create_space("s1");
  srpc::workload::register_list_type(world).status().check();
  const srpc::TypeId node = world.registry().find_by_name("ListNode").value();

  space.run([&](Runtime& rt) {
    rt.cache().swizzle({1, 0x100000, node}, node).status().check();
    for (auto _ : state) {
      auto local = rt.cache().swizzle({1, 0x100000, node}, node);
      benchmark::DoNotOptimize(local);
    }
    return 0;
  });
  state.SetItemsProcessed(state.iterations());
}

void BM_Unswizzle(benchmark::State& state) {
  WorldOptions options;
  options.cost = CostModel::zero();
  World world(options);
  AddressSpace& space = world.create_space("s0");
  world.create_space("s1");
  srpc::workload::register_list_type(world).status().check();
  const srpc::TypeId node = world.registry().find_by_name("ListNode").value();

  space.run([&](Runtime& rt) {
    auto local = rt.cache().swizzle({1, 0x100000, node}, node);
    local.status().check();
    const void* p = reinterpret_cast<const void*>(local.value());
    for (auto _ : state) {
      auto lp = rt.cache().unswizzle(p);
      benchmark::DoNotOptimize(lp);
    }
    return 0;
  });
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_SwizzleMiss);
BENCHMARK(BM_SwizzleHit);
BENCHMARK(BM_Unswizzle);

}  // namespace

int main(int argc, char** argv) {
  srpc::init_log_level_from_env();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  print_paper_table();
  benchmark::Shutdown();
  return 0;
}

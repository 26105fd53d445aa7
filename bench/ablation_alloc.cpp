// Ablation — cache allocation strategy (paper §6).
//
// "The current implementation uses a heuristic allocation strategy, with
// which all the data in a page is located in a single address space. ...
// The worst situation is that all the data in the page are located at
// different computing sites."
//
// Setup: two home spaces each own a linked list; a third space walks both
// lists interleaved. Under kClusterByOrigin each faulted page talks to one
// home; under kMixed the entries interleave on shared pages and every
// fault fans out to both homes. Closure size 0 isolates the page-grain
// effect.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "core/smart_rpc.hpp"
#include "harness.hpp"
#include "workload/list.hpp"

namespace {

using namespace srpc;
using workload::ListNode;

struct Outcome {
  double strategy = 0;  // 0 = cluster-by-origin, 1 = mixed
  double closure = 0;
  double seconds = 0;
  double fetches = 0;
  double faults = 0;  // walker-side access violations (page fills)
};

std::map<std::string, Outcome>& outcomes() {
  static std::map<std::string, Outcome> o;
  return o;
}

// Each data point builds its own world; fold its robustness counters into
// a running total before it is torn down.
srpc::bench::RobustnessCounters& robustness_total() {
  static srpc::bench::RobustnessCounters r;
  return r;
}

// Same deal for the roundtrip-latency histograms feeding "latency_ns".
srpc::MetricsRegistry& latency_total() {
  static srpc::MetricsRegistry m;
  return m;
}

Outcome run_strategy(AllocationStrategy strategy, std::uint64_t closure_bytes) {
  WorldOptions options;
  options.cost = CostModel::sparc_ethernet();
  options.cache.strategy = strategy;
  options.cache.closure_bytes = closure_bytes;
  World world(options);
  AddressSpace& home_a = world.create_space("home_a");
  AddressSpace& home_b = world.create_space("home_b");
  AddressSpace& walker = world.create_space("walker");
  workload::register_list_type(world).status().check();

  constexpr std::uint32_t kLength = 512;
  ListNode* head_b_raw = home_b.run([&](Runtime& rt) {
    auto head = workload::build_list(rt, kLength, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i) * 2 + 1;
    });
    head.status().check();
    return head.value();
  });

  home_b.bind("give_head", [head_b_raw](CallContext&, std::int32_t) -> ListNode* {
        return head_b_raw;
      })
      .check();
  walker
      .bind("walk_two",
            [](CallContext&, ListNode* a, ListNode* b) -> std::int64_t {
              std::int64_t sum = 0;
              while (a != nullptr || b != nullptr) {
                if (a != nullptr) {
                  sum += a->value;
                  a = a->next;
                }
                if (b != nullptr) {
                  sum += b->value;
                  b = b->next;
                }
              }
              return sum;
            })
      .check();

  return home_a.run([&](Runtime& rt) -> Outcome {
    auto head_a = workload::build_list(rt, kLength, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i) * 2;
    });
    head_a.status().check();

    Session session(rt);
    // Pass-through: obtain a remote pointer to B's list, then hand both
    // heads to the walker in one call.
    auto head_b = session.call<ListNode*>(home_b.id(), "give_head", 0);
    head_b.status().check();

    world.reset_metering();
    auto sum = session.call<std::int64_t>(walker.id(), "walk_two",
                                          head_a.value(), head_b.value());
    sum.status().check();
    Outcome out;
    out.seconds = world.virtual_seconds();
    out.fetches = static_cast<double>(world.net_stats().count(MessageType::kFetch));
    out.faults = static_cast<double>(walker.run([](Runtime& walker_rt) {
      return walker_rt.cache().stats().read_faults;
    }));
    // One INVALIDATE at a time: in a parallel fan-out both peers charge the
    // shared virtual clock in whatever order their threads run, and the
    // latency section would differ from run to run.
    rt.set_parallel_commit(false);
    session.end().check();
    robustness_total().add(rt.stats());
    robustness_total().add(walker.run([](Runtime& w) { return w.stats(); }));
    latency_total().merge(rt.metrics());
    latency_total().merge(
        walker.run([](Runtime& w) -> MetricsRegistry { return w.metrics(); }));
    return out;
  });
}

void BM_ClusterByOrigin(benchmark::State& state) {
  const auto closure = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Outcome out = run_strategy(AllocationStrategy::kClusterByOrigin, closure);
    out.strategy = 0;
    out.closure = static_cast<double>(closure);
    state.SetIterationTime(out.seconds);
    state.counters["fetches"] = out.fetches;
    outcomes()["cluster/closure=" + std::to_string(closure)] = out;
  }
}

void BM_MixedOrigins(benchmark::State& state) {
  const auto closure = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Outcome out = run_strategy(AllocationStrategy::kMixed, closure);
    out.strategy = 1;
    out.closure = static_cast<double>(closure);
    state.SetIterationTime(out.seconds);
    state.counters["fetches"] = out.fetches;
    outcomes()["mixed/closure=" + std::to_string(closure)] = out;
  }
}

BENCHMARK(BM_ClusterByOrigin)->Arg(0)->Arg(4096)->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MixedOrigins)->Arg(0)->Arg(4096)->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  srpc::init_log_level_from_env();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();

  std::printf("\n=== Ablation: cache allocation strategy (paper §6) ===\n");
  std::printf("%24s %14s %14s %14s\n", "strategy", "virtual_s", "fetches", "faults");
  std::vector<std::vector<double>> table;
  for (const auto& [name, out] : outcomes()) {
    std::printf("%24s %14.3f %14.0f %14.0f\n", name.c_str(), out.seconds, out.fetches, out.faults);
    table.push_back({out.strategy, out.closure, out.seconds, out.fetches, out.faults});
  }
  std::fflush(stdout);
  srpc::bench::write_bench_json(
      "ablation_alloc", {{"list_length", 512}},
      {"strategy_mixed", "closure_bytes", "virtual_s", "fetches", "faults"},
      table, robustness_total(), &latency_total());
  benchmark::Shutdown();
  return 0;
}

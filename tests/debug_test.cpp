// Introspection dumps: shape checks (exact formats are for humans, but the
// load-bearing facts must be present).
#include <gtest/gtest.h>

#include "core/debug.hpp"
#include "core/smart_rpc.hpp"
#include "workload/list.hpp"

namespace srpc {
namespace {

using workload::ListNode;

TEST(DebugDump, ShowsTableEntriesAndStates) {
  WorldOptions options;
  options.cost = CostModel::zero();
  options.cache.page_count = 64;
  World world(options);
  auto& a = world.create_space("A");
  auto& b = world.create_space("B");
  workload::register_list_type(world).status().check();
  b.bind("sum",
         [](CallContext&, ListNode* head) -> std::int64_t {
           return workload::sum_list(head);
         })
      .check();

  a.run([&](Runtime& rt) {
    auto head = workload::build_list(rt, 5, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i);
    });
    head.status().check();
    Session session(rt);
    session.call<std::int64_t>(b.id(), "sum", head.value()).status().check();

    const std::string heap = dump_heap(rt);
    EXPECT_NE(heap.find("5 allocations"), std::string::npos);

    const std::string counters = dump_counters(rt);
    EXPECT_NE(counters.find("calls sent=1"), std::string::npos);

    b.run([&](Runtime& brt) {
      // The callee's cache entries belong to the session: pin it to read them.
      Runtime::ScopedSession pin(brt, session.id());
      const std::string table = dump_allocation_table(brt);
      EXPECT_NE(table.find("5 entries"), std::string::npos);
      EXPECT_NE(table.find("long pointer"), std::string::npos);
      const std::string pages = dump_page_states(brt);
      EXPECT_NE(pages.find("clean="), std::string::npos);
    });
    session.end().check();

    // After invalidation the callee's table is empty again.
    b.run([&](Runtime& brt) {
      Runtime::ScopedSession pin(brt, session.id());
      EXPECT_NE(dump_allocation_table(brt).find("0 entries"), std::string::npos);
    });
  });
}

}  // namespace
}  // namespace srpc

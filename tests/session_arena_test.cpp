// One cache per space: every session of a space takes its pages from the
// space's one arena, behind its one fault range. Covers:
//  * extended_malloc hands out zeroed storage, even on an alloc page an
//    earlier session wrote to (both session modes)
//  * a closure budget set on a space reaches every session there (both
//    session modes)
//  * hundreds and then thousands of concurrent sessions share one arena
//    and one fault range per space, and all of them commit
//  * a full arena is a RESOURCE_EXHAUSTED for the session that needed the
//    page; that session aborts cleanly, its siblings commit, and the space
//    serves new sessions afterwards
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/smart_rpc.hpp"
#include "vm/fault_dispatcher.hpp"
#include "workload/list.hpp"

namespace srpc {
namespace {

using workload::ListNode;

constexpr std::int64_t kNodeValue = 7;

std::size_t fault_ranges() { return FaultDispatcher::instance().range_count(); }

// A world of `grounds` ground spaces and one home (space 0) whose "node"
// returns a one-node list, so faulting it fills exactly one page and
// swizzles nothing further, and whose "list" returns an 8-node list.
class ArenaWorld {
 public:
  ArenaWorld(bool multi_session, int grounds, std::size_t page_count = 16384) {
    WorldOptions options;
    options.cost = CostModel::zero();
    options.multi_session = multi_session;
    options.cache.page_count = page_count;
    world_ = std::make_unique<World>(options);
    home_ = &world_->create_space("home");
    for (int g = 0; g < grounds; ++g) {
      grounds_.push_back(&world_->create_space("g" + std::to_string(g + 1)));
    }
    workload::register_list_type(*world_).status().check();
    home_->run([this](Runtime& rt) {
      node_ = workload::build_list(rt, 1, [](std::uint32_t) { return kNodeValue; })
                  .value();
      list_ = workload::build_list(rt, 8, [](std::uint32_t i) {
                return static_cast<std::int64_t>(i);
              }).value();
    });
    home_->bind("node", [this](CallContext&) { return node_; }).check();
    home_->bind("list", [this](CallContext&) { return list_; }).check();
  }

  World& world() { return *world_; }
  AddressSpace& home() { return *home_; }
  AddressSpace& ground(int g = 0) { return *grounds_[static_cast<std::size_t>(g)]; }

  // Opens one session on `rt`, fetches the home's node and reads it (one
  // fault, one page). The session stays open.
  std::unique_ptr<Session> open_with_one_page(Runtime& rt) {
    auto session = std::make_unique<Session>(rt);
    auto node = session->call<ListNode*>(home_->id(), "node");
    EXPECT_TRUE(node.is_ok()) << node.status().to_string();
    if (!node.is_ok()) return session;
    Runtime::ScopedSession pin(rt, session->id());
    EXPECT_EQ(node.value()->value, kNodeValue);
    return session;
  }

  void expect_no_sessions() {
    for (SpaceId id = 0; id < world_->space_count(); ++id) {
      EXPECT_EQ(world_->space(id).run([](Runtime& rt) { return rt.active_sessions(); }),
                0u)
          << "space " << id;
    }
  }

 private:
  std::unique_ptr<World> world_;
  AddressSpace* home_ = nullptr;
  std::vector<AddressSpace*> grounds_;
  ListNode* node_ = nullptr;
  ListNode* list_ = nullptr;
};

class SessionModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(SessionModeTest, ExtendedMallocHandsOutZeroedStorage) {
  ArenaWorld w(/*multi_session=*/GetParam(), /*grounds=*/1);
  const SpaceId home = w.home().id();
  w.ground().run([&](Runtime& rt) {
    {
      Session first(rt);
      auto node = first.extended_malloc<ListNode>(home);
      ASSERT_TRUE(node.is_ok()) << node.status().to_string();
      node.value()->value = 0x5A5A5A5A;
      ASSERT_TRUE(first.end().is_ok());
    }
    // The second session's slot lands where the first one's was: the page
    // went back to the arena and comes out again for the next allocation.
    Session second(rt);
    auto node = second.extended_malloc<ListNode>(home);
    ASSERT_TRUE(node.is_ok()) << node.status().to_string();
    EXPECT_EQ(node.value()->value, 0);
    EXPECT_EQ(node.value()->next, nullptr);
    ASSERT_TRUE(second.end().is_ok());
  });
}

TEST_P(SessionModeTest, ClosureBudgetSetOnASpaceReachesEverySession) {
  ArenaWorld w(/*multi_session=*/GetParam(), /*grounds=*/1);
  w.home().run([](Runtime& rt) { rt.cache().set_closure_bytes(0).check(); });
  w.ground().run([&](Runtime& rt) {
    rt.cache().set_closure_bytes(0).check();
    Session session(rt);
    auto head = session.call<ListNode*>(w.home().id(), "list");
    ASSERT_TRUE(head.is_ok()) << head.status().to_string();
    Runtime::ScopedSession pin(rt, session.id());
    EXPECT_EQ(workload::sum_list(head.value()), 28);
    ASSERT_TRUE(session.end().is_ok());
  });
  // No eager closure anywhere: every node is its own fault and FETCH.
  EXPECT_EQ(w.home().run([](Runtime& rt) { return rt.stats().fetches_served; }), 8u);
}

INSTANTIATE_TEST_SUITE_P(BothModes, SessionModeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "MultiSession" : "SingleSession";
                         });

TEST(SessionArenaTest, ThreeHundredSessionsShareOneArenaAndOneFaultRange) {
  ArenaWorld w(/*multi_session=*/true, /*grounds=*/1);
  ASSERT_EQ(fault_ranges(), w.world().space_count());
  w.ground().run([&](Runtime& rt) {
    std::vector<std::unique_ptr<Session>> sessions;
    for (int i = 0; i < 300; ++i) {
      sessions.push_back(w.open_with_one_page(rt));
      ASSERT_EQ(fault_ranges(), w.world().space_count()) << "session " << i;
    }
    EXPECT_EQ(rt.active_sessions(), 300u);
    for (auto& session : sessions) ASSERT_TRUE(session->end().is_ok());
    EXPECT_EQ(rt.cache().pages_used(), 0u);  // every page went back
  });
  EXPECT_EQ(fault_ranges(), w.world().space_count());
  w.expect_no_sessions();
}

TEST(SessionArenaTest, TenThousandSessionsAcrossFourSpacesAllCommit) {
  constexpr int kGrounds = 3;
  constexpr int kPerGround = 3334;
  ArenaWorld w(/*multi_session=*/true, kGrounds);
  ASSERT_EQ(fault_ranges(), 4u);
  std::atomic<int> committed{0};
  std::atomic<int> range_mismatches{0};
  std::vector<std::pair<AddressSpace*, World::GroundFn>> jobs;
  for (int g = 0; g < kGrounds; ++g) {
    jobs.emplace_back(&w.ground(g), [&](Runtime& rt) {
      std::vector<std::unique_ptr<Session>> sessions;
      for (int i = 0; i < kPerGround; ++i) {
        sessions.push_back(w.open_with_one_page(rt));
        if (fault_ranges() != 4u) range_mismatches.fetch_add(1);
      }
      for (auto& session : sessions) {
        if (session->end().is_ok()) committed.fetch_add(1);
        if (fault_ranges() != 4u) range_mismatches.fetch_add(1);
      }
    });
  }
  w.world().run_concurrent(jobs);
  EXPECT_EQ(committed.load(), kGrounds * kPerGround);
  EXPECT_EQ(range_mismatches.load(), 0);
  EXPECT_EQ(fault_ranges(), 4u);
  w.expect_no_sessions();
}

TEST(SessionArenaTest, FullArenaFailsOnlyTheSessionThatNeedsThePage) {
  constexpr std::size_t kPages = 64;
  ArenaWorld w(/*multi_session=*/true, /*grounds=*/1, kPages);
  w.ground().run([&](Runtime& rt) {
    std::vector<std::unique_ptr<Session>> sessions;
    for (std::size_t i = 0; i < kPages; ++i) sessions.push_back(w.open_with_one_page(rt));
    EXPECT_EQ(rt.cache().pages_used(), kPages);

    // Page 65: the returned pointer has nowhere to be swizzled.
    auto overflow = rt.begin_session();
    ASSERT_TRUE(overflow.is_ok());
    {
      Runtime::ScopedSession pin(rt, overflow.value());
      auto node = typed_call<ListNode*>(rt, w.home().id(), "node");
      ASSERT_FALSE(node.is_ok());
      EXPECT_EQ(node.status().code(), StatusCode::kResourceExhausted)
          << node.status().to_string();
    }
    EXPECT_TRUE(rt.abort_session(overflow.value()).is_ok());
    EXPECT_EQ(rt.active_sessions(), kPages);

    for (auto& session : sessions) ASSERT_TRUE(session->end().is_ok());
    auto fresh = w.open_with_one_page(rt);
    EXPECT_TRUE(fresh->end().is_ok());
  });
  w.expect_no_sessions();
}

}  // namespace
}  // namespace srpc

// Concurrent multi-session runtime: many sessions per space, home-side
// coherency arbitration (ObjectLockTable + ConflictArbiter, wound-wait by
// session id), sessions owning their pages of each space's one cache,
// WB_CONFLICT losers that retry cleanly. Covers:
//  * disjoint sessions commit independently (no conflicts, both visible)
//  * write-write conflict: exactly one loser, whose retry succeeds, in
//    both wound-wait directions (older wounds younger; younger meets an
//    older holder and loses immediately)
//  * a three-session read/write cycle resolves without deadlock
//  * sibling teardown isolation: aborting one session on a space leaves
//    its siblings' caches and commits untouched
//  * fault-injected soak with truly parallel grounds, ending with zero
//    leaked locks, sessions, or session-owned heap bytes anywhere
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/smart_rpc.hpp"
#include "net/fault_transport.hpp"
#include "workload/list.hpp"

namespace srpc {
namespace {

using workload::ListNode;

constexpr int kLists = 4;

// Sum of list `w` as built: values w*100 + {0,1,2}.
constexpr std::int64_t original_sum(std::int64_t w) { return 3 * w * 100 + 3; }

class MultiSessionTest : public ::testing::Test {
 protected:
  void build_world(bool faults) {
    WorldOptions options;
    options.cost = CostModel::zero();
    options.cache.closure_bytes = 0;  // every remote read is a FETCH
    options.multi_session = true;
    options.fault_injection = faults;
    options.timeouts = TimeoutConfig::aggressive();
    world_ = std::make_unique<World>(options);
    home_ = &world_->create_space("home");
    g1_ = &world_->create_space("g1");
    g2_ = &world_->create_space("g2");
    g3_ = &world_->create_space("g3");
    workload::register_list_type(*world_).status().check();
    home_
        ->bind("list",
               [this](CallContext&, std::int64_t which) -> ListNode* {
                 return heads_[which];
               })
        .check();
    home_
        ->bind("sum",
               [this](CallContext&, std::int64_t which) -> std::int64_t {
                 return workload::sum_list(heads_[which]);
               })
        .check();
    home_->run([this](Runtime& rt) {
      for (std::int64_t w = 0; w < kLists; ++w) {
        auto head = workload::build_list(rt, 3, [w](std::uint32_t i) {
          return w * 100 + static_cast<std::int64_t>(i);
        });
        head.status().check();
        heads_[w] = head.value();
      }
    });
  }

  ~MultiSessionTest() override {
    if (world_ && world_->fault() != nullptr) world_->fault()->disarm();
  }

  // Opens a session on `rt`, caches list `which`, and overwrites the head
  // value — the canonical single-object write.
  static ListNode* dirty_list(Runtime& rt, std::int64_t which,
                              std::int64_t value) {
    EXPECT_TRUE(rt.begin_session().is_ok());
    auto head = typed_call<ListNode*>(rt, 0, "list", which);
    EXPECT_TRUE(head.is_ok()) << head.status().to_string();
    EXPECT_TRUE(rt.prefetch(head.value(), 1 << 16).is_ok());
    head.value()->value = value;
    return head.value();
  }

  std::int64_t home_sum(std::int64_t which) {
    return g3_->run([which](Runtime& rt) {
      Session session(rt);
      auto sum = typed_call<std::int64_t>(rt, 0, "sum", which);
      sum.status().check();
      EXPECT_TRUE(session.end().is_ok());
      return sum.value();
    });
  }

  ArbiterStats home_arbiter_stats() {
    return home_->run([](Runtime& rt) { return rt.arbiter().stats(); });
  }

  // Nothing session-scoped may outlive the tests: no open sessions, no
  // object locks, no session-owned heap bytes, anywhere in the world.
  void expect_no_leaks() {
    for (std::size_t i = 0; i < world_->space_count(); ++i) {
      AddressSpace& space = world_->space(static_cast<SpaceId>(i));
      EXPECT_EQ(space.run([](Runtime& rt) { return rt.active_sessions(); }), 0u)
          << "leaked sessions on " << space.name();
      EXPECT_EQ(space.run([](Runtime& rt) { return rt.arbiter().lock_count(); }),
                0u)
          << "leaked object locks on " << space.name();
      EXPECT_EQ(
          space.run([](Runtime& rt) { return rt.heap().session_owned_bytes(); }),
          0u)
          << "leaked session-owned heap bytes on " << space.name();
    }
  }

  std::unique_ptr<World> world_;
  AddressSpace* home_ = nullptr;
  AddressSpace* g1_ = nullptr;
  AddressSpace* g2_ = nullptr;
  AddressSpace* g3_ = nullptr;
  ListNode* heads_[kLists] = {};
};

TEST_F(MultiSessionTest, DisjointSessionsCommitIndependently) {
  build_world(/*faults=*/false);
  // Both sessions are open at once (interleaved through the home), touch
  // different objects, and must both commit without arbitration noise.
  g1_->run([](Runtime& rt) { dirty_list(rt, 0, 1000); });
  g2_->run([](Runtime& rt) { dirty_list(rt, 1, 2000); });
  g1_->run([](Runtime& rt) {
    ASSERT_TRUE(rt.end_session().is_ok());
    EXPECT_EQ(rt.stats().sessions_committed, 1u);
    EXPECT_EQ(rt.stats().wb_conflicts, 0u);
  });
  g2_->run([](Runtime& rt) {
    ASSERT_TRUE(rt.end_session().is_ok());
    EXPECT_EQ(rt.stats().wb_conflicts, 0u);
  });
  EXPECT_EQ(home_sum(0), 1000 + 1 + 2);
  EXPECT_EQ(home_sum(1), 2000 + 101 + 102);
  const ArbiterStats stats = home_arbiter_stats();
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_EQ(stats.wounds, 0u);
  expect_no_leaks();
}

TEST_F(MultiSessionTest, OlderWriterWoundsYoungerAndLoserRetries) {
  build_world(/*faults=*/false);
  // Session ids order by (space << 32 | counter): g1's session is older
  // than g2's. Both read and write list 0; the older commits first and
  // wounds the younger's read locks — the younger discovers the wound at
  // its own prepare, aborts, and succeeds on a fresh session.
  g1_->run([](Runtime& rt) { dirty_list(rt, 0, 1111); });
  g2_->run([](Runtime& rt) { dirty_list(rt, 0, 2222); });
  g1_->run([](Runtime& rt) { ASSERT_TRUE(rt.end_session().is_ok()); });
  EXPECT_EQ(home_sum(0), 1111 + 1 + 2);  // the winner's commit is home data
  g2_->run([](Runtime& rt) {
    Status ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
    EXPECT_EQ(ended.code(), StatusCode::kConflict) << ended.to_string();
    EXPECT_EQ(rt.stats().wb_conflicts, 1u);
    ASSERT_TRUE(rt.abort_session().is_ok());
    // Retry under a fresh session: re-fetch (now the winner's value) and
    // write over it — no survivor contends, so this commit must land.
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto head = typed_call<ListNode*>(rt, 0, "list", std::int64_t{0});
    ASSERT_TRUE(head.is_ok()) << head.status().to_string();
    ASSERT_TRUE(rt.prefetch(head.value(), 1 << 16).is_ok());
    EXPECT_EQ(head.value()->value, 1111);  // observed the winner's commit
    head.value()->value = 2222;
    ASSERT_TRUE(rt.end_session().is_ok());
  });
  EXPECT_EQ(home_sum(0), 2222 + 1 + 2);
  const ArbiterStats stats = home_arbiter_stats();
  EXPECT_GE(stats.wounds, 1u);
  EXPECT_EQ(stats.conflicts, 1u);
  expect_no_leaks();
}

TEST_F(MultiSessionTest, YoungerWriterMeetsOlderReaderAndLosesImmediately) {
  build_world(/*faults=*/false);
  // The younger session prepares first: the older one still holds a shared
  // lock on the object, and wound-wait never wounds an older session — the
  // younger loses on the spot, the older commits untouched.
  g1_->run([](Runtime& rt) { dirty_list(rt, 0, 1111); });
  g2_->run([](Runtime& rt) { dirty_list(rt, 0, 2222); });
  g2_->run([](Runtime& rt) {
    Status ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
    EXPECT_EQ(ended.code(), StatusCode::kConflict) << ended.to_string();
    ASSERT_TRUE(rt.abort_session().is_ok());
  });
  g1_->run([](Runtime& rt) {
    ASSERT_TRUE(rt.end_session().is_ok());  // the older never noticed
    EXPECT_EQ(rt.stats().wb_conflicts, 0u);
  });
  EXPECT_EQ(home_sum(0), 1111 + 1 + 2);
  const ArbiterStats stats = home_arbiter_stats();
  EXPECT_EQ(stats.conflicts, 1u);
  EXPECT_GE(stats.lock_waits, 1u);
  expect_no_leaks();
}

TEST_F(MultiSessionTest, WoundWaitCycleResolvesWithoutDeadlock) {
  build_world(/*faults=*/false);
  // Classic cycle that deadlocks blocking lock tables: S1 reads {X,Y}
  // writes Y, S2 reads {Y,Z} writes Z, S3 reads {Z,X} writes X, all open
  // at once. Wound-wait is non-blocking, so the commits resolve in
  // bounded time with exactly one loser (S2, wounded by the older S1).
  auto open_and_write = [](Runtime& rt, std::int64_t read_extra,
                           std::int64_t write, std::int64_t value) {
    EXPECT_TRUE(rt.begin_session().is_ok());
    auto r = typed_call<ListNode*>(rt, 0, "list", read_extra);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_TRUE(rt.prefetch(r.value(), 1 << 16).is_ok());
    auto w = typed_call<ListNode*>(rt, 0, "list", write);
    EXPECT_TRUE(w.is_ok()) << w.status().to_string();
    EXPECT_TRUE(rt.prefetch(w.value(), 1 << 16).is_ok());
    w.value()->value = value;
  };
  g1_->run([&](Runtime& rt) { open_and_write(rt, 0, 1, 1001); });  // X=0 Y=1
  g2_->run([&](Runtime& rt) { open_and_write(rt, 1, 2, 2002); });  // Y   Z=2
  g3_->run([&](Runtime& rt) { open_and_write(rt, 2, 0, 3003); });  // Z   X

  g1_->run([](Runtime& rt) { ASSERT_TRUE(rt.end_session().is_ok()); });
  g2_->run([](Runtime& rt) {
    Status ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());  // wounded by S1's write to Y
    EXPECT_EQ(ended.code(), StatusCode::kConflict) << ended.to_string();
    ASSERT_TRUE(rt.abort_session().is_ok());
  });
  g3_->run([](Runtime& rt) { ASSERT_TRUE(rt.end_session().is_ok()); });
  // The loser's retry sees both winners' values and lands.
  g2_->run([&](Runtime& rt) {
    open_and_write(rt, 1, 2, 2002);
    ASSERT_TRUE(rt.end_session().is_ok());
  });

  EXPECT_EQ(home_sum(1), 1001 + 101 + 102);
  EXPECT_EQ(home_sum(2), 2002 + 201 + 202);
  EXPECT_EQ(home_sum(0), 3003 + 1 + 2);
  const ArbiterStats stats = home_arbiter_stats();
  EXPECT_EQ(stats.conflicts, 1u);
  EXPECT_GE(stats.wounds, 1u);
  expect_no_leaks();
}

TEST_F(MultiSessionTest, SiblingTeardownIsolated) {
  build_world(/*faults=*/false);
  // Two Session objects on one space: aborting (or destroying) one must
  // not unwind its sibling — the regression the scalar single-session
  // runtime state would cause.
  g1_->run([](Runtime& rt) {
    Session keeper(rt);
    ListNode* kept = nullptr;
    {
      Session doomed(rt);
      auto k = keeper.call<ListNode*>(0, "list", std::int64_t{2});
      ASSERT_TRUE(k.is_ok()) << k.status().to_string();
      ASSERT_TRUE(keeper.prefetch(k.value(), 1 << 16).is_ok());
      k.value()->value = 4242;
      kept = k.value();

      auto d = doomed.call<ListNode*>(0, "list", std::int64_t{3});
      ASSERT_TRUE(d.is_ok()) << d.status().to_string();
      ASSERT_TRUE(doomed.prefetch(d.value(), 1 << 16).is_ok());
      d.value()->value = 9999;
      ASSERT_TRUE(doomed.abort().is_ok());
      EXPECT_EQ(rt.stats().sessions_aborted, 1u);
    }
    // The sibling's pages survived the abort: the dirtied page is still
    // resident and the commit ships it.
    EXPECT_EQ(kept->value, 4242);
    ASSERT_TRUE(keeper.end().is_ok());
    EXPECT_EQ(rt.stats().sessions_committed, 1u);
    EXPECT_EQ(rt.active_sessions(), 0u);
  });
  EXPECT_EQ(home_sum(2), 4242 + 201 + 202);   // keeper committed
  EXPECT_EQ(home_sum(3), original_sum(3));    // doomed rolled back
  expect_no_leaks();
}

TEST_F(MultiSessionTest, ParallelGroundsCommitDisjointSessions) {
  build_world(/*faults=*/false);
  // True parallelism: three ground workers run five sessions each against
  // the one home simultaneously. Disjoint objects — every commit must land
  // with zero conflicts and zero coherency violations.
  constexpr int kRounds = 5;
  std::atomic<int> committed{0};
  auto ground = [&committed](std::int64_t which) {
    return [which, &committed](Runtime& rt) {
      for (int round = 0; round < kRounds; ++round) {
        Session session(rt);
        auto head = session.call<ListNode*>(0, "list", which);
        ASSERT_TRUE(head.is_ok()) << head.status().to_string();
        ASSERT_TRUE(session.prefetch(head.value(), 1 << 16).is_ok());
        head.value()->value = which * 10000 + round;
        ASSERT_TRUE(session.end().is_ok());
        committed.fetch_add(1, std::memory_order_relaxed);
      }
    };
  };
  world_->run_concurrent({{g1_, ground(0)}, {g2_, ground(1)}, {g3_, ground(2)}});
  EXPECT_EQ(committed.load(), 3 * kRounds);
  for (std::int64_t w = 0; w < 3; ++w) {
    EXPECT_EQ(home_sum(w), w * 10000 + (kRounds - 1) + (w * 100 + 1) +
                               (w * 100 + 2));
  }
  const ArbiterStats stats = home_arbiter_stats();
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_EQ(stats.wounds, 0u);
  // The merged world metrics keep per-space concurrency series visible.
  const std::string metrics = world_->metrics_json();
  EXPECT_NE(metrics.find("concurrency.active_sessions"), std::string::npos);
  EXPECT_NE(metrics.find("\"home\""), std::string::npos);
  expect_no_leaks();
}

TEST_F(MultiSessionTest, PipelinedSessionsShareTheHomeWithoutCrosstalk) {
  build_world(/*faults=*/false);
  // Two grounds each keep a depth-4 CALL pipeline outstanding against the
  // one home at the same time, collect out of order, then commit a write
  // to their own list. The home interleaves both pipelines; every reply
  // must land in the issuing session's slot (never the sibling's), and the
  // disjoint writes must commit without arbitration noise.
  std::atomic<int> collected{0};
  auto ground = [&collected](std::int64_t which) {
    return [which, &collected](Runtime& rt) {
      Session session(rt);
      // Pipeline sums of lists 2 and 3 — lists neither ground writes, so
      // the expected values are stable however the commits interleave.
      constexpr std::int64_t kReadLists[] = {2, 3, 2, 3};
      std::vector<TypedCallFuture<std::int64_t>> futures;
      for (std::int64_t w : kReadLists) {
        auto fut = session.call_async<std::int64_t>(0, "sum", w);
        ASSERT_TRUE(fut.is_ok()) << fut.status().to_string();
        futures.push_back(std::move(fut.value()));
      }
      EXPECT_EQ(rt.endpoint().inflight(), 4u);
      for (int i = 3; i >= 0; --i) {
        auto sum = futures[static_cast<std::size_t>(i)].get();
        ASSERT_TRUE(sum.is_ok()) << sum.status().to_string();
        EXPECT_EQ(sum.value(), original_sum(kReadLists[i]));
        collected.fetch_add(1, std::memory_order_relaxed);
      }
      auto head = session.call<ListNode*>(0, "list", which);
      ASSERT_TRUE(head.is_ok()) << head.status().to_string();
      ASSERT_TRUE(session.prefetch(head.value(), 1 << 16).is_ok());
      head.value()->value = 7000 + which;
      ASSERT_TRUE(session.end().is_ok());
    };
  };
  world_->run_concurrent({{g1_, ground(0)}, {g2_, ground(1)}});
  EXPECT_EQ(collected.load(), 8);
  EXPECT_EQ(home_sum(0), 7000 + 1 + 2);
  EXPECT_EQ(home_sum(1), 7001 + 101 + 102);
  const ArbiterStats stats = home_arbiter_stats();
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_EQ(stats.wounds, 0u);
  expect_no_leaks();
}

TEST_F(MultiSessionTest, FaultInjectedParallelSoakLeaksNothing) {
  build_world(/*faults=*/true);
  FaultTransport* fault = world_->fault();
  ASSERT_NE(fault, nullptr);
  FaultOptions fo;
  fo.seed = 0x5E55105EEDull;
  fo.drop = 0.03;
  fo.duplicate = 0.05;
  fo.delay = 0.04;
  fault->target_all();
  fault->arm(fo);

  // Eight committed sessions per ground, three grounds in parallel, under
  // drop/duplicate/delay injection. A failed end_session is retried (the
  // two-phase protocol rolls forward); a conflict aborts and retries under
  // a fresh session. Every session must eventually commit.
  constexpr int kCommitsPerGround = 8;
  constexpr int kMaxAttempts = 20;
  std::atomic<int> committed{0};
  std::atomic<int> stuck{0};
  auto ground = [&](std::int64_t which) {
    return [which, &committed, &stuck](Runtime& rt) {
      for (int round = 0; round < kCommitsPerGround; ++round) {
        auto id = rt.begin_session();
        ASSERT_TRUE(id.is_ok());  // local-only in multi-session mode
        // Reads retry inside the session (a failed idempotent fetch leaves
        // nothing to unwind); the commit then rolls the same session
        // forward through transient faults — the two-phase protocol is
        // built to converge on retry, so abandoning (and losing an abort's
        // INVALIDATE on the faulty wire) is never necessary.
        ListNode* head = nullptr;
        for (int attempt = 0; attempt < kMaxAttempts && head == nullptr;
             ++attempt) {
          auto h = typed_call<ListNode*>(rt, 0, "list", which);
          if (h.is_ok() && rt.prefetch(h.value(), 1 << 16).is_ok()) {
            head = h.value();
          }
        }
        if (head == nullptr) {
          stuck.fetch_add(1, std::memory_order_relaxed);
          (void)rt.abort_session(id.value());
          continue;
        }
        head->value = which * 100000 + round;
        Status ended = rt.end_session(id.value());
        for (int retry = 0; retry < kMaxAttempts && !ended.is_ok() &&
                            ended.code() != StatusCode::kConflict;
             ++retry) {
          ended = rt.end_session(id.value());
        }
        if (ended.is_ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        } else {
          stuck.fetch_add(1, std::memory_order_relaxed);
          (void)rt.abort_session(id.value());
        }
      }
    };
  };
  world_->run_concurrent({{g1_, ground(0)}, {g2_, ground(1)}, {g3_, ground(2)}});
  fault->disarm();

  EXPECT_EQ(stuck.load(), 0);
  EXPECT_EQ(committed.load(), 3 * kCommitsPerGround);
  for (std::int64_t w = 0; w < 3; ++w) {
    EXPECT_EQ(home_sum(w), w * 100000 + (kCommitsPerGround - 1) +
                               (w * 100 + 1) + (w * 100 + 2));
  }
  expect_no_leaks();
}

}  // namespace
}  // namespace srpc

// Multiplexing torture: many outstanding sequence numbers while the wire
// drops, duplicates, and reorders traffic.
//
// The invariants under test: every reply lands in its own completion slot
// (never a neighbour's), a retransmitting seq does not stall the seqs that
// are completing around it, a partition or crash mid-fan-out degrades to a
// typed bounded failure with the surviving homes mutually consistent, and
// the retried session end rolls the protocol forward to convergence. A
// seeded chaos sweep (drop+duplicate+delay at once) closes the file; the
// seed base is overridable via SRPC_SOAK_SEED_BASE for scripts/soak.sh.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/smart_rpc.hpp"
#include "net/fault_transport.hpp"
#include "workload/list.hpp"

namespace srpc {
namespace {

using workload::ListNode;
using Clock = std::chrono::steady_clock;

constexpr auto kBound = std::chrono::seconds(5);

constexpr std::int64_t kOldB = 10 + 11 + 12;
constexpr std::int64_t kOldC = 20 + 21 + 22;
constexpr std::int64_t kOldD = 30 + 31 + 32;
constexpr std::int64_t kNewB = 1000 + 11 + 12;
constexpr std::int64_t kNewC = 2000 + 21 + 22;
constexpr std::int64_t kNewD = 3000 + 31 + 32;

std::uint64_t seed_base() {
  if (const char* env = std::getenv("SRPC_SOAK_SEED_BASE")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xF00DULL;
}

// Ground A pipelines against three homes (B=1, C=2, D=3), the smallest
// world where a fan-out can half-fail.
class PipelineFaultTest : public ::testing::Test {
 protected:
  PipelineFaultTest() {
    WorldOptions options;
    options.cost = CostModel::zero();
    options.cache.closure_bytes = 0;
    options.fault_injection = true;
    options.timeouts = TimeoutConfig::aggressive();
    world_ = std::make_unique<World>(options);
    a_ = &world_->create_space("A");
    b_ = &world_->create_space("B");
    c_ = &world_->create_space("C");
    d_ = &world_->create_space("D");
    workload::register_list_type(*world_).status().check();
    bind_home(*b_, "B", &head_b_);
    bind_home(*c_, "C", &head_c_);
    bind_home(*d_, "D", &head_d_);
    b_->bind("echo",
             [](CallContext&, std::int64_t v) -> std::int64_t { return v; })
        .check();
    c_->bind("negate",
             [](CallContext&, std::int64_t v) -> std::int64_t { return -v; })
        .check();
    build(*b_, &head_b_, 10);
    build(*c_, &head_c_, 20);
    build(*d_, &head_d_, 30);
    fault_ = world_->fault();
  }

  ~PipelineFaultTest() override {
    if (fault_ != nullptr) fault_->disarm();
  }

  static void bind_home(AddressSpace& space, const std::string& tag,
                        ListNode** head) {
    space.bind("head" + tag, [head](CallContext&) -> ListNode* { return *head; })
        .check();
    space
        .bind("sum" + tag,
              [head](CallContext&) -> std::int64_t {
                return workload::sum_list(*head);
              })
        .check();
  }

  static void build(AddressSpace& space, ListNode** head, std::int64_t base) {
    space.run([&](Runtime& rt) {
      auto built = workload::build_list(rt, 3, [base](std::uint32_t i) {
        return base + static_cast<std::int64_t>(i);
      });
      built.status().check();
      *head = built.value();
    });
  }

  // Fetches the three heads into A's cache via remote calls; the pointers
  // come back swizzled but non-resident, ready for a batched prefetch.
  struct Heads {
    ListNode* b = nullptr;
    ListNode* c = nullptr;
    ListNode* d = nullptr;
  };
  static Heads fetch_heads(Runtime& rt) {
    Heads heads;
    auto hb = typed_call<ListNode*>(rt, 1, "headB");
    EXPECT_TRUE(hb.is_ok()) << hb.status().to_string();
    auto hc = typed_call<ListNode*>(rt, 2, "headC");
    EXPECT_TRUE(hc.is_ok()) << hc.status().to_string();
    auto hd = typed_call<ListNode*>(rt, 3, "headD");
    EXPECT_TRUE(hd.is_ok()) << hd.status().to_string();
    heads.b = hb.value();
    heads.c = hc.value();
    heads.d = hd.value();
    return heads;
  }

  static Status prefetch_all(Runtime& rt, const Heads& heads) {
    std::vector<const void*> roots{heads.b, heads.c, heads.d};
    return rt.prefetch_many(roots, 1 << 16);
  }

  // Reads every home through a fresh session and asserts the all-or-nothing
  // invariant across the given homes (mixed outcome = atomicity violation).
  void expect_consistent(std::vector<SpaceId> homes) {
    a_->run([&](Runtime& rt) {
      Session session(rt);
      std::vector<bool> committed;
      for (SpaceId home : homes) {
        const char* proc = home == 1 ? "sumB" : home == 2 ? "sumC" : "sumD";
        const std::int64_t old_sum = home == 1 ? kOldB : home == 2 ? kOldC : kOldD;
        const std::int64_t new_sum = home == 1 ? kNewB : home == 2 ? kNewC : kNewD;
        auto sum = session.call<std::int64_t>(home, proc);
        ASSERT_TRUE(sum.is_ok()) << sum.status().to_string();
        ASSERT_TRUE(sum.value() == old_sum || sum.value() == new_sum)
            << "home " << home << " holds torn bytes: " << sum.value();
        committed.push_back(sum.value() == new_sum);
      }
      for (std::size_t i = 1; i < committed.size(); ++i) {
        EXPECT_EQ(committed[0], committed[i])
            << "half-committed fan-out across homes " << homes[0] << " and "
            << homes[i];
      }
      ASSERT_TRUE(session.end().is_ok());
    });
  }

  std::unique_ptr<World> world_;
  AddressSpace* a_ = nullptr;
  AddressSpace* b_ = nullptr;
  AddressSpace* c_ = nullptr;
  AddressSpace* d_ = nullptr;
  FaultTransport* fault_ = nullptr;
  ListNode* head_b_ = nullptr;
  ListNode* head_c_ = nullptr;
  ListNode* head_d_ = nullptr;
};

// Eight-plus outstanding CALL seqs while every reply is duplicated and most
// are shuffled behind younger traffic: each future must still observe
// exactly its own reply, and the duplicates must be absorbed as stale
// rather than completing (or wedging) anything.
TEST_F(PipelineFaultTest, OutstandingCallsSurviveDuplicatedReorderedReplies) {
  FaultOptions opts;
  opts.seed = seed_base();
  opts.duplicate = 1.0;
  opts.delay = 0.6;
  opts.delay_window = 3;
  fault_->target({MessageType::kReturn});
  fault_->arm(opts);
  a_->run([&](Runtime& rt) {
    // Generous per-request deadlines: the delayed replies are released by
    // flush() nudges below, and a sanitizer-slowed run must not let the
    // CALL slots expire underneath the shuffle.
    rt.set_timeouts(TimeoutConfig{});
    Session session(rt);
    std::vector<TypedCallFuture<std::int64_t>> futures;
    for (std::int64_t i = 0; i < 10; ++i) {
      auto fut = (i % 2) == 0
                     ? session.call_async<std::int64_t>(1, "echo", i)
                     : session.call_async<std::int64_t>(2, "negate", i);
      ASSERT_TRUE(fut.is_ok()) << fut.status().to_string();
      futures.push_back(std::move(fut.value()));
    }
    EXPECT_GE(rt.endpoint().inflight(), 8u);
    // A held-back reply is only released by later wire traffic; once the
    // pipeline drains there may be none, so nudge with flush() whenever a
    // wait times out (the future stays valid across a deadline).
    const auto watchdog = Clock::now() + kBound;
    for (std::int64_t i = 0; i < 10; ++i) {
      Result<std::int64_t> out = deadline_exceeded("unattempted");
      while (true) {
        out = futures[static_cast<std::size_t>(i)].get(
            Clock::now() + std::chrono::milliseconds(50));
        if (out.is_ok() ||
            out.status().code() != StatusCode::kDeadlineExceeded ||
            Clock::now() >= watchdog) {
          break;
        }
        fault_->flush();
      }
      ASSERT_TRUE(out.is_ok()) << out.status().to_string();
      EXPECT_EQ(out.value(), (i % 2) == 0 ? i : -i);
    }
    EXPECT_EQ(rt.endpoint().inflight(), 0u);
    fault_->disarm();  // releases any still-held duplicates
    // One settling roundtrip pumps the mailbox through the full dispatcher,
    // so every straggler duplicate is absorbed before we assert on it.
    auto settle = session.call<std::int64_t>(1, "echo", std::int64_t{99});
    ASSERT_TRUE(settle.is_ok()) << settle.status().to_string();
    ASSERT_TRUE(session.end().is_ok());
    // Every duplicate RETURN missed its (finished) slot and was absorbed.
    EXPECT_GE(rt.stats().stale_replies_absorbed, 1u);
  });
}

// One FETCH reply of a three-home fan-out is lost: that seq must
// retransmit (FETCH is idempotent) while the other homes' replies complete
// their slots, and the batch still fills every page.
TEST_F(PipelineFaultTest, DroppedFetchReplyRetransmitsWhileOthersComplete) {
  a_->run([&](Runtime& rt) {
    Session session(rt);
    Heads heads = fetch_heads(rt);
    const std::uint64_t before = rt.endpoint().retransmits();
    fault_->drop_next(MessageType::kFetchReply, 1);
    ASSERT_TRUE(prefetch_all(rt, heads).is_ok());
    EXPECT_GE(rt.endpoint().retransmits(), before + 1);
    EXPECT_EQ(workload::sum_list(heads.b), kOldB);
    EXPECT_EQ(workload::sum_list(heads.c), kOldC);
    EXPECT_EQ(workload::sum_list(heads.d), kOldD);
    EXPECT_EQ(rt.endpoint().inflight(), 0u);
    ASSERT_TRUE(session.end().is_ok());
  });
}

// A home partitioned mid-fan-out fails the batch typed and bounded; the
// healed wire retries to success with every list intact.
TEST_F(PipelineFaultTest, PartitionMidFanoutHealsAndRetries) {
  a_->run([&](Runtime& rt) {
    Session session(rt);
    Heads heads = fetch_heads(rt);
    fault_->partition(3);
    const auto start = Clock::now();
    Status batched = prefetch_all(rt, heads);
    ASSERT_FALSE(batched.is_ok());
    EXPECT_LT(Clock::now() - start, kBound);
    EXPECT_EQ(rt.endpoint().inflight(), 0u);
    fault_->heal_all();
    ASSERT_TRUE(prefetch_all(rt, heads).is_ok());
    EXPECT_EQ(workload::sum_list(heads.b), kOldB);
    EXPECT_EQ(workload::sum_list(heads.c), kOldC);
    EXPECT_EQ(workload::sum_list(heads.d), kOldD);
    ASSERT_TRUE(session.end().is_ok());
  });
}

// One home unreachable during the parallel WB_PREPARE fan-out: phase one
// fails, the prepared survivors are rolled back (all-or-nothing), and the
// retried end after healing rolls the whole session forward.
TEST_F(PipelineFaultTest, PartitionDuringParallelPrepareRollsForward) {
  a_->run([&](Runtime& rt) {
    ASSERT_TRUE(rt.parallel_commit());
    ASSERT_TRUE(rt.begin_session().is_ok());
    Heads heads = fetch_heads(rt);
    ASSERT_TRUE(prefetch_all(rt, heads).is_ok());
    heads.b->value = 1000;
    heads.c->value = 2000;
    heads.d->value = 3000;
    fault_->partition(2);
    const auto start = Clock::now();
    auto ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
    EXPECT_LT(Clock::now() - start, kBound);
    EXPECT_GE(rt.stats().wb_aborts, 1u);
    fault_->heal_all();
    ASSERT_TRUE(rt.end_session().is_ok());
    EXPECT_EQ(rt.active_sessions(), 0u);
  });
  expect_consistent({1, 2, 3});
  a_->run([&](Runtime& rt) {
    Session session(rt);
    auto sum = session.call<std::int64_t>(2, "sumC");
    ASSERT_TRUE(sum.is_ok());
    EXPECT_EQ(sum.value(), kNewC);  // converged, not merely consistent
    ASSERT_TRUE(session.end().is_ok());
  });
}

// Phase one with home C cut off, in both fan-out modes. Sequential: B's
// prepare settles before C's is issued and C's failure stops the phase, so
// D is never addressed and only B is rolled back. Parallel: every prepare
// is issued before any settles and every issued one is settled, so B and D
// both stage and both roll back.
TEST_F(PipelineFaultTest, PrepareFanOutStopsWhenSequentialSettlesAllWhenParallel) {
  const auto stats = [](AddressSpace* space) {
    return space->run([](Runtime& rt) { return rt.stats(); });
  };
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "sequential");
    const RuntimeStats b0 = stats(b_);
    const RuntimeStats d0 = stats(d_);
    a_->run([&](Runtime& rt) {
      // One attempt per request: a slow ack must not be retransmitted and
      // served twice.
      rt.set_timeouts(TimeoutConfig::aggressive(std::chrono::milliseconds(400),
                                                std::chrono::milliseconds(400),
                                                /*attempts=*/1));
      rt.set_parallel_commit(parallel);
      ASSERT_TRUE(rt.begin_session().is_ok());
      Heads heads = fetch_heads(rt);
      ASSERT_TRUE(prefetch_all(rt, heads).is_ok());
      heads.b->value = 1000;
      heads.c->value = 2000;
      heads.d->value = 3000;
      fault_->partition(2);
      EXPECT_FALSE(rt.end_session().is_ok());
      fault_->heal_all();
      EXPECT_TRUE(rt.abort_session().is_ok());
      rt.set_parallel_commit(true);
      rt.set_timeouts(TimeoutConfig::aggressive());
    });
    const RuntimeStats b1 = stats(b_);
    const RuntimeStats d1 = stats(d_);
    const std::uint64_t d_staged = parallel ? 1 : 0;
    EXPECT_EQ(b1.wb_prepares_served - b0.wb_prepares_served, 1u);
    EXPECT_EQ(b1.wb_aborts_served - b0.wb_aborts_served, 1u);
    EXPECT_EQ(d1.wb_prepares_served - d0.wb_prepares_served, d_staged);
    EXPECT_EQ(d1.wb_aborts_served - d0.wb_aborts_served, d_staged);
  }
  expect_consistent({1, 2, 3});
}

// A home's process dies during the parallel prepare fan-out. The end fails
// fast and bounded, the abort unwinds past the corpse, and the surviving
// homes stay byte-identical to each other (both old or both new — never
// torn).
TEST_F(PipelineFaultTest, CrashDuringParallelPrepareKeepsSurvivorsConsistent) {
  a_->run([&](Runtime& rt) {
    ASSERT_TRUE(rt.begin_session().is_ok());
    Heads heads = fetch_heads(rt);
    ASSERT_TRUE(prefetch_all(rt, heads).is_ok());
    heads.b->value = 1000;
    heads.c->value = 2000;
    heads.d->value = 3000;
  });
  world_->crash_space(3);
  a_->run([&](Runtime& rt) {
    const auto start = Clock::now();
    Status ended = rt.end_session();
    EXPECT_LT(Clock::now() - start, kBound);
    if (!ended.is_ok()) {
      // Dead peer blocked the commit: abort must still unwind locally.
      Status aborted = rt.abort_session();
      EXPECT_LT(Clock::now() - start, 2 * kBound);
      (void)aborted;  // dead peer may be reported; local unwind is what matters
    }
    EXPECT_EQ(rt.active_sessions(), 0u);
  });
  expect_consistent({1, 2});
}

// Seeded chaos sweep: drop + duplicate + delay all at once on the fetch
// path, across several seeds. Every batch must either succeed under fire
// (retransmits absorb the losses) or fail typed and succeed on a calm
// retry; each cycle must end with no leaked sessions or completion slots.
TEST_F(PipelineFaultTest, SeededChaosSweepConverges) {
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FaultOptions opts;
    opts.seed = seed;
    opts.drop = 0.25;
    opts.duplicate = 0.25;
    opts.delay = 0.25;
    opts.delay_window = 3;
    a_->run([&](Runtime& rt) {
      ASSERT_TRUE(rt.begin_session().is_ok());
      Heads heads = fetch_heads(rt);
      fault_->target({MessageType::kFetch, MessageType::kFetchReply});
      fault_->arm(opts);
      Status batched = prefetch_all(rt, heads);
      fault_->disarm();  // also flushes held-back messages
      if (!batched.is_ok()) {
        // Loss outran the retry budget for this seed; the calm wire must
        // converge on the first retry.
        ASSERT_TRUE(prefetch_all(rt, heads).is_ok())
            << "batch did not converge after " << batched.to_string();
      }
      EXPECT_EQ(workload::sum_list(heads.b), kOldB);
      EXPECT_EQ(workload::sum_list(heads.c), kOldC);
      EXPECT_EQ(workload::sum_list(heads.d), kOldD);
      EXPECT_EQ(rt.endpoint().inflight(), 0u);
      ASSERT_TRUE(rt.end_session().is_ok());
      EXPECT_EQ(rt.active_sessions(), 0u);
    });
  }
}

}  // namespace
}  // namespace srpc

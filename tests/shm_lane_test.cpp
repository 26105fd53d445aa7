// Zero-copy shm payload lane (PROTOCOL.md "Zero-copy payload lane"):
// arena refcounting, capability negotiation (mixed-arch retraction, per-
// runtime kill switch), exhaustion fallback to the XDR byte lane, fault-
// injected pin release (drops, partitions, crashes, corruption), and the
// move-only send path.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/byte_buffer.hpp"
#include "core/smart_rpc.hpp"
#include "net/fault_transport.hpp"
#include "net/shm_arena.hpp"
#include "types/arch.hpp"
#include "workload/list.hpp"

namespace srpc {
namespace {

using workload::ListNode;

// --- arena unit tests ------------------------------------------------------

std::vector<std::uint8_t> some_bytes(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

TEST(ShmArenaTest, PublishPinsAndLastViewReleases) {
  ShmArena arena(1 << 20);
  auto view = arena.publish(some_bytes(100, 0xAB));
  ASSERT_TRUE(view.is_ok());
  EXPECT_EQ(view.value().len, 100u);
  EXPECT_EQ(view.value().bytes()[0], 0xAB);
  EXPECT_EQ(arena.stats().regions_live, 1u);
  EXPECT_EQ(arena.stats().bytes_live, 100u);

  {
    PayloadView copy = view.value();  // second pin
    view.value().reset();
    EXPECT_EQ(arena.stats().regions_live, 1u) << "copy still pins the region";
    EXPECT_EQ(copy.bytes()[99], 0xAB);
  }
  EXPECT_EQ(arena.stats().regions_live, 0u);
  EXPECT_EQ(arena.stats().bytes_live, 0u);
  EXPECT_EQ(arena.stats().regions_released, 1u);
}

TEST(ShmArenaTest, CapacityExhaustionLeavesBytesForFallback) {
  ShmArena arena(64);
  auto big = some_bytes(65, 0x11);
  auto failed = arena.publish(std::move(big));
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  // The vector was not adopted: the caller can still frame it.
  EXPECT_EQ(big.size(), 65u);
  EXPECT_EQ(arena.stats().publish_failures, 1u);
  EXPECT_EQ(arena.stats().regions_live, 0u);

  auto fits = arena.publish(some_bytes(64, 0x22));
  ASSERT_TRUE(fits.is_ok());
}

TEST(ShmArenaTest, StashClaimIsOneShot) {
  ShmArena arena(1 << 20);
  auto view = arena.publish(some_bytes(32, 0x5A));
  ASSERT_TRUE(view.is_ok());
  const std::uint32_t arena_id = view.value().arena_id;

  auto ticket = ShmArena::stash(view.value());
  ASSERT_TRUE(ticket.is_ok());
  view.value().reset();
  EXPECT_EQ(arena.stats().regions_live, 1u) << "stash parks its own pin";

  auto claimed = ShmArena::claim(arena_id, ticket.value());
  ASSERT_TRUE(claimed.is_ok());
  EXPECT_EQ(claimed.value().bytes()[0], 0x5A);
  auto again = ShmArena::claim(arena_id, ticket.value());
  EXPECT_FALSE(again.is_ok()) << "a ticket redeems exactly once";

  claimed.value().reset();
  EXPECT_EQ(arena.stats().regions_live, 0u);
}

// --- world-level fixtures --------------------------------------------------

WorldOptions lane_options(bool shm, bool faults = false) {
  WorldOptions options;
  options.cost = CostModel::zero();
  options.cache.closure_bytes = 0;  // force FETCH traffic through the lane
  options.shm_payload = shm;
  options.fault_injection = faults;
  if (faults) options.timeouts = TimeoutConfig::aggressive();
  return options;
}

// Caller/callee pair running one mutating list workload per call: the
// callee scales the caller-homed list (fetch + dirty + write-back at
// session end), so every payload class crosses the wire.
struct LanePair {
  explicit LanePair(WorldOptions options, bool add_foreign_arch = false)
      : world(options) {
    caller = &world.create_space("caller");
    callee = &world.create_space("callee");
    if (add_foreign_arch) {
      // A single foreign-arch space turns the lane off world-wide.
      world.create_space("legacy", sparc32_arch());
    }
    workload::register_list_type(world).status().check();
    callee
        ->bind("scale_sum",
               [](CallContext&, ListNode* head) -> std::int64_t {
                 workload::scale_list(head, 2);
                 return workload::sum_list(head);
               })
        .check();
    callee
        ->bind("sum",
               [](CallContext&, ListNode* head) -> std::int64_t {
                 return workload::sum_list(head);
               })
        .check();
  }

  std::int64_t run_once(std::uint32_t nodes = 16) {
    return caller->run([&](Runtime& rt) -> std::int64_t {
      auto head = workload::build_list(rt, nodes, [](std::uint32_t i) {
        return static_cast<std::int64_t>(i + 1);
      });
      head.status().check();
      Session session(rt);
      auto sum =
          session.call<std::int64_t>(callee->id(), "scale_sum", head.value());
      sum.status().check();
      session.end().check();
      return sum.value();
    });
  }

  // Read-only variant: the callee fetches and sums but never dirties the
  // list, so no write-back deltas cross the wire. Delta coalescing over the
  // dirty set is not byte-deterministic across worlds in one process, so
  // wire-byte-identity assertions must ride this workload.
  std::int64_t run_sum(std::uint32_t nodes = 16) {
    return caller->run([&](Runtime& rt) -> std::int64_t {
      auto head = workload::build_list(rt, nodes, [](std::uint32_t i) {
        return static_cast<std::int64_t>(i + 1);
      });
      head.status().check();
      Session session(rt);
      auto sum = session.call<std::int64_t>(callee->id(), "sum", head.value());
      sum.status().check();
      session.end().check();
      return sum.value();
    });
  }

  std::uint64_t published() {
    std::uint64_t n = 0;
    for (AddressSpace* s : {caller, callee}) {
      n += s->run([](Runtime& rt) { return rt.stats().shm_payloads_published; });
    }
    return n;
  }

  std::uint64_t fallbacks() {
    std::uint64_t n = 0;
    for (AddressSpace* s : {caller, callee}) {
      n += s->run([](Runtime& rt) { return rt.stats().shm_publish_fallbacks; });
    }
    return n;
  }

  World world;
  AddressSpace* caller = nullptr;
  AddressSpace* callee = nullptr;
};

std::int64_t expected_sum(std::uint32_t nodes) {
  std::int64_t sum = 0;
  for (std::uint32_t i = 1; i <= nodes; ++i) sum += 2 * static_cast<std::int64_t>(i);
  return sum;
}

// Under aggressive timeouts a retransmit-duplicated reply can still sit in a
// worker's mailbox (pin held) at the instant the caller's run() returns; the
// pin releases as soon as that worker drains it. Poll briefly so quiescence
// assertions measure the steady state, not the race window.
ShmArenaStats settled_stats(World& world) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  ShmArenaStats stats = world.shm_arena()->stats();
  while (stats.regions_live != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = world.shm_arena()->stats();
  }
  return stats;
}

// --- lane behaviour --------------------------------------------------------

TEST(ShmLaneTest, RoundtripElevatesPayloadsAndReleasesEveryRegion) {
  LanePair lane(lane_options(/*shm=*/true));
  EXPECT_EQ(lane.run_once(), expected_sum(16));
  EXPECT_GT(lane.published(), 0u) << "no payload rode the arena";
  EXPECT_EQ(lane.fallbacks(), 0u);
  const ShmArenaStats stats = settled_stats(lane.world);
  EXPECT_GT(stats.regions_published, 0u);
  EXPECT_EQ(stats.regions_live, 0u) << "pins leaked after quiesce";
  EXPECT_EQ(stats.bytes_live, 0u);
}

// Capability-mismatch matrix: every combination of per-runtime kill switch
// states computes the same result on both workloads, and a fully disabled
// pair never touches the arena — every frame is legacy-encoded. (Frame-level
// byte identity of the byte lane is pinned exactly in net_test's WireFrames
// suite; absolute wire totals are not comparable across worlds in one
// process because fetch traffic spans pages address-dependently.)
TEST(ShmLaneTest, KillSwitchMatrixStaysCorrectAndOffTheArena) {
  LanePair legacy(lane_options(/*shm=*/false));
  const std::int64_t want = legacy.run_sum();
  EXPECT_EQ(want, 16 * 17 / 2);

  for (const bool caller_on : {false, true}) {
    for (const bool callee_on : {false, true}) {
      LanePair lane(lane_options(/*shm=*/true));
      lane.caller->run([&](Runtime& rt) {
        rt.set_shm_payload(caller_on);
        return 0;
      });
      lane.callee->run([&](Runtime& rt) {
        rt.set_shm_payload(callee_on);
        return 0;
      });
      EXPECT_EQ(lane.run_sum(), want)
          << "caller_on=" << caller_on << " callee_on=" << callee_on;
      // The mutating workload must stay correct under every switch combo.
      EXPECT_EQ(lane.run_once(), expected_sum(16))
          << "caller_on=" << caller_on << " callee_on=" << callee_on;
      EXPECT_EQ(settled_stats(lane.world).regions_live, 0u);
      if (!caller_on && !callee_on) {
        EXPECT_EQ(lane.published(), 0u)
            << "a disabled pair elevated a payload";
        EXPECT_EQ(lane.world.shm_arena()->stats().regions_published, 0u);
      } else {
        EXPECT_GT(lane.published(), 0u);
      }
    }
  }
}

// A shm-capable space talking in a world with a legacy (foreign-arch) peer:
// the capability is retracted world-wide, so no payload is ever elevated —
// every frame a legacy decoder might see is byte-lane encoded.
TEST(ShmLaneTest, MixedArchWorldRetractsCapability) {
  LanePair legacy(lane_options(/*shm=*/false), /*add_foreign_arch=*/true);
  const std::int64_t want = legacy.run_sum();

  LanePair lane(lane_options(/*shm=*/true), /*add_foreign_arch=*/true);
  EXPECT_EQ(lane.run_sum(), want);
  EXPECT_EQ(lane.run_once(), expected_sum(16));
  EXPECT_EQ(lane.published(), 0u) << "foreign arch must retract the capability";
  EXPECT_EQ(lane.world.shm_arena()->stats().regions_published, 0u);
}

TEST(ShmLaneTest, ArenaExhaustionFallsBackToByteLaneWithoutError) {
  WorldOptions options = lane_options(/*shm=*/true);
  options.shm_arena_bytes = 64;  // smaller than any fetch-reply payload here
  LanePair lane(options);
  EXPECT_EQ(lane.run_once(), expected_sum(16));
  EXPECT_GT(lane.fallbacks(), 0u) << "nothing hit the capacity limit";
  const ShmArenaStats stats = lane.world.shm_arena()->stats();
  EXPECT_GT(stats.publish_failures, 0u);
  EXPECT_EQ(stats.regions_live, 0u);
}

// --- fault injection -------------------------------------------------------

TEST(ShmLaneTest, DroppedRepliesRetransmitAndReleasePins) {
  LanePair lane(lane_options(/*shm=*/true, /*faults=*/true));
  // Lose one fetch reply: the fetch retransmits (idempotent) and the
  // dropped message's view must release its region on destruction.
  lane.world.fault()->drop_next(MessageType::kFetchReply, 1);
  EXPECT_EQ(lane.run_once(), expected_sum(16));
  lane.world.fault()->disarm();
  const ShmArenaStats stats = settled_stats(lane.world);
  EXPECT_EQ(stats.regions_live, 0u) << "dropped in-flight view leaked its pin";
}

TEST(ShmLaneTest, PartitionAbortsCallAndReleasesPins) {
  LanePair lane(lane_options(/*shm=*/true, /*faults=*/true));
  EXPECT_EQ(lane.run_once(), expected_sum(16));  // warm contact state

  lane.world.fault()->partition(lane.callee->id());
  lane.caller->run([&](Runtime& rt) {
    auto head = workload::build_list(rt, 4, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i);
    });
    head.status().check();
    Session session(rt);
    auto sum =
        session.call<std::int64_t>(lane.callee->id(), "scale_sum", head.value());
    EXPECT_FALSE(sum.is_ok()) << "call across a partition must fail";
    (void)session.end();  // best effort: invalidates are cut too
    return 0;
  });
  lane.world.fault()->heal_all();

  // No recovery call here: enough timeouts during the partition may drive
  // the failure detector to a (terminal, by design) dead verdict for the
  // callee. The lane-level guarantee under test is only that elevated views
  // cut off by the partition release their pins.
  const ShmArenaStats stats = settled_stats(lane.world);
  EXPECT_EQ(stats.regions_live, 0u)
      << "views elevated into the partition leaked their pins";
}

TEST(ShmLaneTest, CrashWithInFlightViewsDoesNotLeakRegions) {
  LanePair lane(lane_options(/*shm=*/true, /*faults=*/true));
  EXPECT_EQ(lane.run_once(), expected_sum(16));

  lane.caller->run([&](Runtime& rt) {
    auto head = workload::build_list(rt, 4, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i);
    });
    head.status().check();
    rt.begin_session().status().check();
    // The call succeeds and leaves dirty cached data + a staged write-back
    // target on the callee; the crash lands before session end.
    auto sum = typed_call<std::int64_t>(rt, lane.callee->id(), "scale_sum",
                                        head.value());
    sum.status().check();
    return 0;
  });
  lane.world.crash_space(lane.callee->id());
  // Session cleanup runs on the caller's worker; a subsequent run() call
  // barriers behind it.
  lane.caller->run([](Runtime& rt) {
    (void)rt.end_session();
    return 0;
  });
  const ShmArenaStats stats = settled_stats(lane.world);
  EXPECT_EQ(stats.regions_live, 0u)
      << "crash left staged/in-flight views pinned";
}

TEST(ShmLaneTest, CorruptionDowngradesViewWithoutScribblingArena) {
  LanePair lane(lane_options(/*shm=*/true, /*faults=*/true));
  lane.world.fault()->corrupt_next(MessageType::kCall, 1);
  lane.caller->run([&](Runtime& rt) {
    auto head = workload::build_list(rt, 4, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i + 1);
    });
    head.status().check();
    Session session(rt);
    auto sum =
        session.call<std::int64_t>(lane.callee->id(), "scale_sum", head.value());
    EXPECT_FALSE(sum.is_ok()) << "corrupted call must not decode";
    (void)session.end();
    return 0;
  });
  const FaultStats faults = lane.world.fault()->stats();
  EXPECT_EQ(faults.corrupted, 1u);
  EXPECT_EQ(faults.shm_downgrades, 1u)
      << "the view must be privatised before the bytes are damaged";
  lane.world.fault()->disarm();

  // The arena region itself was never scribbled and the lane still works.
  EXPECT_EQ(lane.run_once(), expected_sum(16));
  EXPECT_EQ(settled_stats(lane.world).regions_live, 0u);
}

// --- move-only send path ---------------------------------------------------

// A non-idempotent scalar call makes zero deep copies of owned payload
// bytes end to end: issue, SimNetwork, mailbox, dispatch, and the reply all
// move the one buffer (idempotent requests deliberately keep one
// retransmittable copy, and fault duplication copies by design — neither is
// on this path).
TEST(ShmLaneTest, ScalarCallSendPathMakesNoOwnedPayloadCopies) {
  WorldOptions options;
  options.cost = CostModel::zero();
  World world(options);
  AddressSpace& caller = world.create_space("caller");
  AddressSpace& callee = world.create_space("callee");
  callee
      .bind("echo",
            [](CallContext&, std::int64_t v) -> std::int64_t { return v; })
      .check();

  caller.run([&](Runtime& rt) {
    Session session(rt);
    const std::uint64_t before = ByteBuffer::owned_copy_count();
    auto v = session.call<std::int64_t>(callee.id(), "echo", std::int64_t{41});
    v.status().check();
    EXPECT_EQ(v.value(), 41);
    EXPECT_EQ(ByteBuffer::owned_copy_count() - before, 0u)
        << "the send path deep-copied an owned payload";
    session.end().check();
    return 0;
  });
}

// Same assertion on the shm lane with fetch traffic: fetches are idempotent
// (so the endpoint keeps a retransmittable original), but by the time the
// pending slot copies the message its payload has been elevated into the
// arena — the copy is a descriptor + refcount bump, not bytes.
TEST(ShmLaneTest, ShmLaneFetchPathMakesNoOwnedPayloadCopies) {
  LanePair lane(lane_options(/*shm=*/true));
  const std::uint64_t before = ByteBuffer::owned_copy_count();
  EXPECT_EQ(lane.run_once(), expected_sum(16));
  EXPECT_EQ(ByteBuffer::owned_copy_count() - before, 0u)
      << "the shm lane deep-copied a payload somewhere";
}

// --- real frames -----------------------------------------------------------

// Over AF_UNIX sockets the frame carries the 20-byte descriptor; the hub
// re-stashes on switch and the receiver claims the pin back out of the
// process-wide registry.
TEST(ShmLaneTest, SocketFramesCarryDescriptorsAndReleasePins) {
  WorldOptions options;
  options.transport = TransportKind::kSockets;
  options.shm_payload = true;
  options.cache.closure_bytes = 0;
  World world(options);
  AddressSpace& caller = world.create_space("caller");
  AddressSpace& callee = world.create_space("callee");
  workload::register_list_type(world).status().check();
  callee
      .bind("scale_sum",
            [](CallContext&, ListNode* head) -> std::int64_t {
              workload::scale_list(head, 2);
              return workload::sum_list(head);
            })
      .check();
  world.start().check();

  const std::int64_t sum = caller.run([&](Runtime& rt) -> std::int64_t {
    auto head = workload::build_list(rt, 16, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i + 1);
    });
    head.status().check();
    Session session(rt);
    auto v = session.call<std::int64_t>(callee.id(), "scale_sum", head.value());
    v.status().check();
    session.end().check();
    return v.value();
  });
  EXPECT_EQ(sum, expected_sum(16));

  std::uint64_t published = 0;
  for (AddressSpace* s : {&caller, &callee}) {
    published +=
        s->run([](Runtime& rt) { return rt.stats().shm_payloads_published; });
  }
  EXPECT_GT(published, 0u) << "no payload rode the arena over the sockets";
  const ShmArenaStats stats = settled_stats(world);
  EXPECT_EQ(stats.regions_live, 0u) << "stashed frame pins leaked";
  EXPECT_EQ(stats.stashed_inflight, 0u);
}

}  // namespace
}  // namespace srpc

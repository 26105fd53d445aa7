// Observability beyond "record everything": the flight recorder's bounded
// ring and its automatic dump triggers (crash, incarnation fence, SLO
// breach), the SLO engine's error budgets, critical-path attribution over
// the span tree, and the aggregated health snapshot. The chaos test is the
// acceptance bar: a recovery-style kill must leave behind a black box whose
// event sequence shows the injected fault, the fence, and the rejoin.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/smart_rpc.hpp"
#include "net/fault_transport.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "workload/list.hpp"

namespace srpc {
namespace {

using workload::ListNode;

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

// --- metric cardinality ------------------------------------------------------

std::size_t series_count(World& world) {
  std::size_t n = 0;
  for (SpaceId id = 0; id < world.space_count(); ++id) {
    n += world.space(id).run([](Runtime& rt) {
      return rt.metrics().counters().size() + rt.metrics().gauges().size() +
             rt.metrics().histograms().size();
    });
  }
  return n;
}

TEST(MetricCardinalityTest, SeriesCountDoesNotGrowWithSessions) {
  for (const bool multi : {false, true}) {
    WorldOptions options;
    options.cost = CostModel::zero();
    options.multi_session = multi;
    World world(options);
    auto& home = world.create_space("home");
    auto& ground = world.create_space("ground");
    workload::register_list_type(world).status().check();
    ListNode* head = home.run([](Runtime& rt) {
      return workload::build_list(rt, 3, [](std::uint32_t i) {
               return static_cast<std::int64_t>(i);
             }).value();
    });
    home.bind("list", [head](CallContext&) -> ListNode* { return head; }).check();
    auto sessions = [&](int n) {
      ground.run([&](Runtime& rt) {
        for (int i = 0; i < n; ++i) {
          Session session(rt);
          auto list = session.call<ListNode*>(home.id(), "list");
          list.status().check();
          list.value()->value += 1;
          session.end().check();
        }
      });
    };
    sessions(10);
    const std::size_t after_10 = series_count(world);
    sessions(190);
    EXPECT_EQ(series_count(world), after_10) << (multi ? "multi" : "single") << "-session";
  }
}

// --- flight-recorder ring ---------------------------------------------------

TEST(FlightRecorderTest, RingWrapsKeepingNewestOldestFirst) {
  FlightRecorder fr(SpaceId{0}, "t", /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    fr.event(FlightEventKind::kCheckpoint, /*ts_ns=*/100 + i,
             kInvalidSpaceId, "tick", /*arg=*/i);
  }
  EXPECT_EQ(fr.capacity(), 4u);
  EXPECT_EQ(fr.total_recorded(), 10u);
  const std::vector<FlightEvent> events = fr.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Events 6..9 survive, rendered oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].arg, 6 + i);
    EXPECT_EQ(events[i].ts_ns, 106u + static_cast<std::uint64_t>(i));
  }
}

// Session aborts record no note: the empty view (null data()) must be
// stored as an empty string and rendered like any other event.
TEST(FlightRecorderTest, EmptyNoteRecordsAndRenders) {
  FlightRecorder fr(SpaceId{0}, "t", /*capacity=*/4);
  fr.event(FlightEventKind::kSessionAbort, /*ts_ns=*/5, kInvalidSpaceId, {},
           /*arg=*/0, /*session=*/9);
  fr.event(FlightEventKind::kSessionAbort, /*ts_ns=*/6, kInvalidSpaceId,
           std::string_view(), /*arg=*/0, /*session=*/10);
  const std::vector<FlightEvent> events = fr.snapshot();
  ASSERT_EQ(events.size(), 2u);
  for (const FlightEvent& e : events) EXPECT_STREQ(e.note, "");
  EXPECT_EQ(events[1].session, 10u);
  EXPECT_TRUE(contains(fr.dump("unit", /*now_ns=*/7), "SESSION_ABORT"));
}

TEST(FlightRecorderTest, DumpRendersRingAndFeedsSink) {
  FlightRecorder fr(SpaceId{3}, "black-box", /*capacity=*/8);
  fr.frame(FlightEventKind::kFrameSend, 10, /*msg_type=*/1, SpaceId{1},
           /*session=*/7, /*seq=*/42);
  fr.event(FlightEventKind::kDetector, 20, SpaceId{1}, "probe miss");

  SpaceId sink_space = kInvalidSpaceId;
  std::string sink_reason;
  std::string sink_json;
  fr.set_dump_sink([&](SpaceId s, std::string_view reason, std::string json) {
    sink_space = s;
    sink_reason = std::string(reason);
    sink_json = std::move(json);
  });

  const std::string json = fr.dump("unit", /*now_ns=*/30);
  EXPECT_EQ(fr.dump_count(), 1u);
  EXPECT_EQ(sink_space, SpaceId{3});
  EXPECT_EQ(sink_reason, "unit");
  EXPECT_EQ(sink_json, json);
  EXPECT_TRUE(contains(json, "\"reason\": \"unit\""));
  EXPECT_TRUE(contains(json, "\"name\": \"black-box\""));
  EXPECT_TRUE(contains(json, "FRAME_SEND"));
  EXPECT_TRUE(contains(json, "DETECTOR"));
  EXPECT_TRUE(contains(json, "probe miss"));
  EXPECT_TRUE(contains(json, "\"seq\": 42"));
  EXPECT_EQ(fr.last_dump(), json);
}

// --- histogram percentile fix -----------------------------------------------

TEST(HistogramPercentileTest, TailClampsToObservedRange) {
  Histogram h;
  h.record(70);  // lands in bucket [64, 127]
  // Before the clamp fix, interpolation inside the bucket reported ~95 for
  // any quantile; one observation of 70 must report 70 at every quantile.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 70.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 70.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.999), 70.0);

  MetricsRegistry registry;
  Histogram& spread = registry.histogram("spread");
  for (std::uint64_t v = 1; v <= 1000; ++v) spread.record(v);
  EXPECT_LE(spread.percentile(0.999), 1000.0);
  EXPECT_GE(spread.percentile(0.999), spread.percentile(0.99));
  EXPECT_TRUE(contains(registry.to_json(), "\"p999\""));
}

// --- SLO engine --------------------------------------------------------------

TEST(SloEngineTest, BurnRateBreachesOnceWithEnoughSamples) {
  SloConfig config;
  config.objectives.push_back(
      {"FETCH", /*threshold_ns=*/100, /*target=*/0.5, /*window=*/8,
       /*breach_burn=*/1.5});
  SloEngine engine;
  engine.configure(config);
  ASSERT_TRUE(engine.enabled());

  EXPECT_FALSE(engine.observe("CALL", 1).tracked);  // no objective -> ignored

  int breach_edges = 0;
  for (int i = 0; i < 8; ++i) {
    const SloObservation obs = engine.observe("FETCH", /*latency_ns=*/1000);
    EXPECT_TRUE(obs.tracked);
    EXPECT_TRUE(obs.violated);
    if (obs.breach_edge) ++breach_edges;
  }
  // All 8 samples violate: burn = 1/(1-0.5) = 2 >= 1.5, and the edge fires
  // exactly once (at the minimum sample count), not on every sample.
  EXPECT_EQ(breach_edges, 1);
  EXPECT_EQ(engine.total_violations(), 8u);
  const auto stats = engine.stats();
  ASSERT_EQ(stats.count("FETCH"), 1u);
  EXPECT_TRUE(stats.at("FETCH").in_breach);
  EXPECT_DOUBLE_EQ(stats.at("FETCH").budget_remaining, 0.0);
  EXPECT_TRUE(contains(engine.to_json(), "\"in_breach\": true"));

  // Recovery: fast samples push the violations out of the window.
  for (int i = 0; i < 8; ++i) engine.observe("FETCH", 1);
  EXPECT_FALSE(engine.stats().at("FETCH").in_breach);
}

// --- chaos: crash dump, fence dump, rejoin in the black box ------------------

class ObsChaosTest : public ::testing::Test {
 protected:
  static constexpr SpaceId kA = 0;
  static constexpr SpaceId kB = 1;

  ObsChaosTest() {
    WorldOptions options;
    options.cost = CostModel::zero();
    options.cache.closure_bytes = 0;
    options.fault_injection = true;
    options.timeouts = TimeoutConfig::aggressive();
    options.recovery = true;
    world_ = std::make_unique<World>(options);
    a_ = &world_->create_space("A");
    b_ = &world_->create_space("B");
    workload::register_list_type(*world_).status().check();
    rebind_b();
    b_->run([this](Runtime& rt) {
      auto head = workload::build_list(rt, 3, [](std::uint32_t i) {
        return static_cast<std::int64_t>(10 + i);
      });
      head.status().check();
      head_b_ = head.value();
      rt.checkpoint_now();
    });
    fault_ = world_->fault();
  }

  ~ObsChaosTest() override {
    if (fault_ != nullptr) fault_->disarm();
  }

  void rebind_b() {
    b_->bind("headB", [this](CallContext&) -> ListNode* { return head_b_; })
        .check();
  }

  static bool has_dump(const std::vector<World::FlightDump>& dumps,
                       SpaceId space, const std::string& reason) {
    for (const auto& d : dumps) {
      if (d.space == space && d.reason == reason) return true;
    }
    return false;
  }

  std::unique_ptr<World> world_;
  AddressSpace* a_ = nullptr;
  AddressSpace* b_ = nullptr;
  FaultTransport* fault_ = nullptr;
  ListNode* head_b_ = nullptr;
};

TEST_F(ObsChaosTest, CrashSpaceArchivesBlackBoxWithPreCrashTraffic) {
  a_->run([&](Runtime& rt) {
    Session session(rt);
    auto hb = typed_call<ListNode*>(rt, kB, "headB");
    ASSERT_TRUE(hb.is_ok()) << hb.status().to_string();
    ASSERT_TRUE(session.end().is_ok());
  });

  world_->crash_space(kB);

  const auto dumps = world_->flight_dumps();
  ASSERT_TRUE(has_dump(dumps, kB, "crash_space"));
  for (const auto& d : dumps) {
    if (d.space != kB || d.reason != "crash_space") continue;
    // The black box holds the served call's frames and the crash marker.
    EXPECT_TRUE(contains(d.json, "FRAME_RECV")) << d.json;
    EXPECT_TRUE(contains(d.json, "FRAME_SEND")) << d.json;
    EXPECT_TRUE(contains(d.json, "CRASH")) << d.json;
    EXPECT_TRUE(contains(d.json, "\"reason\": \"crash_space\""));
  }
}

TEST_F(ObsChaosTest, FenceDumpShowsFaultFenceAndRejoin) {
  // Injected fault: park every FETCH_REPLY on the wire. A's fetch retries
  // (RETRANSMIT events) and times out; the replies stay held across B's
  // death, stamped with incarnation 1.
  a_->run([&](Runtime& rt) {
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto hb = typed_call<ListNode*>(rt, kB, "headB");
    ASSERT_TRUE(hb.is_ok()) << hb.status().to_string();
    FaultOptions opts;
    opts.delay = 1.0;
    opts.delay_window = 100000;
    fault_->target({MessageType::kFetchReply});
    fault_->arm(opts);
    auto fetched = rt.prefetch(hb.value(), 1 << 16);
    ASSERT_FALSE(fetched.is_ok());
  });
  world_->crash_space(kB);
  a_->run([](Runtime& rt) { ASSERT_TRUE(rt.abort_session().is_ok()); });
  ASSERT_TRUE(world_->restart_space(kB).is_ok());
  rebind_b();

  // Release incarnation 1's parked replies into a world on incarnation 2:
  // A fences them, and the first fence per {peer, incarnation} dumps A's
  // ring — which by now also holds the retransmits and the served REJOIN.
  fault_->disarm();
  a_->run([&](Runtime& rt) {
    EXPECT_GT(rt.stats().fenced_stale_messages, 0u);
  });

  const auto dumps = world_->flight_dumps();
  ASSERT_TRUE(has_dump(dumps, kA, "incarnation_fence"));
  bool checked = false;
  for (const auto& d : dumps) {
    if (d.space != kA || d.reason != "incarnation_fence") continue;
    checked = true;
    EXPECT_TRUE(contains(d.json, "RETRANSMIT")) << d.json;  // injected fault
    EXPECT_TRUE(contains(d.json, "FENCE")) << d.json;       // stale frame
    EXPECT_TRUE(contains(d.json, "REJOIN")) << d.json;      // B came back
  }
  EXPECT_TRUE(checked);
  // Rate limit: flooding more stale frames must not re-dump for the same
  // {peer, incarnation}.
  const std::size_t dump_count = dumps.size();
  EXPECT_EQ(world_->flight_dumps().size(), dump_count);
}

// --- SLO breach dump + bench counters ---------------------------------------

TEST(SloBreachTest, TightObjectiveCountsViolationsAndDumpsRing) {
  WorldOptions options;
  options.cost = CostModel::sparc_ethernet();  // real virtual-ns latencies
  options.cache.closure_bytes = 0;
  // 1 ns threshold: every FETCH violates; tiny window so the breach edge
  // fires within one prefetch's worth of samples.
  options.slo.objectives.push_back(
      {"FETCH", /*threshold_ns=*/1, /*target=*/0.5, /*window=*/8,
       /*breach_burn=*/1.5});
  World world(options);
  AddressSpace& ground = world.create_space("ground");
  AddressSpace& home = world.create_space("home");
  workload::register_list_type(world).status().check();
  ListNode* head = nullptr;
  home.run([&](Runtime& rt) {
    auto h = workload::build_list(rt, 32, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i);
    });
    h.status().check();
    head = h.value();
  });
  home.bind("head", [&](CallContext&) -> ListNode* { return head; }).check();

  ground.run([&](Runtime& rt) {
    Session session(rt);
    auto h = typed_call<ListNode*>(rt, SpaceId{1}, "head");
    ASSERT_TRUE(h.is_ok()) << h.status().to_string();
    // Walk the list uncached: each hop is one FETCH roundtrip, each over
    // threshold.
    std::int64_t sum = 0;
    for (ListNode* n = h.value(); n != nullptr; n = n->next) sum += n->value;
    EXPECT_GT(sum, 0);
    ASSERT_TRUE(session.end().is_ok());

    const auto& counters = rt.metrics().counters();
    const auto violations = counters.find("slo.violations{FETCH}");
    ASSERT_NE(violations, counters.end());
    EXPECT_GE(violations->second.value, 8u);
    EXPECT_NE(counters.find("slo.breaches{FETCH}"), counters.end());
    EXPECT_GE(rt.telemetry().flight().dump_count(), 1u);
  });

  const auto dumps = world.flight_dumps();
  bool saw_breach_dump = false;
  for (const auto& d : dumps) {
    if (d.reason != "slo_breach") continue;
    saw_breach_dump = true;
    EXPECT_TRUE(contains(d.json, "SLO_BREACH")) << d.json;
    EXPECT_TRUE(contains(d.json, "FETCH"));
  }
  EXPECT_TRUE(saw_breach_dump);
}

// --- critical path over a pipelined fan-out ----------------------------------

TEST(CriticalPathTest, AttributionSumsExactlyOnPipelinedFanout) {
  WorldOptions options;
  CostModel cost = CostModel::sparc_ethernet();
  cost.per_message_ns = 1'000'000;  // 1 ms links: network dominates
  options.cost = cost;
  options.cache.closure_bytes = 0;
  options.tracing = true;
  World world(options);
  AddressSpace& ground = world.create_space("ground");
  constexpr std::uint32_t kHomes = 4;
  for (std::uint32_t h = 0; h < kHomes; ++h) {
    AddressSpace& home = world.create_space("home" + std::to_string(h + 1));
    home.bind("echo",
              [](CallContext&, std::int64_t v) -> std::int64_t { return v; })
        .check();
  }

  const SessionId sid = ground.run([&](Runtime& rt) {
    Session session(rt);
    const SessionId id = session.id();
    std::vector<TypedCallFuture<std::int64_t>> futures;
    for (std::uint32_t d = 0; d < kHomes; ++d) {
      auto fut = session.call_async<std::int64_t>(
          static_cast<SpaceId>(d + 1), "echo", static_cast<std::int64_t>(d));
      fut.status().check();
      futures.push_back(std::move(fut.value()));
    }
    for (auto& fut : futures) {
      auto got = fut.get();
      got.status().check();
    }
    session.end().check();
    return id;
  });

  CriticalPathAnalyzer analyzer(world.collect_spans());
  auto result = analyzer.analyze_session(sid);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const CriticalPathBreakdown& bd = result.value();

  // The sweep charges every instant of the root window to exactly one
  // component, so the five components sum to the measured total — the
  // "within 5%" acceptance bar holds with equality.
  EXPECT_EQ(bd.network_ns + bd.execution_ns + bd.lock_wait_ns +
                bd.retransmit_ns + bd.local_ns,
            bd.total_ns);
  EXPECT_EQ(bd.attributed_ns(),
            bd.network_ns + bd.execution_ns + bd.lock_wait_ns +
                bd.retransmit_ns + bd.local_ns);
  EXPECT_GT(bd.total_ns, 0u);
  EXPECT_GT(bd.network_ns, 0u);   // 1 ms per message dwarfs everything
  EXPECT_GT(bd.execution_ns, 0u); // the homes did run the echo bodies
  EXPECT_EQ(bd.retransmit_ns, 0u);  // clean wire
  EXPECT_GT(bd.span_count, kHomes);
  EXPECT_FALSE(bd.hops.empty());
  for (const auto& hop : bd.hops) {
    EXPECT_EQ(hop.network_ns + hop.execution_ns + hop.lock_wait_ns +
                  hop.retransmit_ns,
              hop.total_ns);
  }
  const std::string json = bd.to_json();
  EXPECT_TRUE(contains(json, "\"total_ns\""));
  EXPECT_TRUE(contains(json, "\"hops\""));

  // The pipelined calls overlap, so summing the per-hop windows must
  // exceed the root window — attribution, not double counting.
  std::uint64_t hop_total = 0;
  for (const auto& hop : bd.hops) hop_total += hop.total_ns;
  EXPECT_GT(hop_total, bd.total_ns);
}

// --- aggregated health snapshot ----------------------------------------------

TEST(HealthJsonTest, SnapshotAggregatesDetectorLocksSloAndFlight) {
  WorldOptions options;
  options.cost = CostModel::zero();
  options.cache.closure_bytes = 0;
  World world(options);
  AddressSpace& a = world.create_space("alpha");
  AddressSpace& b = world.create_space("beta");
  b.bind("echo",
         [](CallContext&, std::int64_t v) -> std::int64_t { return v; })
      .check();
  a.run([&](Runtime& rt) {
    Session session(rt);
    auto got = typed_call<std::int64_t>(rt, b.id(), "echo",
                                        static_cast<std::int64_t>(5));
    ASSERT_TRUE(got.is_ok());
    ASSERT_TRUE(session.end().is_ok());
  });

  const std::string health = world.health_json();
  EXPECT_TRUE(contains(health, "\"incarnations\""));
  EXPECT_TRUE(contains(health, "\"spaces\""));
  EXPECT_TRUE(contains(health, "\"alpha\""));
  EXPECT_TRUE(contains(health, "\"beta\""));
  EXPECT_TRUE(contains(health, "\"detector\""));
  EXPECT_TRUE(contains(health, "\"locks\""));
  EXPECT_TRUE(contains(health, "\"dedup_window\""));
  EXPECT_TRUE(contains(health, "\"completion_slots\""));
  EXPECT_TRUE(contains(health, "\"slo\""));
  EXPECT_TRUE(contains(health, "\"flight\""));
  EXPECT_TRUE(contains(health, "ALIVE"));

  world.mark_dead(b.id());
  EXPECT_TRUE(contains(world.health_json(), "DEAD"));
}

}  // namespace
}  // namespace srpc

// World — the distributed environment: shared type name-server, the wire,
// and the set of address spaces.
//
// The World plays the roles the paper assumes around the RPC system: the
// "database that serves as a network name server" for data type specifiers
// (one TypeRegistry shared by all spaces) and the physical network (a
// SimNetwork with the SPARC/Ethernet cost model by default, or a real
// loopback-socket hub).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/address_space.hpp"
#include "net/fault_transport.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "obs/trace_export.hpp"
#include "net/sim_network.hpp"
#include "net/socket_transport.hpp"
#include "types/host_type_map.hpp"
#include "types/type_builder.hpp"

namespace srpc {

enum class TransportKind : std::uint8_t {
  kSimulated,  // in-process delivery, virtual-clock cost model (default)
  kSockets,    // real frames over AF_UNIX socket pairs
};

struct WorldOptions {
  CostModel cost = CostModel::sparc_ethernet();
  CacheOptions cache;  // per space, shared by its sessions (closure, arena, strategy)
  TransportKind transport = TransportKind::kSimulated;
  TimeoutConfig timeouts;  // per-space deadline/retry policy
  // Wraps the wire in a seedable FaultTransport decorator; arm it through
  // World::fault() to inject drop/duplicate/delay (soak and fault tests).
  bool fault_injection = false;
  // Modified sets travel as byte-range deltas where possible (every
  // space's Runtime::set_modified_deltas). Effective only while every space
  // in the world shares one architecture model (delta offsets are positions
  // in the sender's local layout); mixed-arch worlds fall back to full
  // graph payloads automatically.
  bool modified_deltas = true;
  // Record spans from the first message on. Defaults from the SRPC_TRACE
  // environment variable (any non-empty value but "0" enables); flip at
  // runtime with set_tracing(). A message sent while a client span is open
  // carries its trace context, so spans link causally across spaces.
  bool tracing = false;
  // Session wire policy. Both modes keep sessions in the same SessionTable
  // and the same per-space cache; this only picks:
  //   * admission: off, a space begins one session at a time and refuses a
  //     CALL while another session's data sits in its cache; on, any number
  //     run at once;
  //   * arbitration: on, homes note what each session read and arbitrate
  //     conflicting commits (ObjectLockTable + ConflictArbiter, wound-wait)
  //     at WB_PREPARE, whose write manifest this mode adds;
  //   * the invalidation fan-out: off, the whole directory; on, the peers
  //     the session touched, each cascading to its own.
  bool multi_session = false;
  // Zero-copy payload lane: the world owns one ShmArena, so payloads
  // between spaces travel as refcounted arena views (20-byte descriptors on
  // the wire) instead of marshalled bytes. Mixed-arch worlds fall back to
  // the byte lane automatically, exactly like modified_deltas. Off by
  // default: the lane changes wire-byte accounting, so it is opt-in per
  // World.
  bool shm_payload = false;
  std::size_t shm_arena_bytes = 64ULL << 20;  // live-bytes budget of the arena
  // Space reincarnation: every space gets a world-owned RecoveryLog (the
  // in-memory stand-in for NVRAM — it survives the space's crash), an
  // incarnation number carried in every frame, and World::restart_space()
  // brings a crashed space back: replay the log, announce REJOIN, fence
  // stale traffic from the prior life.
  bool recovery = false;
  // Checkpoint the heap into the recovery log every N session settlements
  // (0 = never; replay then walks the whole journal).
  std::uint32_t checkpoint_interval = 0;
  // Per-op-kind latency objectives (obs/slo.hpp). Enabled with the generic
  // SloConfig::defaults() unless objectives are given; violations surface
  // as slo.violations{...} counters and a burn-rate breach dumps the
  // flight recorder.
  SloConfig slo;
  // Capacity of each space's flight-recorder ring (events kept).
  std::size_t flight_events = FlightRecorder::kDefaultCapacity;
  // Directory for automatic flight-recorder dump files; empty defers to
  // the SRPC_FLIGHT_DIR environment variable, and with neither set dumps
  // stay in-memory (World::flight_dumps()).
  std::string flight_dir;
};

class World {
 public:
  explicit World(WorldOptions options = {});
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Creates (and, on the simulated transport, immediately starts) a space.
  // With TransportKind::kSockets create all spaces first, then start().
  AddressSpace& create_space(const std::string& name,
                             const ArchModel& arch = host_arch());

  // Starts deferred spaces and the socket hub. No-op on the simulated
  // transport (spaces start eagerly there).
  Status start();

  [[nodiscard]] TypeRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] LayoutEngine& layouts() noexcept { return layouts_; }
  [[nodiscard]] HostTypeMap& host_types() noexcept { return host_types_; }
  [[nodiscard]] const WorldOptions& options() const noexcept { return options_; }

  [[nodiscard]] AddressSpace& space(SpaceId id) { return *spaces_.at(id); }
  [[nodiscard]] std::size_t space_count() const noexcept { return spaces_.size(); }

  // Fault-injection decorator (null unless options.fault_injection).
  [[nodiscard]] FaultTransport* fault() noexcept { return fault_.get(); }

  // Shared payload arena (null unless options.shm_payload).
  [[nodiscard]] ShmArena* shm_arena() noexcept { return shm_arena_.get(); }

  // Failure-model controls. mark_suspect/mark_dead tell every *other*
  // space's failure detector about `id` (dead is terminal: calls into the
  // space fail fast with SPACE_DEAD, its leases are revoked and the
  // extended_malloc storage it owns on each home is reclaimed).
  // crash_space additionally severs the space from the wire (requires
  // options.fault_injection for the transport cut; the liveness verdict is
  // delivered either way). Simulated transport only for the verdict push —
  // socket worlds rely on the probe path.
  void mark_suspect(SpaceId id);
  void mark_dead(SpaceId id);
  void crash_space(SpaceId id);

  // Restarts a crashed space as its next incarnation (requires
  // options.recovery; simulated transport only): joins the dead worker,
  // lifts the transport cut, replays the space's RecoveryLog into a fresh
  // Runtime, and announces REJOIN to every peer so they flush the prior
  // incarnation's leases and resolve in-doubt prepares against the
  // replayed decision log. Blocks until replay + rejoin complete.
  Status restart_space(SpaceId id);

  // The space's durable log / current incarnation (recovery worlds only;
  // null / 0 otherwise).
  [[nodiscard]] RecoveryLog* recovery_log(SpaceId id) noexcept {
    return id < recovery_logs_.size() ? recovery_logs_[id].get() : nullptr;
  }
  [[nodiscard]] std::uint32_t incarnation(SpaceId id) const noexcept {
    return id < incarnations_.size() ? incarnations_[id] : 0;
  }

  // Simulated-transport observability (null on the socket transport).
  [[nodiscard]] SimNetwork* sim() noexcept { return sim_.get(); }
  [[nodiscard]] double virtual_seconds() const;
  [[nodiscard]] NetworkStats net_stats() const;
  void reset_metering();

  // --- distributed tracing (src/obs) ----------------------------------------

  // Enables/disables span recording on every space (runs on each worker).
  void set_tracing(bool on);

  // Runs every job's `fn(Runtime&)` on its space's worker simultaneously
  // (one feeder thread per job) and joins them all — the harness for
  // concurrent multi-session workloads: each job is typically one ground
  // opening sessions against shared homes.
  using GroundFn = std::function<void(Runtime&)>;
  void run_concurrent(const std::vector<std::pair<AddressSpace*, GroundFn>>& jobs);

  // One JSON document with every space's metrics (Runtime::metrics_json),
  // keyed by space name. No series carries a session label, so the
  // registry stays the same size however many sessions run; per-session
  // detail lives in spans and flight events.
  [[nodiscard]] std::string metrics_json();

  // One JSON health snapshot for the whole world: every space's
  // Runtime::health_json() (detector verdicts, lock contention, dedup and
  // completion-slot occupancy, SLO state) plus current incarnations and
  // shm-arena pressure. Cheap enough to poll.
  [[nodiscard]] std::string health_json();

  // Every flight-recorder dump any space produced (crash, fence, SLO
  // breach, manual), in production order. Archived here so a dump
  // survives its space's death — the black box outlives the aircraft.
  struct FlightDump {
    SpaceId space = kInvalidSpaceId;
    std::string reason;
    std::string json;
  };
  [[nodiscard]] std::vector<FlightDump> flight_dumps() const;

  // Collects every space's spans into one Chrome trace-event / Perfetto
  // JSON file. Call at a quiet point (no in-flight sessions); open spans
  // are exported with zero duration and flagged "open".
  Status merge_traces(const std::string& path);

  // The merged spans themselves (for tests and custom exporters).
  [[nodiscard]] std::vector<SpaceSpans> collect_spans();

  // Describes a host struct; finish with register_type() which also maps
  // the C++ type for the typed stubs.
  template <typename T>
  HostStructBuilder<T> describe(const std::string& name) {
    return HostStructBuilder<T>(registry_, layouts_, name);
  }

  template <typename T>
  Result<TypeId> register_type(HostStructBuilder<T>& builder) {
    auto id = builder.build();
    if (!id) return id.status();
    SRPC_RETURN_IF_ERROR(host_types_.bind<T>(id.value()));
    return id.value();
  }

 private:
  // Per-runtime configuration shared by create_space and restart_space —
  // everything a fresh Runtime (first life or reincarnation) needs before
  // its worker starts.
  void apply_runtime_config(AddressSpace& space);

  WorldOptions options_;
  TypeRegistry registry_;
  LayoutEngine layouts_;
  HostTypeMap host_types_;
  std::unique_ptr<SimNetwork> sim_;
  std::unique_ptr<SocketHub> hub_;
  std::unique_ptr<FaultTransport> fault_;
  std::unique_ptr<ShmArena> shm_arena_;
  std::vector<std::unique_ptr<AddressSpace>> spaces_;
  // True while every space shares the first space's ArchModel; create_space
  // clears it for good when a foreign arch joins. Runtimes read it on every
  // send to gate deltas and the shm lane.
  std::atomic<bool> uniform_arch_{true};
  // Indexed by SpaceId. Logs are world-owned so they survive their space's
  // crash; incarnations start at 1 (0 on the wire means "recovery off").
  std::vector<std::unique_ptr<RecoveryLog>> recovery_logs_;
  std::vector<std::uint32_t> incarnations_;
  // Flight-recorder dump archive; written from worker threads (fence and
  // SLO-breach dumps) as well as World threads (crash_space).
  mutable std::mutex flight_mutex_;
  std::vector<FlightDump> flight_dumps_;
  bool started_ = false;
};

}  // namespace srpc

// Runtime — the smart-RPC engine of one address space.
//
// Ties the substrates together into the paper's system:
//   * conventional RPC (call/return over the endpoint, service registry);
//   * transparent remote pointers (swizzle on receipt via the cache, MMU
//     fault -> fetch -> fill, unswizzle on send via heap + allocation
//     table);
//   * eagerness (closure packer attached to arguments, results, and fetch
//     replies);
//   * the session coherency protocol (modified data set travels on every
//     control transfer; ground write-back + invalidation at session end);
//   * batched remote memory management.
//
// One Runtime runs on one worker thread (see AddressSpace); every method
// here executes on that thread, including re-entrant service while blocked
// in a call and fetches issued from the SIGSEGV handler.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/config.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "concurrency/arbiter.hpp"
#include "concurrency/session_table.hpp"
#include "core/cache_manager.hpp"
#include "core/closure.hpp"
#include "core/failure_detector.hpp"
#include "core/modified_set.hpp"
#include "mem/managed_heap.hpp"
#include "mem/recovery_log.hpp"
#include "mem/remote_allocator.hpp"
#include "net/sim_network.hpp"
#include "obs/telemetry.hpp"
#include "rpc/future.hpp"
#include "rpc/rpc_endpoint.hpp"
#include "rpc/service_registry.hpp"
#include "rpc/wire.hpp"
#include "types/host_type_map.hpp"
#include "types/value_codec.hpp"

namespace srpc {

struct RuntimeStats {
  std::uint64_t calls_sent = 0;
  std::uint64_t calls_served = 0;
  std::uint64_t fetches_served = 0;
  std::uint64_t derefs_served = 0;
  std::uint64_t alloc_batches_served = 0;
  // Failure-handling layer (PROTOCOL.md "Timeouts, retries, and duplicate
  // absorption").
  std::uint64_t stale_replies_absorbed = 0;     // replies for finished requests
  std::uint64_t duplicate_requests_absorbed = 0;  // replayed CALL/ALLOC_BATCH
  std::uint64_t dead_session_rejections = 0;    // traffic from tombstoned sessions
  std::uint64_t sessions_aborted = 0;
  // Delta-encoded modified sets (PROTOCOL.md "MODIFIED_DELTA").
  std::uint64_t modified_bytes_shipped = 0;   // wire bytes of every modified-set
                                              // section this runtime attached
  std::uint64_t delta_bytes_shipped = 0;      // of which delta-format entries
  std::uint64_t deltas_skipped_by_epoch = 0;  // objects omitted because the
                                              // destination already held them
  // Crash-safe session commit & failure containment (PROTOCOL.md "Failure
  // model & two-phase write-back").
  std::uint64_t wb_prepares = 0;          // WB_PREPARE round trips initiated
  std::uint64_t wb_commits = 0;           // WB_COMMIT round trips initiated
  std::uint64_t wb_aborts = 0;            // WB_ABORT rollbacks initiated
  std::uint64_t wb_prepares_served = 0;   // shadow stagings at this home
  std::uint64_t wb_commits_served = 0;    // shadow applications at this home
  std::uint64_t wb_aborts_served = 0;     // shadow discards at this home
  std::uint64_t probes_sent = 0;          // failure-detector pings issued
  std::uint64_t peers_died = 0;           // dead-peer cleanups performed here
  std::uint64_t failfast_rejections = 0;  // requests refused locally: peer dead
  std::uint64_t leases_expired = 0;       // source leases revoked (death/lapse)
  std::uint64_t orphan_bytes_reclaimed = 0;  // extended_malloc storage freed
                                             // after owner death or abort
  std::uint64_t session_teardown_failures = 0;  // ~Session: end AND abort failed
  // Concurrent multi-session runtime (PROTOCOL.md "Concurrent sessions &
  // arbitration").
  std::uint64_t sessions_committed = 0;  // end_session() completions here
  std::uint64_t wb_conflicts = 0;        // WB_PREPAREs we lost (client side)
  // Zero-copy shm payload lane (PROTOCOL.md "Zero-copy payload lane").
  std::uint64_t shm_payloads_published = 0;  // payloads elevated to views
  std::uint64_t shm_publish_fallbacks = 0;   // arena full -> byte lane
  // Space reincarnation (PROTOCOL.md "Incarnations, fencing & rejoin").
  std::uint64_t fenced_stale_messages = 0;  // frames dropped: prior-life traffic
  std::uint64_t rejoins_sent = 0;           // REJOIN announcements issued
  std::uint64_t rejoins_served = 0;         // peer reincarnations applied here
  std::uint64_t recovery_replays = 0;       // log records replayed at startup
  std::uint64_t in_doubt_resolved_commit = 0;  // stale stages rolled forward
  std::uint64_t in_doubt_resolved_abort = 0;   // stale stages rolled back
  std::uint64_t checkpoints_taken = 0;         // heap images appended to the log
};

class Runtime final : public PageFetcher,
                      public LocalDataView,
                      public PointerTranslator {
 public:
  // `sim` may be null (real-socket transport): fault costs then show up as
  // real time instead of virtual time. `directory` lists every space in the
  // world for the session-end invalidation multicast.
  Runtime(SpaceId self, std::string name, const ArchModel& arch,
          TypeRegistry& registry, const LayoutEngine& layouts,
          HostTypeMap& host_types, Transport& transport, SimNetwork* sim,
          CacheOptions cache_options,
          std::function<std::vector<SpaceId>()> directory,
          TimeoutConfig timeouts = {});
  ~Runtime() override = default;
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  Status init();

  // --- identity & services --------------------------------------------------

  [[nodiscard]] SpaceId id() const noexcept { return self_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const ArchModel& arch() const noexcept { return arch_; }
  [[nodiscard]] TypeRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const LayoutEngine& layouts() const noexcept { return layouts_; }
  [[nodiscard]] const ValueCodec& codec() const noexcept { return codec_; }
  [[nodiscard]] HostTypeMap& host_types() noexcept { return host_types_; }
  [[nodiscard]] ManagedHeap& heap() noexcept { return heap_; }
  [[nodiscard]] const ManagedHeap& heap() const noexcept { return heap_; }
  // The space's one cache. Its per-session operations and accessors
  // (table, collect_modified_deltas, incorporate_clean_payload, swizzle)
  // act on the current session, so a reader outside a served call pins the
  // session it inspects (ScopedSession); stats() counts every session.
  [[nodiscard]] CacheManager& cache() noexcept { return cache_; }
  [[nodiscard]] const CacheManager& cache() const noexcept { return cache_; }
  [[nodiscard]] ServiceRegistry& services() noexcept { return services_; }
  [[nodiscard]] Mailbox& mailbox() noexcept { return mailbox_; }
  [[nodiscard]] RpcEndpoint& endpoint() noexcept { return endpoint_; }
  [[nodiscard]] const RuntimeStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept {
    stats_ = RuntimeStats{};
    telemetry_.metrics().reset();
    telemetry_.tracer().clear();
  }

  // --- observability (src/obs) ----------------------------------------------

  [[nodiscard]] Telemetry& telemetry() noexcept { return telemetry_; }
  [[nodiscard]] const Telemetry& telemetry() const noexcept { return telemetry_; }
  [[nodiscard]] SpanRecorder& tracer() noexcept { return telemetry_.tracer(); }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return telemetry_.metrics(); }
  void set_tracing(bool on) noexcept { telemetry_.set_tracing(on); }
  [[nodiscard]] bool tracing() const noexcept { return telemetry_.tracing(); }

  // JSON snapshot of the metrics registry with the legacy RuntimeStats and
  // CacheStats counters folded in, so one export shows everything.
  [[nodiscard]] std::string metrics_json();

  // JSON health snapshot for THIS space: incarnation, failure-detector
  // verdicts, lock-table contention, dedup-window and completion-slot
  // occupancy, in-doubt stages, SLO state, flight-recorder fill.
  // World::health_json() aggregates one per space plus arena pressure.
  [[nodiscard]] std::string health_json();

  // WorldOptions-driven observability config (applied for every life of
  // the space, including reincarnations).
  void configure_slo(const SloConfig& config) {
    telemetry_.slo().configure(config);
  }

  // Deadline/retry policy for every request this runtime initiates.
  [[nodiscard]] const TimeoutConfig& timeouts() const noexcept { return timeouts_; }
  void set_timeouts(const TimeoutConfig& timeouts) noexcept { timeouts_ = timeouts; }

  // Kill switch for delta-encoded modified sets (WorldOptions::modified_deltas
  // sets it for every life of the space; benchmarks ablate with it). Off,
  // every modified object ships as a full graph payload. Flip only between
  // sessions.
  [[nodiscard]] bool modified_deltas() const noexcept {
    return modified_deltas_enabled_;
  }
  void set_modified_deltas(bool on) noexcept { modified_deltas_enabled_ = on; }

  // Deltas and the shm lane ship sender-native layouts, so both need every
  // space in the world to share one ArchModel. The World owns the flag and
  // clears it when a foreign-arch space joins; it is read on every send.
  // Null (no World) counts as mixed.
  void set_uniform_arch(const std::atomic<bool>* flag) noexcept {
    uniform_arch_ = flag;
  }

  // Parallel per-home fan-out at session end: all WB_PREPAREs are issued
  // before any ack is collected, then all WB_COMMITs, then the invalidation
  // multicast — commit latency is the slowest home, not the sum. Off, each
  // round trip completes before the next home is addressed and the first
  // failure stops the phase (fig9's sequential baseline; fault tests use it
  // for deterministic drop placement). Flip only between sessions.
  [[nodiscard]] bool parallel_commit() const noexcept { return parallel_commit_; }
  void set_parallel_commit(bool on) noexcept { parallel_commit_ = on; }

  // --- zero-copy shm payload lane (PROTOCOL.md "Zero-copy payload lane") ----

  // Attaches the world's shared arena and installs the payload elevator on
  // the endpoint's send choke point (every outbound message funnels
  // through it, including retransmits). nullptr detaches. Call before
  // start() — the elevator runs on the worker thread only.
  void set_shm_arena(ShmArena* arena);
  [[nodiscard]] ShmArena* shm_arena() const noexcept { return shm_arena_; }

  // Kill switch over the attached arena: elevation happens only while
  // enabled (default on). Flipping it off mid-run is safe — in-flight
  // views drain normally, new sends take the byte lane.
  void set_shm_payload(bool on) noexcept { shm_payload_enabled_ = on; }
  [[nodiscard]] bool shm_payload_enabled() const noexcept {
    return shm_payload_enabled_;
  }

  // --- failure containment --------------------------------------------------

  // Per-peer liveness verdicts. The detector is thread-safe; World::mark_dead
  // flips the bit from outside the worker, then queues on_peer_dead() for
  // the side effects.
  [[nodiscard]] FailureDetector& detector() noexcept { return detector_; }

  // Containment for one dead peer: revoke its cached pages (leases), drop
  // shadow commits it staged, and reclaim extended_malloc storage it owns.
  // Must run on the worker thread at a safe point (never inside the SIGSEGV
  // fill path) — external callers go through the mailbox task queue.
  void on_peer_dead(SpaceId peer);

  // Lease time-to-live on cached sources, in virtual-clock nanoseconds.
  // 0 (default) disables lapse-based revocation; death-based revocation via
  // on_peer_dead() is always active.
  void set_lease_ttl_ns(std::uint64_t ttl_ns) noexcept { lease_ttl_ns_ = ttl_ns; }
  [[nodiscard]] std::uint64_t lease_ttl_ns() const noexcept { return lease_ttl_ns_; }

  // Drains queued dead-peer cleanups and revokes lapsed leases. Runs
  // automatically at session boundaries and before calls; exposed so tests
  // can force a check at a known point.
  void poll_failures();

  // Called by Session's destructor when end_session() failed AND the
  // abort_session() fallback failed too — the swallowed-status counter.
  void note_session_teardown_failure() noexcept {
    ++stats_.session_teardown_failures;
  }

  // --- crash recovery & reincarnation (PROTOCOL.md "Incarnations, fencing
  // --- & rejoin") ------------------------------------------------------------

  // Attaches the World-owned durable log and this runtime's incarnation
  // number (>= 1; 0 detaches and keeps the legacy wire format). Installs
  // the incarnation stamp and the stale-frame fence on the endpoint and
  // flips the heap into retain-freed mode so logged addresses stay mapped.
  // Call before start().
  void set_recovery(RecoveryLog* log, std::uint32_t incarnation);
  [[nodiscard]] std::uint32_t incarnation() const noexcept { return incarnation_; }
  [[nodiscard]] RecoveryLog* recovery_log() const noexcept { return recovery_; }

  // Rebuilds home-side state from the log: restores the latest heap
  // checkpoint, re-applies subsequent allocations/frees/commits, re-stages
  // in-doubt prepares, and re-installs session tombstones and commit-epoch
  // dedup entries. Runs once, on the successor incarnation's worker,
  // before any traffic is served.
  Status recover_from_log();

  // Announces {incarnation, replayed decision log} to every peer in the
  // directory so they fence the prior life's traffic and resolve any
  // in-doubt stages this space coordinated. Best-effort per peer; the
  // worst failure is returned.
  Status announce_rejoin();

  // Appends a full heap image to the log now, superseding the replay
  // history before it. set_checkpoint_interval(n) additionally takes one
  // automatically every n session settlements (0 = manual only).
  void checkpoint_now();
  void set_checkpoint_interval(std::uint32_t every_n_settles) noexcept {
    checkpoint_interval_ = every_n_settles;
  }

  // --- worker loop ------------------------------------------------------------

  // Serves messages and tasks until the mailbox closes or kShutdown lands.
  void serve_forever();

  // --- sessions (ground thread, paper §3.1/§3.4) -------------------------------

  Result<SessionId> begin_session();
  // Writes the modified data set back to every home, multicasts the
  // invalidation, and drops the local cache. On failure (for example a
  // write-back ack deadline) the session stays open so the caller may
  // retry end_session() or fall back to abort_session(). In multi-session
  // mode a WB_PREPARE may come back CONFLICT (kConflict): the session lost
  // the home-side arbitration; abort it and retry under backoff.
  Status end_session();
  Status end_session(SessionId id);
  // Unilateral teardown after a mid-session failure: best-effort
  // invalidation multicast to the peers (failures logged, never fatal),
  // then drop every cached page, pending overlay, un-flushed memory-op
  // batch, and the modified data set. Always leaves the runtime reusable
  // for a fresh session; idempotent.
  Status abort_session();
  Status abort_session(SessionId id);
  [[nodiscard]] SessionId current_session() const noexcept override {
    return scope_stack_.empty() ? session_ : scope_stack_.back();
  }

  // --- session modes --------------------------------------------------------

  // Wire policy only (see WorldOptions::multi_session): admission,
  // home-side arbitration, and the invalidation fan-out. Off (default): the
  // paper's one-session-at-a-time model, byte-identical on the wire. Flip
  // only while idle (no open sessions).
  void set_multi_session(bool on) noexcept { multi_session_ = on; }
  [[nodiscard]] bool multi_session() const noexcept { return multi_session_; }

  // Sessions this runtime currently tracks (local grounds + served
  // participants), sessionless traffic not counted.
  [[nodiscard]] std::size_t active_sessions() const noexcept {
    return sessions_.size() - (sessions_.find(kNoSession) != nullptr ? 1 : 0);
  }

  [[nodiscard]] ConflictArbiter& arbiter() noexcept { return arbiter_; }
  [[nodiscard]] const ConflictArbiter& arbiter() const noexcept { return arbiter_; }
  [[nodiscard]] const SessionTable& session_table() const noexcept { return sessions_; }

  // Binds the calling scope to one session: every runtime operation until
  // destruction (calls, faults, allocation, spans) is attributed to `id`.
  // This is how one worker thread interleaves many sessions — Session's
  // methods and message dispatch each pin their own id around the work.
  // The tracer's session always follows current_session().
  class ScopedSession {
   public:
    ScopedSession(Runtime& rt, SessionId id) : rt_(rt) {
      rt_.scope_stack_.push_back(id);
      rt_.tracer().set_session(id);
    }
    ~ScopedSession() {
      rt_.scope_stack_.pop_back();
      rt_.tracer().set_session(rt_.current_session());
    }
    ScopedSession(const ScopedSession&) = delete;
    ScopedSession& operator=(const ScopedSession&) = delete;

   private:
    Runtime& rt_;
  };

  // --- calls -------------------------------------------------------------------

  // Raw call: `args` are the marshalled argument bytes; `pointer_roots` are
  // local addresses of pointer arguments (their bounded closure travels
  // eagerly with the call). On success the returned buffer's cursor sits at
  // the marshalled results.
  Result<ByteBuffer> call_raw(SpaceId target, const std::string& proc,
                              ByteBuffer args,
                              std::span<const std::uint64_t> pointer_roots);

  // --- async calls (pipelined RPC) ------------------------------------------

  // One (id, fingerprint) pair per object encoded into an outgoing
  // modified-set section; committed into per-peer ship state only once the
  // transfer is known to have reached `dest` (see commit_shipped).
  struct ShippedRecord {
    LongPointer id;
    std::uint64_t fingerprint = 0;
  };

  // Handle on one in-flight call_async(). get() blocks — pumping the
  // endpoint, so replies for OTHER in-flight requests and incoming service
  // traffic keep flowing — then finalises the reply on the caller's stack
  // (commit shipped state, apply the returned modified set and closures)
  // exactly like the blocking call path. One-shot; dropping an un-got
  // future cancels its completion slot and the late reply is absorbed as
  // stale. Must be collected on the issuing space's worker thread.
  class RawCallFuture {
   public:
    RawCallFuture(RawCallFuture&&) noexcept = default;
    RawCallFuture& operator=(RawCallFuture&&) noexcept = default;
    RawCallFuture(const RawCallFuture&) = delete;
    RawCallFuture& operator=(const RawCallFuture&) = delete;

    [[nodiscard]] bool ready() const noexcept { return fut_.ready(); }
    [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }
    [[nodiscard]] SessionId session() const noexcept { return session_; }

    Result<ByteBuffer> get(std::chrono::steady_clock::time_point deadline =
                               std::chrono::steady_clock::time_point::max());

   private:
    friend class Runtime;
    RawCallFuture(Runtime* rt, SessionId session, SpaceId target,
                  std::uint64_t seq, std::vector<ShippedRecord> shipped,
                  Future<Message> fut)
        : rt_(rt), session_(session), target_(target), seq_(seq),
          shipped_(std::move(shipped)), fut_(std::move(fut)) {}

    Runtime* rt_;
    SessionId session_;
    SpaceId target_;
    std::uint64_t seq_;
    std::vector<ShippedRecord> shipped_;
    Future<Message> fut_;
  };

  // Pipelined call: ships the CALL (with the same travelling modified set
  // and argument closures as call_raw) and returns immediately with a
  // future for the reply. Many calls may be outstanding at once; their
  // replies complete in arrival order. At-most-once semantics are
  // unchanged: a CALL is never retransmitted, and the per-seq completion
  // slot keeps each reply matched to its own request. Note that each call
  // ships the modified set as of ITS issue point — overlapping working
  // sets between calls pipelined to different homes are the caller's
  // responsibility (see PROTOCOL.md "Request multiplexing & pipelining").
  Result<RawCallFuture> call_async(SpaceId target, const std::string& proc,
                                   ByteBuffer args,
                                   std::span<const std::uint64_t> pointer_roots);

  // --- remote memory management (paper §3.5) ------------------------------------

  // Allocates `count` objects of `type` in `home`'s heap; returns a locally
  // usable pointer immediately (the home-side allocation is batched).
  Result<void*> extended_malloc(SpaceId home, TypeId type, std::uint32_t count = 1);

  // Releases data created with extended_malloc (or any cached/home datum);
  // remote releases are batched like allocations.
  Status extended_free(void* p);

  // Flushes pending extended_malloc/extended_free batches now. The typed
  // stubs call this before marshalling pointers (an unswizzled provisional
  // identity must never cross the wire outside an ALLOC_BATCH); it is also
  // implicit on every control transfer.
  Status flush_pending_memory_ops() { return flush_alloc_batches(); }

  // --- fully-lazy baseline support ----------------------------------------------

  // One callback: fetch the value of a remote datum, no caching (paper §2's
  // lazy method). The reply holds the canonical value encoding.
  Result<ByteBuffer> deref_remote(const LongPointer& pointer);

  // Programmer-directed prefetch (paper §6): fetch the data behind a local
  // pointer now, with an explicit closure budget, instead of paying the
  // access violation later. No-op for home data and resident cache.
  Status prefetch(const void* p, std::uint64_t closure_budget);

  // Batched, pipelined prefetch: groups the non-resident pointers by home,
  // ships ONE speculative FETCH frame per home (all homes in parallel —
  // idempotent, so each frame retransmits under its own seq), and
  // incorporates every reply as clean pending data. Later faults on the
  // covered pages fill from the overlay without another network trip.
  // Per-pointer lookup failures are skipped, not errors; the first
  // transport-level failure is returned after every in-flight frame has
  // been settled.
  Status prefetch_many(std::span<const void* const> pointers,
                       std::uint64_t closure_budget);

  // Closure traversal order used when this space packs eager transfers
  // (paper §3.3 uses breadth-first; §6 discusses the shape as open work —
  // bench/ablation_closure_shape measures the alternative).
  void set_closure_order(TraversalOrder order) noexcept { packer_.set_order(order); }

  // --- PointerTranslator ----------------------------------------------------------

  Result<LongPointer> unswizzle(std::uint64_t ordinary, TypeId pointee) override;
  Result<std::uint64_t> swizzle(const LongPointer& pointer, TypeId pointee) override;

  // --- LocalDataView ---------------------------------------------------------------

  Result<DatumView> view_local(std::uint64_t local_addr) const override;

  // --- PageFetcher -------------------------------------------------------------------

  Result<ByteBuffer> fetch(SpaceId home, std::span<const LongPointer> pointers,
                           std::uint64_t closure_budget,
                           SessionId session) override;
  void charge_fault() override;
  Result<std::uint64_t> swizzle_home(const LongPointer& pointer, TypeId pointee) override;
  SessionPages& pages_of(SessionId owner) override { return state_for(owner).pages; }
  [[nodiscard]] const SessionPages* find_pages(SessionId owner) const override {
    const SessionState* st = sessions_.find(owner);
    return st != nullptr ? &st->pages : nullptr;
  }

  // Records that remote activity modified one of OUR home data. Such data
  // stays in the travelling modified set until the session ends — applying
  // it at home is not enough, because other spaces may hold stale cached
  // copies that only the travelling set can refresh (paper §3.4: "the
  // modified data set is passed among the address spaces with the
  // transition of thread activation ... each address space in the session
  // can always see the correct working set"). The heap bytes at the moment
  // of the first note are snapshotted as the datum's delta baseline, so
  // call this *before* applying the incoming value.
  void note_home_update(const LongPointer& id);

 private:
  friend class ScopedSession;

  // --- session state ----------------------------------------------------------

  // The state of `id` (kNoSession included), created on first sight.
  SessionState& state_for(SessionId id) { return sessions_.open(id); }
  // State of the current scope.
  SessionState& cur_state() { return state_for(current_session()); }
  // Ends `id` here: its pages go back to the arena and its state closes.
  // Sessionless data lives until the space next has no session open.
  void close_session(SessionId id);
  // True while a session other than `id` holds cached data or home updates
  // here (single-session admission).
  [[nodiscard]] bool held_by_other_session(SessionId id) const;
  // Lease revocation of `source` across every session's pages.
  std::size_t revoke_source(SpaceId source);

  [[nodiscard]] bool uniform_arch() const noexcept {
    return uniform_arch_ != nullptr && uniform_arch_->load();
  }

  // Send-side shm elevation: in a uniform-arch world, publishes an owned,
  // non-empty payload into the arena and swaps it for a view descriptor;
  // otherwise counts the bytes as copied (rpc.bytes_copied). Installed on
  // RpcEndpoint's payload lane by set_shm_arena().
  void elevate_payload(Message& msg);

  Status dispatch(Message msg);
  // The serve half of dispatch (the main type switch), split out so
  // dispatch can wrap it in a server span parented to the message's
  // TraceContext.
  Status dispatch_serve(Message msg);
  // True when (from, seq) repeats a CALL/ALLOC_BATCH already served — the
  // receiver half of at-most-once execution for non-idempotent requests.
  bool note_duplicate_request(SpaceId from, std::uint64_t seq);
  // Remembers an invalidated session so in-flight stragglers (delayed or
  // replayed messages carrying its id) are refused instead of
  // repopulating the cache after the session is gone.
  void tombstone_session(SessionId session);
  [[nodiscard]] bool is_dead_session(SessionId session) const {
    return session != kNoSession && dead_session_set_.contains(session);
  }
  Status serve_call(Message msg);
  Status serve_fetch(Message msg);
  Status serve_alloc_batch(Message msg);
  Status serve_invalidate(Message msg);
  Status serve_deref(Message msg);
  Status serve_wb_prepare(Message msg);
  Status serve_wb_commit(Message msg);
  Status serve_wb_abort(Message msg);
  Status serve_ping(Message msg);
  Status serve_rejoin(Message msg);

  // Endpoint fence (receive choke point): true drops the frame as a relic
  // of some space's prior incarnation. Learns higher incarnations from
  // passing traffic and queues the implicit-rejoin cleanup.
  bool fence_stale(const Message& msg);

  // Applies one peer reincarnation: fences the old life's incarnation,
  // resolves in-doubt stages it coordinated against `decisions`, flushes
  // its leases/locks/dedup windows, expires in-flight requests addressed
  // to the prior life, and re-opens the failure detector. Idempotent per
  // {peer, incarnation}. `authoritative` is false only for the implicit
  // cleanup triggered by passing traffic (fence_stale): that path has no
  // decision log, so it keeps in-doubt stages staged — a later real REJOIN
  // for the same incarnation is then let through the dedup to resolve them.
  void on_peer_rejoin(SpaceId peer, std::uint32_t incarnation,
                      const std::vector<RecoveryDecision>& decisions,
                      bool authoritative = true);

  // Checkpoint cadence driven by session settlements (serve_invalidate).
  void maybe_checkpoint();

  // The one request path. Issues `msg` guarded by the failure detector:
  // fails fast with SPACE_DEAD when the destination is already declared
  // dead, records the session's touched peer, and attaches the client
  // span's trace context. Telemetry (latency histogram, SLO, span finish,
  // contact + lease touch, failure counting) runs in the slot's completion
  // callback whenever the reply lands, possibly while some other request is
  // being collected — or at once if the request never leaves. A peer that
  // failed with DEADLINE_EXCEEDED/UNAVAILABLE is queued for a probe (kPing,
  // one short attempt, drain_probes) so consecutive misses accumulate into
  // suspicion and, eventually, a death verdict. A `nested` client span is
  // pushed on the span stack, so callbacks served while the caller blocks
  // on the reply parent under it; otherwise it is detached (a concurrent
  // sibling under the issuing scope). When `promise` is non-null the slot is
  // detached and the reply — a remote ERROR decoded into its Status — is
  // delivered through it (futures); otherwise collect the seq with
  // collect_guarded, which decodes a remote ERROR the same way.
  Result<std::uint64_t> issue_guarded(
      Message msg, MessageType reply_type, bool idempotent,
      std::shared_ptr<Promise<Message>> promise = nullptr, bool nested = false);
  Result<Message> collect_guarded(std::uint64_t seq,
                                  const RpcEndpoint::Dispatcher& serve);
  // Blocking round trip: issue_guarded (nested span) + collect_guarded.
  Result<Message> guarded_roundtrip(Message msg, MessageType reply_type,
                                    const RpcEndpoint::Dispatcher& serve,
                                    bool idempotent);

  // One idempotent request per index 0..n-1, built by `make` and settled by
  // `settle`, which sees every outcome — an issue failure, a transport
  // failure, a decoded remote ERROR, or the reply — and returns the status
  // to record. Parallel: every frame is issued before any is settled, and
  // every issued frame is settled (no completion slot may leak). Sequential:
  // each frame is settled before the next is issued, and the first failure
  // stops the fan-out. Returns the first failure recorded.
  using FrameMaker = std::function<Message(std::size_t)>;
  using FrameSettler = std::function<Status(std::size_t, Result<Message>)>;
  Status fan_out(std::size_t n, MessageType reply_type, bool parallel,
                 const RpcEndpoint::Dispatcher& serve, const FrameMaker& make,
                 const FrameSettler& settle);

  // INVALIDATE of `session` (payload: aborted flag) to every peer in
  // `peers` but ourselves, over fan_out. A peer that is (or is found) dead
  // is skipped: its pages were revoked, its orphans reclaimed, and it must
  // not wedge anyone else's teardown. `best_effort` callers (abort, cascade)
  // log each failure and keep going, returning the last one.
  Status invalidate_peers(SessionId session, const std::vector<SpaceId>& peers,
                          bool aborted, bool parallel,
                          const RpcEndpoint::Dispatcher& serve,
                          bool best_effort);

  // A request frame to `to` under a fresh seq, and the reply frame
  // answering `req`.
  Message request(MessageType type, SpaceId to, SessionId session);
  static Message reply_to(const Message& req, MessageType type);

  // The CALL builder and RETURN handler shared by call_raw and call_async:
  // safe point, memory-op flush, travelling modified set, argument
  // closures, marshalled args; then ship-state commit and incorporation of
  // the returned modified set and closures.
  Result<Message> build_call(SpaceId target, const std::string& proc,
                             const ByteBuffer& args,
                             std::span<const std::uint64_t> pointer_roots,
                             std::vector<ShippedRecord>& shipped);
  Result<ByteBuffer> finish_call(SpaceId target,
                                 const std::vector<ShippedRecord>& shipped,
                                 Result<Message> reply);
  // Starts (or refreshes) the lease on a source we just fetched from.
  void renew_lease(SpaceId source);
  // One endpoint pump step on the worker's normal stack (Future::get's
  // drive), followed by the deferred probe drain.
  Status pump_guarded(std::chrono::steady_clock::time_point deadline);
  void probe_peer(SpaceId peer);
  // Probes peers whose async requests failed, at a safe point (never from
  // inside a completion callback).
  void drain_probes();
  [[nodiscard]] std::uint64_t vnow_ns() const noexcept;

  // Ships one FETCH frame per group with every frame in flight at once,
  // then collects the replies (restricted await: the cache is mid-fill).
  // Backing transfer for CacheManager::prefetch_many.
  Result<std::vector<ByteBuffer>> parallel_fetch(
      std::vector<CacheManager::PrefetchGroup>& groups, std::uint64_t closure_budget,
      SessionId session);

  // Flushes pending extended_malloc/extended_free batches to every home
  // (must precede any control transfer: the modified data set cannot be
  // unswizzled while provisional identities are outstanding).
  Status flush_alloc_batches();

  // Appends the modified-set section for `dest` — legacy "count + graph
  // payloads" or, while deltas are on in a uniform-arch world, the
  // MODIFIED_DELTA format. With `write_back` set, only objects homed at
  // `dest` are considered and travelling home updates are excluded.
  // `encoded` (optional) counts the objects actually written; `shipped`
  // (optional) collects the records to commit after a successful transfer.
  Status attach_modified_set(ByteBuffer& out, SpaceId dest,
                             bool write_back = false,
                             std::size_t* encoded = nullptr,
                             std::vector<ShippedRecord>* shipped = nullptr);
  Status attach_closures(ByteBuffer& out, std::span<const std::uint64_t> roots);

  // Records that `dest` now holds the listed content.
  void commit_shipped(SpaceId dest, const std::vector<ShippedRecord>& shipped);

  // Consumes a modified-set section (either format, auto-detected) sent by
  // `from`, then refreshes ship state: `from` knows everything it sent.
  Status apply_modified_set(ByteBuffer& in, SpaceId from);
  Status apply_closures(ByteBuffer& in);

  // Applies one MODIFIED_DELTA entry to the heap (home data) or cache.
  Status apply_delta_entry(const ModifiedDelta& delta);

  // Builds the ModifiedDatum view of a home-heap object (diffed against the
  // session's twin when one exists).
  CacheManager::ModifiedDatum home_modified_datum(
      const SessionState& st, const LongPointer& id,
      const ManagedHeap::Record& record) const;

  // Refreshes an object's ship state after an incoming transfer from
  // `from`: recomputes the fingerprint over our post-application image.
  void observe_incoming(const LongPointer& id, SpaceId from, std::uint64_t epoch);

  // Answers request `req` with an ERROR carrying `error`.
  Status send_error(const Message& req, const Status& error);
  static Status decode_error(Message& msg);

  SpaceId self_;
  std::string name_;
  const ArchModel& arch_;
  TypeRegistry& registry_;
  const LayoutEngine& layouts_;
  ValueCodec codec_;
  HostTypeMap& host_types_;
  SimNetwork* sim_;
  std::function<std::vector<SpaceId>()> directory_;
  const std::atomic<bool>* uniform_arch_ = nullptr;  // owned by the World
  bool modified_deltas_enabled_ = true;
  bool parallel_commit_ = true;

  Mailbox mailbox_;
  RpcEndpoint endpoint_;
  ManagedHeap heap_;
  CacheManager cache_;
  ServiceRegistry services_;
  ClosurePacker packer_;

  RpcEndpoint::Dispatcher full_dispatcher_;
  TimeoutConfig timeouts_;
  Telemetry telemetry_;
  SessionId session_ = kNoSession;  // ambient (ground) session of this space
  std::uint64_t session_counter_ = 0;
  bool running_ = false;
  RuntimeStats stats_;

  // --- zero-copy shm payload lane --------------------------------------------
  ShmArena* shm_arena_ = nullptr;  // owned by the World; null = byte lane only
  bool shm_payload_enabled_ = true;

  // --- sessions ---------------------------------------------------------------
  bool multi_session_ = false;  // wire policy, see set_multi_session()
  // Every session this space takes part in, sessionless traffic included.
  SessionTable sessions_;
  // Home-side session arbitration (object locks + version validation).
  ConflictArbiter arbiter_;
  // Session pins pushed by ScopedSession; top = the session every runtime
  // operation in the current scope belongs to. Empty -> ambient session_.
  std::vector<SessionId> scope_stack_;
  // Request-id dedup for non-idempotent requests, bounded FIFO per peer.
  struct ServedRequests {
    std::unordered_set<std::uint64_t> seen;
    std::deque<std::uint64_t> order;
  };
  std::unordered_map<SpaceId, ServedRequests> served_requests_;
  // Tombstones of invalidated sessions, bounded FIFO.
  std::unordered_set<SessionId> dead_session_set_;
  std::deque<SessionId> dead_session_order_;

  // --- two-phase write-back (home side) ------------------------------------
  // A staged modified set waiting for WB_COMMIT. Keyed by session; the
  // commit epoch disambiguates retried end_session() attempts (a fresh
  // attempt re-prepares under a higher epoch and simply replaces the stale
  // stage). Applied only by serve_wb_commit; dropped by serve_wb_abort and
  // by the session's INVALIDATE.
  struct ShadowCommit {
    std::uint64_t epoch = 0;
    SpaceId from = kInvalidSpaceId;
    ByteBuffer staged;  // the modified-set section, byte-exact
  };
  std::unordered_map<SessionId, ShadowCommit> shadow_commits_;
  // Highest epoch already applied per session, so duplicate-delivered or
  // retransmitted WB_COMMIT/WB_PREPARE messages re-ack instead of
  // re-staging or failing. Erased when the session's INVALIDATE lands.
  std::unordered_map<SessionId, std::uint64_t> committed_epochs_;
  // Coordinator-side commit epoch, monotonically increasing per attempt.
  std::uint64_t wb_epoch_ = 0;

  // --- failure containment ---------------------------------------------------
  FailureDetector detector_;
  std::uint64_t lease_ttl_ns_ = 0;  // 0: lapse-based revocation disabled
  // Peers whose death was detected mid-request (possibly inside the SIGSEGV
  // fill path, where revoking pages would corrupt the fill in progress);
  // poll_failures() runs the cleanup at the next safe point.
  std::vector<SpaceId> pending_dead_cleanup_;
  // Peers whose async requests failed; drain_probes() pings them on the
  // next normal stack (completion callbacks must not roundtrip).
  std::vector<SpaceId> pending_probe_peers_;
  // Peers already contained by on_peer_dead(), so repeated death reports
  // (detector edge + World::mark_dead + queued cleanups) act once.
  std::unordered_set<SpaceId> dead_cleaned_;
  bool probing_ = false;  // re-entrancy guard: never probe from a probe

  // --- crash recovery & reincarnation ---------------------------------------
  RecoveryLog* recovery_ = nullptr;  // owned by the World; survives this runtime
  std::uint32_t incarnation_ = 0;    // 0 = recovery off (legacy wire format)
  // Highest incarnation observed per peer; frames below it are fenced.
  std::unordered_map<SpaceId, std::uint32_t> peer_incarnations_;
  // Reincarnations learned from passing traffic (fence_stale) rather than
  // an explicit REJOIN; poll_failures() runs the cleanup at a safe point.
  std::vector<std::pair<SpaceId, std::uint32_t>> pending_rejoin_cleanup_;
  // Incarnations whose cleanup ran WITHOUT a decision log (implicit path)
  // while stages from that peer were still in doubt. The stages stay
  // staged, and the peer's delayed REJOIN — normally a dedup no-op — is
  // allowed through to resolve them against its decision log.
  std::unordered_map<SpaceId, std::uint32_t> awaiting_rejoin_decisions_;
  // {peer, stamped incarnation} pairs whose fence already dumped the
  // flight ring — a stale-frame storm produces one black box, not one per
  // frame.
  std::unordered_set<std::uint64_t> fence_dumped_;
  std::uint32_t checkpoint_interval_ = 0;   // settles per checkpoint; 0 = manual
  std::uint32_t settles_since_checkpoint_ = 0;
};

}  // namespace srpc

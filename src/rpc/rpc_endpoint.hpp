// RpcEndpoint — one space's seat on the network.
//
// The crucial piece is the completion-slot pump: while a space is blocked
// waiting for replies it keeps *serving* incoming requests through the
// supplied dispatcher. That single mechanism gives the paper's execution
// model its power: nested RPCs, callbacks (a callee remotely calling its
// caller), and fetch service while blocked all fall out of it, and the
// "only a single thread is active in an RPC session" property (§3.1) is
// preserved because serving happens on the blocked thread itself.
//
// Multiplexing: the endpoint keeps one completion slot per outstanding
// sequence number, so many requests can be on the wire at once (pipelined
// CALLs, a multi-home FETCH fan-out, parallel WB_PREPAREs). issue() opens a
// slot and ships the request; any pump — a collect() on a different seq, an
// explicit pump_once(), a Future::get() — routes arriving replies to their
// slots, runs per-slot retransmit timers, and serves unrelated traffic.
// Replies therefore complete in arrival order, independent of issue order.
//
// One waiter per seq: a slot is claimed by at most one collector. Issuing a
// second request on a live seq or collecting a seq that is already being
// collected is a typed ALREADY_EXISTS error, never a silently stolen reply.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/config.hpp"
#include "common/status.hpp"
#include "net/mailbox.hpp"
#include "net/transport.hpp"
#include "obs/telemetry.hpp"

namespace srpc {

class RpcEndpoint {
 public:
  RpcEndpoint(SpaceId self, Transport& transport, Mailbox& mailbox)
      : self_(self), transport_(transport), mailbox_(mailbox) {}
  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  [[nodiscard]] SpaceId self() const noexcept { return self_; }

  std::uint64_t next_seq() noexcept { return ++seq_; }

  // Stamps the sender and ships the message.
  Status send(Message msg);

  // Serves a non-reply message while blocked; returning an error aborts
  // the surrounding wait.
  using Dispatcher = std::function<Status(Message)>;

  // Completion callback for a slot. Runs inside the pump, possibly on a
  // re-entrant stack (another request's collect, even the fault path), so
  // it must stay light: record telemetry, fulfil a promise, never block,
  // never issue nested RPC. The Result is mutable so a detached consumer
  // can move the reply out.
  using CompletionFn = std::function<void(Result<Message>&)>;
  // Retransmit notification (attempt just sent, total budget). Async slots
  // use it to annotate their own span; without it the annotation goes to
  // the tracer's stack top, which is only correct for the blocking path.
  using RetransmitFn = std::function<void(std::uint32_t attempt, std::uint32_t attempts)>;

  struct IssueOptions {
    TimeoutConfig cfg;
    bool idempotent = false;
    // Detached slots self-erase on completion (fire-and-forget into
    // on_complete); non-detached slots hold their outcome for collect().
    bool detached = false;
    CompletionFn on_complete;
    RetransmitFn on_retransmit;
  };

  // Opens a completion slot keyed by msg.seq and ships the request.
  // Idempotent requests retransmit on each attempt timeout with exponential
  // backoff (same seq, so receiver-side dedup and sender-side matching
  // absorb duplicates); non-idempotent requests get a single attempt with
  // the full deadline. Returns the seq, ALREADY_EXISTS if the seq already
  // has a live slot, or the transport error if the first send fails (no
  // slot is left behind).
  Result<std::uint64_t> issue(Message msg, MessageType reply_type, IssueOptions opts);

  // Blocks (pumping) until slot `seq` completes, then consumes and returns
  // its outcome. FAILED_PRECONDITION if no such slot, ALREADY_EXISTS if the
  // slot is being collected already (one waiter per seq). A dispatcher
  // error or closed mailbox settles the slot with that error and returns it.
  Result<Message> collect(std::uint64_t seq, const Dispatcher& serve);

  // One pump step: waits (until `deadline` at the latest) for the next
  // mail item or pending-slot timer, then routes a reply / runs expired
  // timers / serves or defers everything else. OK means "made progress or
  // ran timers"; DEADLINE_EXCEEDED means `deadline` passed first. A
  // dispatcher error aborts the step; a closed mailbox settles every
  // pending slot with UNAVAILABLE and returns it.
  Status pump_once(std::chrono::steady_clock::time_point deadline,
                   const Dispatcher& serve);

  // Discards slot `seq` (pending or completed-but-uncollected). A reply
  // arriving later no longer matches and flows to serve/defer like any
  // stale message. NOT_FOUND if no such slot.
  Status cancel(std::uint64_t seq);

  [[nodiscard]] bool slot_done(std::uint64_t seq) const;
  [[nodiscard]] std::size_t inflight() const noexcept { return pending_.size(); }

  // Blocks until a message with `reply_type` (or kError) and matching seq
  // arrives. Other messages are fed to `serve`; if `serve` is empty they
  // are deferred for the main loop (used on the fault path, where nothing
  // but the reply can legitimately arrive). Tasks are always deferred.
  // Once `deadline` passes with no reply the await fails with
  // DEADLINE_EXCEEDED (the default never expires). Implemented as a
  // send-less slot, so it multiplexes with issued requests.
  Result<Message> await_reply(MessageType reply_type, std::uint64_t seq,
                              const Dispatcher& serve,
                              std::chrono::steady_clock::time_point deadline =
                                  std::chrono::steady_clock::time_point::max());

  // One logical request/reply round trip under `cfg`: sends `msg`, awaits
  // its reply within cfg.request_deadline, and — for idempotent requests —
  // retransmits the identical message (same seq, so the receiver's
  // request-id dedup and the sender's reply matching both absorb
  // duplicates) after each attempt timeout with exponential backoff.
  // Non-idempotent requests get a single attempt: the full deadline, no
  // retransmit. Equivalent to issue() + collect().
  Result<Message> roundtrip(Message msg, MessageType reply_type,
                            const Dispatcher& serve, const TimeoutConfig& cfg,
                            bool idempotent);

  // Next item for the main loop; drains deferred items first, then blocks
  // on the mailbox. Replies for pending slots are routed to their slots
  // (never surfaced) so an abandoned-but-live slot cannot swallow the
  // worker loop. UNAVAILABLE once the mailbox is closed and drained.
  Result<MailItem> next();

  // Retransmissions issued over this endpoint's lifetime.
  [[nodiscard]] std::uint64_t retransmits() const noexcept { return retransmits_; }

  // Optional observability sink (owned by the Runtime): retransmit
  // annotations and per-kind retry counters land there.
  void set_telemetry(Telemetry* telemetry) noexcept { telemetry_ = telemetry; }

  // Called with every Message dequeued from the mailbox, before any
  // routing. The simulated network uses it to advance the virtual clock to
  // the message's arrival timestamp.
  using DeliveryHook = std::function<void(const Message&)>;
  void set_delivery_hook(DeliveryHook hook) { delivery_hook_ = std::move(hook); }

  // Runs on every outbound message right before it hits the transport —
  // the single choke point all sends funnel through. The Runtime installs
  // the shm-lane elevator here: in a shm-lane world it publishes the payload
  // into the shared arena and replaces the bytes with a view descriptor
  // (net/shm_arena.hpp), falling back to the byte lane otherwise.
  using PayloadLane = std::function<void(Message&)>;
  void set_payload_lane(PayloadLane lane) { payload_lane_ = std::move(lane); }

  // Runs on every outbound message, before the payload lane. The Runtime
  // installs the incarnation stamp here: in a recovery world every frame
  // carries {our incarnation, their believed incarnation}. Retransmits
  // re-enter prepare(), so a resend after the peer rejoined carries the
  // *updated* belief rather than the stamp frozen at issue time.
  using Stamp = std::function<void(Message&)>;
  void set_stamp(Stamp stamp) { stamp_ = std::move(stamp); }

  // Runs on every inbound Message after the delivery hook, before reply
  // routing or serving — the single choke point all receives funnel
  // through. Returning true drops the message (the Runtime fences frames
  // stamped by, or addressed to, a stale incarnation here). A dropped
  // shm-backed message releases its arena pin by plain destruction.
  using Fence = std::function<bool(const Message&)>;
  void set_fence(Fence fence) { fence_ = std::move(fence); }

  // Settles every live slot whose request was sent to `peer` with
  // `status`. Used when a peer's old incarnation is flushed at rejoin: a
  // reply from the new incarnation must not complete a request the old one
  // received (its seq-dedup memory is gone, its heap was rebuilt). Bare
  // await_reply slots have no destination and are left alone.
  std::size_t expire_peer(SpaceId peer, const Status& status);

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    MessageType reply_type = MessageType::kError;
    std::uint64_t seq = 0;
    SpaceId dest = kInvalidSpaceId;  // request destination (expire_peer)
    std::string describe;  // "REPLY seq=N" for error messages
    // Send-less await_reply slot: expires with the await wording and never
    // retransmits.
    bool bare = false;
    bool detached = false;
    bool claimed = false;  // a collect() is walking this slot
    bool done = false;
    std::optional<Message> original;  // retransmittable copy (attempts > 1)
    TimeoutConfig cfg;
    std::uint32_t attempts = 1;
    std::uint32_t attempt = 1;
    Clock::time_point deadline = Clock::time_point::max();
    Clock::time_point attempt_deadline = Clock::time_point::max();
    std::chrono::nanoseconds backoff{0};
    std::optional<Result<Message>> outcome;
    CompletionFn on_complete;
    RetransmitFn on_retransmit;
  };

  // Stamps the sender and applies the payload lane — exactly once per
  // outbound message, before any retransmittable copy is taken.
  void prepare(Message& msg);
  // Next retransmit wait: doubling, or decorrelated jitter when enabled.
  [[nodiscard]] std::chrono::nanoseconds next_backoff(const Pending& p) const;
  void arm_attempt_timer(Pending& p);
  // Settles a slot: stores/fires the outcome, self-erases detached slots.
  void complete(const std::shared_ptr<Pending>& p, Result<Message> outcome);
  void settle_all(const Status& status);
  void expire_timers(Clock::time_point now);
  // Routes `msg` to a matching pending slot; false if nothing matched.
  bool route_reply(Message& msg);

  SpaceId self_;
  Transport& transport_;
  Mailbox& mailbox_;
  std::uint64_t seq_ = 0;
  std::uint64_t retransmits_ = 0;
  Telemetry* telemetry_ = nullptr;
  DeliveryHook delivery_hook_;
  PayloadLane payload_lane_;
  Stamp stamp_;
  Fence fence_;
  std::deque<MailItem> deferred_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Pending>> pending_;
};

}  // namespace srpc

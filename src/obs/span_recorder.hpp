// SpanRecorder — per-runtime causal span collection.
//
// A span covers one timed activity on the space's single worker thread: a
// client request (Runtime::issue_guarded), serving an incoming request
// (dispatch), or a whole session. Spans nest on a stack; because the
// runtime is one-active-thread (the paper's execution model — nested calls
// and callbacks re-enter the same worker), the stack top at any moment IS
// the causal parent of whatever starts next. Server spans take their
// parent from the incoming message's TraceContext instead, which is how a
// tree spans address spaces.
//
// Timestamps come from the caller (virtual clock on the simulated network,
// steady clock on sockets) so the recorder itself has no clock dependency.
// When disabled (the default), every operation is a cheap no-op and
// nothing allocates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "obs/trace_context.hpp"

namespace srpc {

struct SpanAnnotation {
  std::uint64_t ts_ns = 0;
  std::string text;
};

struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  // 0 = root of its trace
  std::uint32_t hop = 0;             // control transfers since the root
  SessionId session = kNoSession;    // RPC session active when the span began
  std::string name;                  // "CALL -> server", "serve FETCH", ...
  std::string category;              // "rpc.client", "rpc.server", "session"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  bool open = true;
  bool ok = true;
  std::vector<SpanAnnotation> annotations;
};

class SpanRecorder {
 public:
  using Handle = std::size_t;
  static constexpr Handle kNoSpan = static_cast<Handle>(-1);

  explicit SpanRecorder(SpaceId space) : space_(space) {}

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // Session label stamped on every span started from now on; with many
  // concurrent sessions per space this is what makes a span attributable.
  void set_session(SessionId id) noexcept { session_ = id; }
  [[nodiscard]] SessionId session() const noexcept { return session_; }

  // Starts a span parented to the current stack top (a fresh root trace
  // when the stack is empty) and pushes it.
  Handle start_local(std::string name, std::string category, std::uint64_t now_ns);

  // Starts a span continuing the remote caller's context: same trace,
  // parent = ctx.span_id, hop = ctx.hop + 1. Pushed like any other span.
  Handle start_server(const TraceContext& ctx, std::string name,
                      std::string category, std::uint64_t now_ns);

  // Starts a span parented to the current stack top WITHOUT pushing it.
  // Async client spans use this: N pipelined requests are concurrent
  // siblings under the issuing session, not a nesting chain, and their
  // replies may finish in any order — which would corrupt a LIFO stack.
  Handle start_detached(std::string name, std::string category, std::uint64_t now_ns);

  void finish(Handle h, std::uint64_t now_ns, bool ok = true);

  // Attaches a timestamped note to the current stack top (dropped when no
  // span is open or the recorder is disabled).
  void annotate(std::string text, std::uint64_t now_ns);
  void annotate(Handle h, std::string text, std::uint64_t now_ns);

  // Wire identity of span `h` — what a message sent while `h` is open
  // should carry.
  [[nodiscard]] TraceContext context_of(Handle h) const;

  [[nodiscard]] Handle current() const noexcept {
    return stack_.empty() ? kNoSpan : stack_.back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  void clear();

 private:
  std::uint64_t next_id() noexcept {
    return (static_cast<std::uint64_t>(space_ + 1) << 40) | ++counter_;
  }

  SpaceId space_;
  SessionId session_ = kNoSession;
  bool enabled_ = false;
  std::uint64_t counter_ = 0;
  std::vector<Span> spans_;
  std::vector<Handle> stack_;
};

}  // namespace srpc

// In-memory spans around the benchmark's own calls into each layer.
//
// The program's tracer (World::set_tracing) stamps spans with the virtual
// clock, which stands still under CostModel::zero(), so the traced run keeps
// its own wall-clock spans here instead: one per session open, call, callee
// handler body, probe and end(). Spans are kept in memory and written once,
// as Chrome trace-event JSON, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace wallbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";      // a string literal
  std::uint64_t parent = 0;   // span id of the cause; 0 for a root
  std::uint64_t session = 0;  // the RPC session the span belongs to (0: none)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;   // 0 while open
  std::uint32_t tid = 0;      // small per-thread number, for the viewer
};

// Thread-safe span store. Disabled, every call is a no-op returning id 0,
// so the untraced run pays one branch per boundary.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // Opens a span now; returns its id (ids start at 1). `name` must be a
  // string literal: only the pointer is kept.
  std::uint64_t open(const char* name, std::uint64_t parent, std::uint64_t session);
  void close(std::uint64_t id);
  // Sets the session of a span opened before the session id was known.
  void tag(std::uint64_t id, std::uint64_t session);

  // Duration of a closed span in ns (0 for id 0 or an open span).
  [[nodiscard]] std::uint64_t duration_ns(std::uint64_t id) const;

  // Durations in µs of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;

  // Writes every span as Chrome trace-event JSON ("X" events, µs), each
  // with its id, parent, session and self time (duration minus the part of
  // it that its children cover) in "args". Returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::unordered_map<std::thread::id, std::uint32_t> tids_;
};

// Opens a span for the enclosing scope.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::uint64_t parent,
            std::uint64_t session)
      : log_(log), id_(log.open(name, parent, session)) {}
  ~SpanScope() { log_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

}  // namespace wallbench

// Shared declarations of the wall-clock session benchmark.
//
// Every workload runs in-process on the simulated wire under
// CostModel::zero(), so the wall time measured here is the program's own
// CPU plus the thread hand-offs between spaces. Timings are taken with
// steady_clock at the benchmark's own call sites; nothing inside the
// library is instrumented.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/smart_rpc.hpp"
#include "spans.hpp"

namespace wallbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint32_t nodes = 32767;  // tree size; the smoke test runs tiny trees
  double tail_pct = 0.90;       // the percentile session_tail_us reports
  std::string trace_out;        // Chrome trace file of the traced run
};

// Nearest-rank percentile (q in (0, 1]); 0 when empty.
double percentile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }
// Arithmetic mean; 0 when empty.
double mean(const std::vector<double>& v);
// The q-th percentile of each work class's times in `v` (`cls` holds the
// class of each), averaged over the classes; 0 when empty.
double class_percentile(const std::vector<double>& v, const std::vector<int>& cls, double q);

// What one ground observed. Each ground thread fills its own; the workload
// merges them once the window closes.
struct Samples {
  std::uint64_t attempted = 0;        // logical sessions started
  std::uint64_t committed = 0;        // logical sessions whose end() returned OK
  std::uint64_t failed = 0;           // error, retry budget spent, or wrong output
  std::uint64_t mismatches = 0;       // sessions whose output check failed
  std::uint64_t commit_attempts = 0;  // end() calls, conflict retries included
  double backoff_us = 0;              // time slept before conflict retries

  // Untraced sessions (all sessions of an untraced run), each time with the
  // work class of its session. Sessions of one class do the same work: the
  // tree workloads have one class per Fig. 4 tenth, the list workloads one.
  std::vector<double> session_us, call_us, commit_us;
  std::vector<int> session_class, call_class, commit_class;
  int work_class = 0;  // the class of the session being run
  // Traced-run extras.
  std::vector<double> traced_session_us;
  std::vector<double> call_overhead_us;  // call minus the callee handler
  std::vector<double> remote_deref_ns;   // per node
  srpc::CacheStats overlay_faults;       // multi-session overlays, summed

  void merge(const Samples& o);
};

// Sums the fault-path counters the per-layer metrics read.
void add_cache_stats(srpc::CacheStats& into, const srpc::CacheStats& s);

// Hands the caller's call span to the callee's handler (another thread) and
// the handler's spans back, keyed by RPC session.
class Handover {
 public:
  struct Entry {
    std::uint64_t call_span = 0;
    std::uint64_t handler_span = 0;
    std::uint64_t body_span = 0;
  };
  void set_call(std::uint64_t session, std::uint64_t span);
  [[nodiscard]] std::uint64_t call_span(std::uint64_t session);
  void set_handler(std::uint64_t session, std::uint64_t handler, std::uint64_t body);
  Entry take(std::uint64_t session);

 private:
  std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
};

// Reads ru_maxrss once, when the run's committed sessions reach a fixed
// count. Memory the program keeps per session would otherwise grow with the
// sessions a faster build fits into the window and read as a regression.
class RssProbe {
 public:
  void arm(std::uint64_t sessions) { at_ = sessions; }
  // Counts one committed session; called from every ground thread.
  void committed();
  // Peak RSS in MiB at the armed count, or now if the run ended short of it.
  [[nodiscard]] double peak_mib();
  // Committed sessions at which the value was read.
  [[nodiscard]] std::uint64_t read_at() const;

 private:
  void read();
  std::uint64_t at_ = 0;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> read_at_{0};
  std::atomic<long> maxrss_kib_{0};
};

struct Ctx {
  const Options& opt;
  SpanLog& spans;
  Handover& handover;
  RssProbe& rss;
};

// Runs a bound procedure's body. When the caller traces this call, the body
// gets an "rpc.handler" span parented to the caller's call span, a
// "core.remote_body" child, and, at its end, the collect_modified_deltas
// probe on the callee's live cache ("core.modset_collect"). The const
// cache() never creates a multi-session overlay the workload would not have.
template <typename F>
auto handler_body(Ctx& c, srpc::CallContext& ctx, F body) {
  if (!c.spans.enabled()) return body();
  const std::uint64_t parent = c.handover.call_span(ctx.session);
  if (parent == 0) return body();  // an untraced block of the traced run
  const std::uint64_t handler = c.spans.open("rpc.handler", parent, ctx.session);
  const std::uint64_t inner = c.spans.open("core.remote_body", handler, ctx.session);
  auto result = body();
  c.spans.close(inner);
  {
    SpanScope probe(c.spans, "core.modset_collect", handler, ctx.session);
    (void)std::as_const(ctx.runtime).cache().collect_modified_deltas();
  }
  c.spans.close(handler);
  c.handover.set_handler(ctx.session, handler, inner);
  return result;
}

// Inputs for the layer probes, shaped like the workload that supplies them.
struct ProbeInput {
  srpc::AddressSpace* home = nullptr;      // owns the data
  srpc::AddressSpace* receiver = nullptr;  // caches it during a session
  std::vector<std::uint64_t> pack_roots;   // home addresses a FETCH asks for
  std::uint64_t closure_bytes = 0;         // the workload's closure budget
  std::vector<srpc::LongPointer> pointers;  // one session's long pointers
  std::uint32_t object_bytes = 0;          // local size of one object
  srpc::TypeId type = srpc::kInvalidTypeId;
  std::size_t page_count = 0;              // cache arena size, in pages
  std::size_t dirty_pages = 1;             // pages a session dirties
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the world: spaces, type registration, data. Timed as set-up.
  virtual void setup() = 0;
  // Book-keeping the output checks need; not part of set-up.
  virtual void prepare_checks() {}
  // Closed loop until the deadline passes (tree workloads finish the
  // current block of ten, so every run sees whole blocks).
  virtual Samples run(Clock::time_point deadline) = 0;
  // Final-state checks; returns the number of mismatching objects.
  virtual std::uint64_t verify() = 0;
  virtual srpc::World& world() = 0;
  // The space whose arbiter judges concurrent commits.
  virtual srpc::AddressSpace& arbiter_home() = 0;
  // How many times a run builds the world (setup_s is the median; about
  // 1.5 s of set-ups at the baseline's speed, as a count so that every run
  // leaves the allocator in the same state), and the committed sessions
  // after which peak_rss_mib is read (a few seconds' worth).
  struct Sizing {
    std::size_t setups;
    std::uint64_t rss_sessions;
  };
  [[nodiscard]] virtual Sizing sizing() const = 0;
  [[nodiscard]] virtual ProbeInput probe_input() = 0;
};

std::unique_ptr<Workload> make_workload(Ctx& c);

// One named per-layer or end-to-end value.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Layer probes (traced run only); each appends its metrics and throws
// std::runtime_error when its own result check fails.
void run_probes(Ctx& c, Workload& w, std::vector<Metric>& out);

}  // namespace wallbench

// Layer probes of the traced run. Each times one public function of one
// layer, called from here on inputs shaped like the workload's (its tree or
// lists, closure budget and arena size), and checks its own result, so a
// probe that did no work cannot report a fast time.
#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "vm/fault_dispatcher.hpp"

namespace wallbench {
namespace {

using srpc::PageIndex;
using srpc::PageState;
using srpc::Runtime;

constexpr int kBatches = 15;  // each probe reports the median batch

void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("probe check failed: " + what);
}

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// Runs `batch` (which returns the operations it did) kBatches times and
// returns the median ns per operation.
template <typename F>
double median_ns_per_op(F&& batch) {
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    const std::uint64_t ops = batch();
    const double ns = ns_since(t0);
    check(ops > 0, "batch did no work");
    per_op.push_back(ns / static_cast<double>(ops));
  }
  return median(per_op);
}

// Repetitions that make one batch about `target` operations.
std::size_t reps_for(std::size_t ops_per_rep, std::size_t target) {
  return std::max<std::size_t>(1, target / std::max<std::size_t>(1, ops_per_rep));
}

// vm: protect a page kNone, touch it, and let the SIGSEGV handler reopen it.
class ReopenHandler final : public srpc::FaultHandler {
 public:
  explicit ReopenHandler(const srpc::PageArena& arena) : arena_(arena) {}
  bool on_fault(void* addr, srpc::FaultAccess) override {
    const PageIndex page = arena_.page_of(addr);
    if (page == srpc::kInvalidPage) return false;
    faults_.fetch_add(1, std::memory_order_relaxed);
    return arena_.protect(page, srpc::PageProtection::kReadWrite).is_ok();
  }
  [[nodiscard]] std::uint64_t faults() const { return faults_.load(std::memory_order_relaxed); }

 private:
  const srpc::PageArena& arena_;
  std::atomic<std::uint64_t> faults_{0};  // written from the signal handler
};

double fault_trap_ns() {
  constexpr PageIndex kPages = 64;
  srpc::PageArena arena = srpc::PageArena::create(kPages).value();
  ReopenHandler handler(arena);
  auto& dispatcher = srpc::FaultDispatcher::instance();
  dispatcher.register_range(arena.base(), arena.byte_size(), &handler).check();
  std::uint64_t touches = 0;
  std::uint64_t sum = 0;
  const double ns = median_ns_per_op([&] {
    for (PageIndex p = 0; p < kPages; ++p) {
      arena.protect(p, srpc::PageProtection::kNone).check();
      sum += *static_cast<volatile std::uint8_t*>(arena.page_base(p));
      ++touches;
    }
    return kPages;
  });
  dispatcher.unregister_range(arena.base()).check();
  check(handler.faults() == touches && sum == 0, "every touch trapped once");
  return ns;
}

// vm: the page-state scan behind collect_modified and session reset. At
// least one page is dirty, so the check needs the scan to find something.
double page_scan_us(const ProbeInput& in) {
  const std::size_t dirty = std::max<std::size_t>(1, in.dirty_pages);
  srpc::PageTable table(in.page_count);
  for (PageIndex p = 0; p < dirty; ++p) {
    table.transition(p, PageState::kAllocated).check();
    table.transition(p, PageState::kDirty).check();
  }
  std::size_t found = 0;
  const double ns = median_ns_per_op([&] {
    for (int i = 0; i < 16; ++i) found = table.pages_in_state(PageState::kDirty).size();
    return 16;
  });
  check(found == dirty, "scan finds every dirty page");
  return ns / 1e3;
}

// net: Mailbox::push on one thread to pop returning on another, halved
// from a ping-pong between two mailboxes.
double mailbox_hop_ns() {
  struct Echo {
    srpc::Mailbox in, out;
    std::thread thread;
    ~Echo() {
      in.close();
      if (thread.joinable()) thread.join();
    }
  } echo;
  echo.thread = std::thread([&echo] {
    for (;;) {
      auto item = echo.in.pop();
      if (!item.is_ok()) return;  // closed
      auto* msg = std::get_if<srpc::Message>(&item.value());
      if (msg == nullptr || !echo.out.push(std::move(*msg)).is_ok()) return;
    }
  });
  constexpr int kRoundTrips = 200;
  std::uint64_t sent = 0, returned = 0;
  const double ns = median_ns_per_op([&] {
    for (int i = 0; i < kRoundTrips; ++i) {
      srpc::Message msg;
      msg.type = srpc::MessageType::kPing;
      msg.seq = ++sent;
      echo.in.push(std::move(msg)).check();
      auto back = echo.out.pop();
      if (back.is_ok()) {
        const auto* m = std::get_if<srpc::Message>(&back.value());
        if (m != nullptr && m->seq == sent) ++returned;
      }
    }
    return 2 * kRoundTrips;
  });
  check(returned == sent, "every message came back");
  return ns;
}

// obs: the per-request metric work with the runtime's key shapes
// (rpc.roundtrip_ns{kind=}, rpc.requests{kind=}, rpc.requests{peer=}).
double metrics_record_ns() {
  static const char* const kKinds[] = {"kind=CALL", "kind=FETCH", "kind=WB_PREPARE",
                                       "kind=WB_COMMIT"};
  srpc::MetricsRegistry reg;
  std::uint64_t requests = 0;
  const double ns = median_ns_per_op([&] {
    for (std::uint64_t i = 0; i < 1000; ++i) {
      const std::string kind = kKinds[i % 4];
      reg.histogram(srpc::MetricsRegistry::key("rpc.roundtrip_ns", kind)).record(i);
      reg.counter(srpc::MetricsRegistry::key("rpc.requests", kind)).add();
      reg.counter(srpc::MetricsRegistry::key("rpc.requests", "peer=" + std::to_string(i % 3)))
          .add();
      ++requests;
    }
    return 1000;
  });
  std::uint64_t counted = 0;
  for (const auto& [key, counter] : reg.counters()) counted += counter.value;
  check(counted == 2 * requests, "every request counted twice");
  return ns;
}

double registry_get_ns(srpc::World& world, srpc::TypeId type) {
  const srpc::TypeRegistry& reg = world.registry();
  std::uint64_t lookups = 0, hits = 0;
  const double ns = median_ns_per_op([&] {
    for (int i = 0; i < 10000; ++i) {
      ++lookups;
      if (reg.get(type).id() == type) ++hits;
    }
    return 10000;
  });
  check(hits == lookups, "every get returns the tree type");
  return ns;
}

double heap_find_ns(const ProbeInput& in) {
  std::vector<const void*> addrs;
  for (const srpc::LongPointer& p : in.pointers) {
    if (p.space == in.home->id()) addrs.push_back(reinterpret_cast<const void*>(p.address));
  }
  check(!addrs.empty(), "the home owns some of the session's pointers");
  return in.home->run([&](Runtime& rt) {
    const std::size_t reps = reps_for(addrs.size(), 20000);
    std::uint64_t finds = 0, hits = 0;
    const double ns = median_ns_per_op([&] {
      for (std::size_t r = 0; r < reps; ++r) {
        for (const void* addr : addrs) {
          ++finds;
          if (rt.heap().find(addr) != nullptr) ++hits;
        }
      }
      return reps * addrs.size();
    });
    check(hits == finds, "every heap find hits");
    return ns;
  });
}

// swizzle: DataAllocationTable insert and find over one session's long
// pointers, laid out on pages the way a fill places them.
void allocation_table(const ProbeInput& in, std::vector<Metric>& out) {
  const std::size_t n = in.pointers.size();
  const std::uint32_t size = in.object_bytes;
  const std::uint32_t per_page = 4096 / size;
  std::vector<std::uint8_t> slots((n / per_page + 1) * 4096);
  std::vector<srpc::AllocationEntry> entries(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto page = static_cast<PageIndex>(i / per_page);
    const auto offset = static_cast<std::uint32_t>((i % per_page) * size);
    entries[i] = {in.pointers[i], page, offset, size, slots.data() + page * 4096 + offset};
  }
  const std::size_t tables = reps_for(n, 4096);
  std::vector<double> insert_ns, find_ns;
  std::uint64_t finds = 0, hits = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<srpc::DataAllocationTable> batch(tables);
    auto t0 = Clock::now();
    for (auto& table : batch) {
      for (const auto& e : entries) table.insert(e).check();
    }
    insert_ns.push_back(ns_since(t0) / static_cast<double>(tables * n));
    t0 = Clock::now();
    for (const auto& table : batch) {
      for (const auto& e : entries) {
        ++finds;
        const srpc::AllocationEntry* found = table.find(e.pointer);
        if (found != nullptr && found->local == e.local) ++hits;
      }
    }
    find_ns.push_back(ns_since(t0) / static_cast<double>(tables * n));
  }
  check(hits == finds, "every allocation-table find hits");
  out.push_back({"swizzle.insert_ns", median(insert_ns), "ns"});
  out.push_back({"swizzle.find_ns", median(find_ns), "ns"});
}

// core: what a FETCH costs end to end outside the wire. The home packs the
// closure of the workload's roots under its closure budget and encodes it;
// the receiver incorporates the payload into its cache inside a session.
void closure_path(const ProbeInput& in, std::vector<Metric>& out) {
  srpc::ByteBuffer payload;
  std::size_t objects = 0;
  in.home->run([&](Runtime& rt) {
    const srpc::ClosurePacker packer(rt.codec(), rt.arch(), rt);
    auto pack = [&] { return packer.pack(in.pack_roots, in.closure_bytes, true).value(); };
    const std::vector<srpc::GraphObjectRef> group = pack().groups.at(rt.id());
    objects = group.size();
    check(objects > 0, "pack returns objects");
    const std::size_t reps = reps_for(objects, 2048);
    std::uint64_t packed = 0;
    out.push_back({"core.pack_ns_per_object", median_ns_per_op([&] {
                     std::uint64_t n = 0;
                     for (std::size_t r = 0; r < reps; ++r) n += pack().objects;
                     packed += n;
                     return n;
                   }),
                   "ns"});
    check(packed == kBatches * reps * objects, "every pack returns the same closure");
    out.push_back({"core.encode_ns_per_object", median_ns_per_op([&] {
                     for (std::size_t r = 0; r < reps; ++r) {
                       payload = srpc::ByteBuffer();
                       srpc::encode_graph_payload(rt.codec(), rt.arch(), rt.id(), group, rt,
                                                  payload)
                           .check();
                     }
                     return reps * objects;
                   }),
                   "ns"});
    check(payload.size() > 0, "encode writes bytes");
  });
  out.push_back({"core.decode_ns_per_object", in.receiver->run([&](Runtime& rt) {
                   std::vector<double> per_object;
                   for (int b = 0; b < kBatches; ++b) {
                     srpc::Session session(rt);
                     {
                       Runtime::ScopedSession pin(rt, session.id());
                       srpc::CacheManager& cache = rt.cache();
                       const std::uint64_t before = cache.stats().objects_filled;
                       payload.reset_cursor();
                       const auto t0 = Clock::now();
                       const srpc::Status st = cache.incorporate_clean_payload(payload);
                       per_object.push_back(ns_since(t0) / static_cast<double>(objects));
                       st.check();
                       check(cache.stats().objects_filled - before == objects,
                             "incorporate fills every object");
                     }
                     session.end().check();
                   }
                   return median(per_object);
                 }),
                 "ns"});
}

}  // namespace

void run_probes(Ctx& c, Workload& w, std::vector<Metric>& out) {
  const ProbeInput in = w.probe_input();
  auto probe = [&](const char* span, auto&& fn) {
    SpanScope scope(c.spans, span, 0, 0);
    fn();
  };
  probe("probe.vm.fault_trap",
        [&] { out.push_back({"vm.fault_trap_ns", fault_trap_ns(), "ns"}); });
  probe("probe.vm.page_scan",
        [&] { out.push_back({"vm.page_scan_us", page_scan_us(in), "us"}); });
  probe("probe.net.mailbox_hop",
        [&] { out.push_back({"net.mailbox_hop_ns", mailbox_hop_ns(), "ns"}); });
  probe("probe.core.closure_path", [&] { closure_path(in, out); });
  probe("probe.swizzle.allocation_table", [&] { allocation_table(in, out); });
  probe("probe.types.registry_get", [&] {
    out.push_back({"types.registry_get_ns", registry_get_ns(w.world(), in.type), "ns"});
  });
  probe("probe.mem.heap_find",
        [&] { out.push_back({"mem.heap_find_ns", heap_find_ns(in), "ns"}); });
  probe("probe.obs.record",
        [&] { out.push_back({"obs.record_ns", metrics_record_ns(), "ns"}); });
}

}  // namespace wallbench

#include "core/debug.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace srpc {

namespace {
std::string line(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return std::string(buf);
}
}  // namespace

std::string dump_allocation_table(const Runtime& rt) {
  const CacheManager& cache = rt.cache();
  std::string out =
      line("data allocation table of space %u ('%s'): %zu entries\n", rt.id(),
           rt.name().c_str(), cache.table().size());
  out += line("%8s %8s %8s %-10s %s\n", "page", "offset", "size", "state",
              "long pointer");
  for (PageIndex page = 0; page < cache.pages_used(); ++page) {
    const auto entries = cache.table().entries_on_page(page);
    for (const AllocationEntry* e : entries) {
      if (e->page != page) continue;  // multi-page entries print once
      out += line("%8u %8u %8u %-10s %s\n", e->page, e->offset, e->size,
                  std::string(to_string(cache.page_state(e->page))).c_str(),
                  e->pointer.to_string().c_str());
    }
  }
  return out;
}

std::string dump_page_states(const Runtime& rt) {
  const CacheManager& cache = rt.cache();
  std::size_t counts[4] = {cache.arena().page_count() - cache.pages_used(), 0, 0, 0};
  for (PageIndex page = 0; page < cache.pages_used(); ++page) {
    counts[static_cast<std::size_t>(cache.page_state(page))]++;
  }
  return line("pages of space %u: empty=%zu allocated=%zu clean=%zu dirty=%zu\n",
              rt.id(), counts[0], counts[1], counts[2], counts[3]);
}

std::string dump_heap(const Runtime& rt) {
  std::string out = line("managed heap of space %u: %zu allocations, %" PRIu64
                         " bytes\n",
                         rt.id(), rt.heap().live_allocations(), rt.heap().live_bytes());
  rt.heap().for_each([&](const ManagedHeap::Record& record) {
    out += line("  %p type=%u count=%u size=%" PRIu64 "%s\n",
                static_cast<const void*>(record.base), record.type, record.count,
                record.size, record.adopted ? " (adopted)" : "");
  });
  return out;
}

std::string dump_counters(const Runtime& rt) {
  const RuntimeStats& s = rt.stats();
  const CacheStats& c = rt.cache().stats();
  return line("space %u: calls sent=%" PRIu64 " served=%" PRIu64
              " | fetches issued=%" PRIu64 " served=%" PRIu64 " | faults r=%" PRIu64
              " w=%" PRIu64 " | fills=%" PRIu64 " objects=%" PRIu64 "\n",
              rt.id(), s.calls_sent, s.calls_served, c.fetches, s.fetches_served,
              c.read_faults, c.write_faults, c.fills, c.objects_filled);
}

}  // namespace srpc

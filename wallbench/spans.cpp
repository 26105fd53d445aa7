#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace wallbench {

std::uint64_t SpanLog::open(const char* name, std::uint64_t parent,
                            std::uint64_t session) {
  if (!enabled_) return 0;
  const std::uint64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = tids_.try_emplace(std::this_thread::get_id(),
                                          static_cast<std::uint32_t>(tids_.size() + 1));
  spans_.push_back(Span{name, parent, session, start, 0, it->second});
  return spans_.size();
}

void SpanLog::close(std::uint64_t id) {
  if (id == 0) return;
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = end;
}

void SpanLog::tag(std::uint64_t id, std::uint64_t session) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].session = session;
}

std::uint64_t SpanLog::duration_ns(std::uint64_t id) const {
  if (id == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[id - 1];
  return s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
}

std::vector<double> SpanLog::durations_us(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns > s.start_ns && name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

namespace {

// Self time of every span: its duration minus the union of its children's
// intervals, clipped to it.
std::vector<std::uint64_t> self_ns(const std::vector<Span>& all) {
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::uint64_t p = all[i].parent;
    if (p != 0 && p <= all.size()) children[p - 1].push_back(i);
  }
  std::vector<std::uint64_t> self(all.size(), 0);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_ns <= s.start_ns) continue;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const std::size_t c : children[i]) {
      const std::uint64_t a = std::max(all[c].start_ns, s.start_ns);
      const std::uint64_t b = std::min(all[c].end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += cur_b - cur_a;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<std::uint64_t> self = self_ns(spans_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t end = std::max(s.end_ns, s.start_ns);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%llu,"
                 "\"session\":%llu,\"self_us\":%.3f}}",
                 i ? ",\n" : "", s.name, s.tid, (s.start_ns - origin) / 1e3,
                 (end - s.start_ns) / 1e3, i + 1,
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.session), self[i] / 1e3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace wallbench

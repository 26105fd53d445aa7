// The four closed-loop workloads. Each replays a seed-generated sequence of
// sessions against one World and checks every output it gets back.
#include <algorithm>
#include <array>
#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "common/rng.hpp"
#include "workload/list.hpp"
#include "workload/tree.hpp"

namespace wallbench {

using srpc::AddressSpace;
using srpc::CallContext;
using srpc::CostModel;
using srpc::LongPointer;
using srpc::Runtime;
using srpc::Session;
using srpc::Status;
using srpc::World;
using srpc::WorldOptions;
using srpc::workload::ListNode;
using srpc::workload::TreeNode;

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// One session as the benchmark times it. Untraced, it samples the call and
// end() times; traced, it records the "session" span with "core.begin",
// "rpc.call" and "core.commit" children instead, and samples what the
// per-layer metrics need. Either way a committed session's open-to-end()
// time lands in `s`.
class TimedSession {
 public:
  // `opened` is when the logical session began: a conflict retry keeps the
  // first attempt's time.
  TimedSession(Ctx& c, Runtime& rt, bool traced, Samples& s,
               Clock::time_point opened = Clock::now())
      : c_(c),
        traced_(traced),
        s_(s),
        opened_(opened),
        root_(open("session", 0, 0)),
        begin_(open("core.begin", root_, 0)),
        session_(rt) {
    c_.spans.close(begin_);
    c_.spans.tag(begin_, id());
    c_.spans.tag(root_, id());
  }
  TimedSession(const TimedSession&) = delete;
  TimedSession& operator=(const TimedSession&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return session_.id(); }

  // Session::call. In a traced session the call span is handed to the
  // callee so its handler span nests under it, and the call overhead (call
  // minus the handler) is sampled; the handler's body span is kept for
  // body_ns().
  template <typename R, typename... Args>
  srpc::Result<R> call(srpc::SpaceId target, const char* proc, const Args&... args) {
    const std::uint64_t span = open("rpc.call", root_, id());
    if (span != 0) c_.handover.set_call(id(), span);
    const auto t0 = Clock::now();
    auto result = session_.call<R>(target, proc, args...);
    const auto t1 = Clock::now();
    c_.spans.close(span);
    if (traced_) {
      const Handover::Entry handler = c_.handover.take(id());
      body_span_ = handler.body_span;
      s_.call_overhead_us.push_back(
          us_between(t0, t1) - static_cast<double>(c_.spans.duration_ns(handler.handler_span)) / 1e3);
    } else {
      s_.call_us.push_back(us_between(t0, t1));
      s_.call_class.push_back(s_.work_class);
    }
    return result;
  }

  // Wall time of the last traced call's handler body.
  [[nodiscard]] double body_ns() const {
    return static_cast<double>(c_.spans.duration_ns(body_span_));
  }

  // The store through a swizzled list head: a write fault, a FETCH and a
  // page fill. Timed as one remote dereference in traced sessions.
  void increment(ListNode* head) {
    const std::uint64_t span = open("core.deref", root_, id());
    const auto t0 = Clock::now();
    head->value += 1;
    const auto t1 = Clock::now();
    c_.spans.close(span);
    if (traced_) s_.remote_deref_ns.push_back(ns_between(t0, t1));
  }

  // A local step of the traced session, timed as `name`; returns its ns.
  template <typename F>
  double timed_local(const char* name, F fn) {
    const std::uint64_t span = open(name, root_, id());
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    c_.spans.close(span);
    return ns_between(t0, t1);
  }

  // end(), timed as "core.commit". On failure the session is aborted and
  // the status returned.
  Status end() {
    const std::uint64_t span = open("core.commit", root_, id());
    const auto t0 = Clock::now();
    const Status ended = session_.end();
    const auto t1 = Clock::now();
    c_.spans.close(span);
    c_.spans.close(root_);
    ++s_.commit_attempts;
    if (!ended.is_ok()) {
      (void)session_.abort();
      return ended;
    }
    if (traced_) {
      s_.traced_session_us.push_back(us_between(opened_, t1));
    } else {
      s_.session_us.push_back(us_between(opened_, t1));
      s_.session_class.push_back(s_.work_class);
      s_.commit_us.push_back(us_between(t0, t1));
      s_.commit_class.push_back(s_.work_class);
    }
    c_.rss.committed();
    return ended;
  }

  // Gives the session up after a failed call.
  void abort() {
    (void)session_.abort();
    c_.spans.close(root_);
  }

 private:
  std::uint64_t open(const char* name, std::uint64_t parent, std::uint64_t session) {
    return traced_ ? c_.spans.open(name, parent, session) : 0;
  }

  Ctx& c_;
  const bool traced_;
  Samples& s_;
  const Clock::time_point opened_;
  const std::uint64_t root_ = 0;
  const std::uint64_t begin_ = 0;
  Session session_;
  std::uint64_t body_span_ = 0;
};

// ---------------------------------------------------------------------------
// tree_search / tree_update: the paper's §4.1 subject. The caller owns the
// complete binary tree; one call per session, in which the callee visits a
// depth-first prefix through the swizzled root (and, for tree_update,
// increments every node it visits: Fig. 7's solid line).
// ---------------------------------------------------------------------------

constexpr std::uint64_t kTreeClosureBytes = 8192;  // Fig. 4's closure size

class TreeWorkload final : public Workload {
 public:
  TreeWorkload(Ctx& c, bool update) : c_(c), update_(update) {}

  void setup() override {
    WorldOptions options;
    options.cost = CostModel::zero();
    options.cache.closure_bytes = kTreeClosureBytes;
    world_ = std::make_unique<World>(options);
    caller_ = &world_->create_space("caller");
    callee_ = &world_->create_space("callee");
    type_ = srpc::workload::register_tree_type(*world_).value();
    callee_
        ->bind("visit",
               [this](CallContext& ctx, TreeNode* root, std::uint64_t limit) {
                 return handler_body(c_, ctx, [&] {
                   return srpc::workload::visit_prefix(root, limit);
                 });
               })
        .check();
    callee_
        ->bind("update",
               [this](CallContext& ctx, TreeNode* root, std::uint64_t limit) {
                 return handler_body(c_, ctx, [&] {
                   return srpc::workload::update_prefix(root, limit, 1);
                 });
               })
        .check();
    root_ = caller_->run([&](Runtime& rt) {
      return srpc::workload::build_complete_tree(rt, c_.opt.nodes).value();
    });
  }

  void prepare_checks() override {
    // Pre-order rank of node i, by the same DFS as visit_prefix.
    const std::uint32_t n = c_.opt.nodes;
    rank_.assign(n, 0);
    std::vector<std::uint32_t> stack{0};
    for (std::uint32_t next = 0; !stack.empty(); ++next) {
      const std::uint32_t i = stack.back();
      stack.pop_back();
      rank_[i] = next;
      if (2ULL * i + 2 < n) stack.push_back(2 * i + 2);
      if (2ULL * i + 1 < n) stack.push_back(2 * i + 1);
    }
    caller_->run([&](Runtime&) {
      for (int t = 1; t <= 10; ++t) {
        expected_sum_[t] = srpc::workload::visit_prefix(root_, limit(t));
      }
    });
  }

  Samples run(Clock::time_point deadline) override {
    return caller_->run([&](Runtime& rt) {
      Samples s;
      srpc::Rng rng(c_.opt.seed);
      // Whole blocks of ten sessions, each a seeded permutation of Fig. 4's
      // tenths: every run sees each access ratio equally often, so the
      // percentiles do not jump with how many sessions fit the window.
      for (std::uint64_t block = 0; Clock::now() < deadline; ++block) {
        std::array<int, 10> tenths{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
        for (std::uint64_t i = 9; i > 0; --i) {
          std::swap(tenths[i], tenths[rng.next_below(i + 1)]);
        }
        const bool traced = c_.spans.enabled() && block % 2 == 1;
        for (const int t : tenths) session(rt, t, traced, s);
      }
      return s;
    });
  }

  std::uint64_t verify() override {
    // tree_search leaves node i at i; tree_update adds one for every
    // committed session whose prefix covered the node.
    return caller_->run([&](Runtime&) {
      std::uint64_t bad = 0;
      std::deque<const TreeNode*> queue{root_};
      for (std::uint32_t i = 0; !queue.empty(); ++i) {
        const TreeNode* node = queue.front();
        queue.pop_front();
        std::int64_t expected = i;
        for (int t = 1; t <= 10 && update_; ++t) {
          if (limit(t) > rank_[i]) expected += static_cast<std::int64_t>(commits_[t]);
        }
        if (node->data != expected) ++bad;
        if (node->left != nullptr) queue.push_back(node->left);
        if (node->right != nullptr) queue.push_back(node->right);
      }
      return bad;
    });
  }

  World& world() override { return *world_; }
  AddressSpace& arbiter_home() override { return *caller_; }
  [[nodiscard]] Sizing sizing() const override { return {150, 40}; }

  ProbeInput probe_input() override {
    ProbeInput in;
    in.home = caller_;
    in.receiver = callee_;
    in.pack_roots = {reinterpret_cast<std::uint64_t>(root_)};
    in.closure_bytes = kTreeClosureBytes;
    in.object_bytes = sizeof(TreeNode);
    in.type = type_;
    in.page_count = world_->options().cache.page_count;
    // A full-tree update dirties every page the tree fills.
    in.dirty_pages = update_ ? (c_.opt.nodes * sizeof(TreeNode) + 4095) / 4096 : 0;
    // One full-tree session's long pointers, in the order it meets them.
    caller_->run([&](Runtime&) {
      std::vector<const TreeNode*> stack{root_};
      while (!stack.empty()) {
        const TreeNode* node = stack.back();
        stack.pop_back();
        in.pointers.push_back(
            LongPointer{caller_->id(), reinterpret_cast<std::uint64_t>(node), type_});
        if (node->right != nullptr) stack.push_back(node->right);
        if (node->left != nullptr) stack.push_back(node->left);
      }
    });
    return in;
  }

 private:
  [[nodiscard]] std::uint64_t limit(int tenth) const {
    return static_cast<std::uint64_t>(c_.opt.nodes) * static_cast<std::uint64_t>(tenth) / 10;
  }

  void session(Runtime& rt, int tenth, bool traced, Samples& s) {
    const std::uint64_t nodes = limit(tenth);
    ++s.attempted;
    s.work_class = tenth;
    TimedSession session(c_, rt, traced, s);
    auto sum = session.call<std::int64_t>(callee_->id(), update_ ? "update" : "visit",
                                          root_, nodes);
    if (!sum.is_ok()) {
      session.abort();
      ++s.failed;
      return;
    }
    if (!session.end().is_ok()) {
      ++s.failed;
      return;
    }
    ++s.committed;
    ++commits_[tenth];

    // Output check: the callee's sum equals the same prefix visit on the
    // caller's local tree (after the update came home, for tree_update).
    // In traced sessions that local visit also prices a local dereference.
    std::int64_t expected = expected_sum_[tenth];
    if (update_ || traced) {
      std::int64_t local = 0;
      const double local_ns = session.timed_local("core.local_visit", [&] {
        local = srpc::workload::visit_prefix(root_, nodes);
      });
      if (update_) expected = local;
      if (traced && nodes > 0) {
        s.remote_deref_ns.push_back((session.body_ns() - local_ns) / static_cast<double>(nodes));
      }
    }
    if (sum.value() != expected) {
      ++s.failed;
      ++s.mismatches;
    }
  }

  Ctx& c_;
  const bool update_;
  std::unique_ptr<World> world_;
  AddressSpace* caller_ = nullptr;
  AddressSpace* callee_ = nullptr;
  srpc::TypeId type_ = srpc::kInvalidTypeId;
  TreeNode* root_ = nullptr;
  std::vector<std::uint32_t> rank_;
  std::array<std::int64_t, 11> expected_sum_{};
  std::array<std::uint64_t, 11> commits_{};
};

// ---------------------------------------------------------------------------
// List homes shared by small_rpc and multi_session: each home list has
// three nodes; sessions increment the head through a swizzled pointer.
// ---------------------------------------------------------------------------

constexpr std::int64_t kInitialValue = 1000;
constexpr std::uint64_t kTracedBlock = 64;  // sessions per traced/untraced block

ListNode* build_home_list(AddressSpace& home) {
  return home.run([](Runtime& rt) {
    return srpc::workload::build_list(rt, 3, [](std::uint32_t i) {
             return kInitialValue + i;
           }).value();
  });
}

// Every head equals its initial value plus the commits counted against it
// (fig8's coherency check: `violations` must be 0).
std::uint64_t count_violations(AddressSpace& home, const ListNode* head,
                               std::uint64_t commits) {
  return home.run([&](Runtime&) {
    return head->value == kInitialValue + static_cast<std::int64_t>(commits) ? 0 : 1;
  });
}

// ---------------------------------------------------------------------------
// small_rpc: one ground, three homes, single-session mode, closure 0. Each
// session makes 8 scalar echo calls to seeded homes, then gets the list
// head of every home, increments it through the swizzled pointer, and
// commits with a two-phase fan-out to all three homes.
// ---------------------------------------------------------------------------

constexpr int kHomes = 3;
constexpr int kEchoCalls = 8;

class SmallRpcWorkload final : public Workload {
 public:
  explicit SmallRpcWorkload(Ctx& c) : c_(c) {}

  void setup() override {
    WorldOptions options;
    options.cost = CostModel::zero();
    options.cache.closure_bytes = 0;
    world_ = std::make_unique<World>(options);
    ground_ = &world_->create_space("ground");
    for (int h = 0; h < kHomes; ++h) {
      homes_[h] = &world_->create_space("home" + std::to_string(h + 1));
    }
    type_ = srpc::workload::register_list_type(*world_).value();
    for (int h = 0; h < kHomes; ++h) {
      homes_[h]
          ->bind("echo",
                 [this](CallContext& ctx, std::int64_t x) {
                   return handler_body(c_, ctx, [&] { return x; });
                 })
          .check();
      homes_[h]
          ->bind("list",
                 [this, h](CallContext& ctx, std::int64_t) {
                   return handler_body(c_, ctx, [&] { return heads_[h]; });
                 })
          .check();
      heads_[h] = build_home_list(*homes_[h]);
    }
  }

  Samples run(Clock::time_point deadline) override {
    return ground_->run([&](Runtime& rt) {
      Samples s;
      srpc::Rng rng(c_.opt.seed);
      for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
        session(rt, rng, c_.spans.enabled() && (i / kTracedBlock) % 2 == 1, s);
      }
      committed_ = s.committed;
      return s;
    });
  }

  std::uint64_t verify() override {
    std::uint64_t bad = 0;
    for (int h = 0; h < kHomes; ++h) bad += count_violations(*homes_[h], heads_[h], committed_);
    return bad;
  }

  World& world() override { return *world_; }
  AddressSpace& arbiter_home() override { return *homes_[0]; }
  [[nodiscard]] Sizing sizing() const override { return {5000, 5000}; }

  ProbeInput probe_input() override {
    ProbeInput in;
    in.home = homes_[0];
    in.receiver = ground_;
    in.pack_roots = {reinterpret_cast<std::uint64_t>(heads_[0])};
    in.closure_bytes = 0;
    in.object_bytes = sizeof(ListNode);
    in.type = type_;
    in.page_count = world_->options().cache.page_count;
    in.dirty_pages = kHomes;  // one head per home, each on its own page
    for (int h = 0; h < kHomes; ++h) {
      in.pointers.push_back(
          LongPointer{homes_[h]->id(), reinterpret_cast<std::uint64_t>(heads_[h]), type_});
    }
    return in;
  }

 private:
  void session(Runtime& rt, srpc::Rng& rng, bool traced, Samples& s) {
    ++s.attempted;
    TimedSession session(c_, rt, traced, s);
    bool ok = true;
    std::uint64_t wrong = 0;
    for (int k = 0; k < kEchoCalls && ok; ++k) {
      const srpc::SpaceId home = homes_[rng.next_below(kHomes)]->id();
      const auto arg = static_cast<std::int64_t>(rng.next());
      auto echoed = session.call<std::int64_t>(home, "echo", arg);
      ok = echoed.is_ok();
      if (ok && echoed.value() != arg) ++wrong;
    }
    for (int h = 0; h < kHomes && ok; ++h) {
      auto head = session.call<ListNode*>(homes_[h]->id(), "list", std::int64_t{0});
      ok = head.is_ok() && head.value() != nullptr;
      if (ok) session.increment(head.value());
    }
    if (!ok) {
      session.abort();
      ++s.failed;
      return;
    }
    if (!session.end().is_ok()) {
      ++s.failed;
      return;
    }
    ++s.committed;
    if (wrong != 0) {
      ++s.failed;
      ++s.mismatches;
    }
  }

  Ctx& c_;
  std::unique_ptr<World> world_;
  AddressSpace* ground_ = nullptr;
  std::array<AddressSpace*, kHomes> homes_{};
  std::array<ListNode*, kHomes> heads_{};
  srpc::TypeId type_ = srpc::kInvalidTypeId;
  std::uint64_t committed_ = 0;
};

// ---------------------------------------------------------------------------
// multi_session: WorldOptions::multi_session, one home and two grounds
// driven by World::run_concurrent, closure 0. Each session gets a list head
// from the home and increments it: the ground's own list, or with seeded
// 10% probability the shared hot list. A session that loses the home's
// arbitration (kConflict) aborts and retries with fig8's backoff.
// ---------------------------------------------------------------------------

constexpr int kGrounds = 2;
constexpr double kHotShare = 0.10;
constexpr std::uint32_t kMaxAttempts = 512;  // fig8's retry budget

class MultiSessionWorkload final : public Workload {
 public:
  explicit MultiSessionWorkload(Ctx& c) : c_(c) {}

  void setup() override {
    WorldOptions options;
    options.cost = CostModel::zero();
    options.cache.closure_bytes = 0;
    options.multi_session = true;
    world_ = std::make_unique<World>(options);
    home_ = &world_->create_space("home");
    for (int g = 0; g < kGrounds; ++g) {
      grounds_[g] = &world_->create_space("g" + std::to_string(g + 1));
    }
    type_ = srpc::workload::register_list_type(*world_).value();
    home_
        ->bind("list",
               [this](CallContext& ctx, std::int64_t which) {
                 return handler_body(c_, ctx, [&] {
                   return heads_[static_cast<std::size_t>(which)];
                 });
               })
        .check();
    // List 0 is the hot list; list g is ground g's own.
    for (auto& head : heads_) head = build_home_list(*home_);
  }

  Samples run(Clock::time_point deadline) override {
    std::array<Samples, kGrounds> per_ground;
    std::array<std::array<std::uint64_t, kGrounds + 1>, kGrounds> commits{};
    std::array<std::string, kGrounds> errors;
    std::vector<std::pair<AddressSpace*, World::GroundFn>> jobs;
    for (int g = 0; g < kGrounds; ++g) {
      jobs.emplace_back(grounds_[g], [&, g](Runtime& rt) {
        // An exception must not escape a run_concurrent feeder thread.
        try {
          ground_loop(rt, g, deadline, per_ground[g], commits[g]);
        } catch (const std::exception& e) {
          errors[g] = e.what();
        }
      });
    }
    world_->run_concurrent(jobs);
    Samples s;
    for (int g = 0; g < kGrounds; ++g) {
      if (!errors[g].empty()) throw std::runtime_error("ground g" + std::to_string(g + 1) + ": " + errors[g]);
      s.merge(per_ground[g]);
      for (int w = 0; w <= kGrounds; ++w) commits_per_list_[w] += commits[g][w];
    }
    return s;
  }

  std::uint64_t verify() override {
    std::uint64_t bad = 0;
    for (int w = 0; w <= kGrounds; ++w) {
      bad += count_violations(*home_, heads_[w], commits_per_list_[w]);
    }
    return bad;
  }

  World& world() override { return *world_; }
  AddressSpace& arbiter_home() override { return *home_; }
  [[nodiscard]] Sizing sizing() const override { return {7500, 15000}; }

  ProbeInput probe_input() override {
    ProbeInput in;
    in.home = home_;
    in.receiver = grounds_[0];
    in.pack_roots = {reinterpret_cast<std::uint64_t>(heads_[1])};
    in.closure_bytes = 0;
    in.object_bytes = sizeof(ListNode);
    in.type = type_;
    in.page_count = world_->options().cache.page_count;
    for (const ListNode* head : heads_) {
      in.pointers.push_back(
          LongPointer{home_->id(), reinterpret_cast<std::uint64_t>(head), type_});
    }
    return in;
  }

 private:
  void ground_loop(Runtime& rt, int g, Clock::time_point deadline, Samples& s,
                   std::array<std::uint64_t, kGrounds + 1>& commits) {
    srpc::Rng rng(c_.opt.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(g) + 1);
    for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
      const bool traced = c_.spans.enabled() && (i / kTracedBlock) % 2 == 1;
      const int which = rng.next_bool(kHotShare) ? 0 : g + 1;
      ++s.attempted;
      if (logical_session(rt, which, traced, s)) ++commits[which];
    }
  }

  // One logical session: retried under a fresh session after each lost
  // arbitration. True when it committed.
  bool logical_session(Runtime& rt, int which, bool traced, Samples& s) {
    const auto opened = Clock::now();
    for (std::uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
      TimedSession session(c_, rt, traced, s, opened);
      auto head = session.call<ListNode*>(home_->id(), "list", std::int64_t{which});
      if (!head.is_ok() || head.value() == nullptr) {
        session.abort();
        break;
      }
      {
        Runtime::ScopedSession pin(rt, session.id());
        session.increment(head.value());
        // The overlay dies with the session: the traced run samples its
        // fault counters first.
        if (c_.spans.enabled()) {
          add_cache_stats(s.overlay_faults, std::as_const(rt).cache().stats());
        }
      }
      const Status ended = session.end();
      if (ended.is_ok()) {
        ++s.committed;
        return true;
      }
      if (ended.code() != srpc::StatusCode::kConflict) break;
      // Lost the arbitration: back off so the winner's commit window can
      // close, then retry under a fresh session (fig8's schedule).
      const auto t_sleep = Clock::now();
      std::this_thread::sleep_for(
          std::chrono::microseconds(200 * std::min<std::uint32_t>(attempt + 1, 16)));
      s.backoff_us += us_between(t_sleep, Clock::now());
    }
    ++s.failed;
    return false;
  }

  Ctx& c_;
  std::unique_ptr<World> world_;
  AddressSpace* home_ = nullptr;
  std::array<AddressSpace*, kGrounds> grounds_{};
  std::array<ListNode*, kGrounds + 1> heads_{};
  srpc::TypeId type_ = srpc::kInvalidTypeId;
  std::array<std::uint64_t, kGrounds + 1> commits_per_list_{};
};

}  // namespace

void Samples::merge(const Samples& o) {
  attempted += o.attempted;
  committed += o.committed;
  failed += o.failed;
  mismatches += o.mismatches;
  commit_attempts += o.commit_attempts;
  backoff_us += o.backoff_us;
  auto append = [](auto& a, const auto& b) { a.insert(a.end(), b.begin(), b.end()); };
  append(session_us, o.session_us);
  append(call_us, o.call_us);
  append(commit_us, o.commit_us);
  append(session_class, o.session_class);
  append(call_class, o.call_class);
  append(commit_class, o.commit_class);
  append(traced_session_us, o.traced_session_us);
  append(call_overhead_us, o.call_overhead_us);
  append(remote_deref_ns, o.remote_deref_ns);
  add_cache_stats(overlay_faults, o.overlay_faults);
}

void add_cache_stats(srpc::CacheStats& into, const srpc::CacheStats& s) {
  into.read_faults += s.read_faults;
  into.write_faults += s.write_faults;
  into.fetches += s.fetches;
  into.closure_prefetch_hits += s.closure_prefetch_hits;
  into.closure_prefetch_misses += s.closure_prefetch_misses;
}

void Handover::set_call(std::uint64_t session, std::uint64_t span) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[session] = Entry{span, 0, 0};
}

std::uint64_t Handover::call_span(std::uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(session);
  return it == entries_.end() ? 0 : it->second.call_span;
}

void Handover::set_handler(std::uint64_t session, std::uint64_t handler,
                           std::uint64_t body) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[session];
  e.handler_span = handler;
  e.body_span = body;
}

Handover::Entry Handover::take(std::uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(session);
  if (it == entries_.end()) return {};
  const Entry e = it->second;
  entries_.erase(it);
  return e;
}

std::unique_ptr<Workload> make_workload(Ctx& c) {
  const std::string& w = c.opt.workload;
  if (w == "tree_search") return std::make_unique<TreeWorkload>(c, false);
  if (w == "tree_update") return std::make_unique<TreeWorkload>(c, true);
  if (w == "small_rpc") return std::make_unique<SmallRpcWorkload>(c);
  if (w == "multi_session") return std::make_unique<MultiSessionWorkload>(c);
  throw std::invalid_argument("unknown workload: " + w);
}

}  // namespace wallbench

// CacheManager unit tests: swizzling into protected pages, fault-driven
// fills against a mock home, dirty tracking, overlays, invalidation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/cache_manager.hpp"
#include "core/debug.hpp"
#include "core/graph_payload.hpp"
#include "core/smart_rpc.hpp"
#include "types/type_registry.hpp"
#include "workload/list.hpp"

namespace srpc {
namespace {

constexpr SpaceId kSelf = 0;
constexpr SpaceId kHomeA = 1;
constexpr SpaceId kHomeB = 2;

// An in-memory "home" serving fetches: fake home addresses map to typed
// host-layout images whose pointer fields hold other fake home addresses.
class MockHome : public PointerTranslator {
 public:
  MockHome(SpaceId space, const TypeRegistry& registry, const LayoutEngine& layouts)
      : space_(space), codec_{registry, layouts} {}

  void put(std::uint64_t addr, TypeId type, std::vector<std::uint8_t> image) {
    objects_[addr] = {type, std::move(image)};
  }

  [[nodiscard]] SpaceId space() const noexcept { return space_; }

  Result<LongPointer> unswizzle(std::uint64_t ordinary, TypeId pointee) override {
    auto it = objects_.find(ordinary);
    if (it == objects_.end()) {
      (void)pointee;
      return not_found("mock home: unknown address");
    }
    return LongPointer{space_, ordinary, it->second.type};
  }

  Result<std::uint64_t> swizzle(const LongPointer&, TypeId) override {
    return internal_error("mock home never swizzles");
  }

  // Builds a FETCH_REPLY buffer (count + one payload) for `addrs`.
  Result<ByteBuffer> serve(std::span<const LongPointer> pointers) {
    std::vector<GraphObjectRef> refs;
    for (const LongPointer& p : pointers) {
      auto it = objects_.find(p.address);
      if (it == objects_.end()) {
        return not_found("mock home: fetch of unknown datum");
      }
      refs.push_back({p.address, it->second.type, it->second.image.data()});
    }
    ByteBuffer out;
    xdr::Encoder enc(out);
    enc.put_u32(1);
    SRPC_RETURN_IF_ERROR(
        encode_graph_payload(codec_, host_arch(), space_, refs, *this, out));
    return out;
  }

 private:
  struct Obj {
    TypeId type;
    std::vector<std::uint8_t> image;
  };
  SpaceId space_;
  ValueCodec codec_;
  std::map<std::uint64_t, Obj> objects_;
};

class MockFetcher final : public PageFetcher {
 public:
  void add_home(MockHome* home) { homes_[home->space()] = home; }

  Result<ByteBuffer> fetch(SpaceId home, std::span<const LongPointer> pointers,
                           std::uint64_t, SessionId) override {
    ++fetches;
    auto it = homes_.find(home);
    if (it == homes_.end()) return not_found("no such mock home");
    return it->second->serve(pointers);
  }

  void charge_fault() override { ++faults; }

  Result<std::uint64_t> swizzle_home(const LongPointer&, TypeId) override {
    return internal_error("self-homed pointer in cache test");
  }

  // One owner: every page the cache hands out belongs to `pages`.
  SessionId current_session() const noexcept override { return kNoSession; }
  SessionPages& pages_of(SessionId) override { return pages; }
  const SessionPages* find_pages(SessionId) const override { return &pages; }

  int fetches = 0;
  int faults = 0;
  std::map<SpaceId, MockHome*> homes_;
  SessionPages pages;
};

struct Node {
  Node* next;
  std::int64_t value;
};

class CacheManagerTest : public ::testing::Test {
 protected:
  CacheManagerTest() : layouts_(registry_), home_a_(kHomeA, registry_, layouts_),
                       home_b_(kHomeB, registry_, layouts_) {
    auto node = registry_.declare_struct("CNode");
    node.status().check();
    node_ = node.value();
    registry_
        .define_struct(node_, {{"next", registry_.pointer_to(node_)},
                               {"value", TypeRegistry::scalar_id(ScalarType::kI64)}})
        .check();
    fetcher_.add_home(&home_a_);
    fetcher_.add_home(&home_b_);
  }

  std::unique_ptr<CacheManager> make_cache(
      AllocationStrategy strategy = AllocationStrategy::kClusterByOrigin) {
    CacheOptions options;
    options.page_count = 64;
    options.strategy = strategy;
    auto cache = std::make_unique<CacheManager>(registry_, layouts_, host_arch(),
                                                kSelf, options, fetcher_);
    cache->init().check();
    return cache;
  }

  // Registers a list node image in a mock home.
  void put_node(MockHome& home, std::uint64_t addr, std::uint64_t next_addr,
                std::int64_t value) {
    std::vector<std::uint8_t> image(sizeof(Node), 0);
    Node n{reinterpret_cast<Node*>(next_addr), value};
    std::memcpy(image.data(), &n, sizeof n);
    home.put(addr, node_, std::move(image));
  }

  TypeRegistry registry_;
  LayoutEngine layouts_;
  MockHome home_a_;
  MockHome home_b_;
  MockFetcher fetcher_;
  TypeId node_ = kInvalidTypeId;
};

TEST_F(CacheManagerTest, SwizzleAllocatesStableProtectedLocation) {
  auto cache = make_cache();
  const LongPointer lp{kHomeA, 0x1000, node_};
  auto first = cache->swizzle(lp, node_);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  auto second = cache->swizzle(lp, node_);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value(), second.value());  // idempotent

  const auto* entry = cache->lookup(lp);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(cache->page_state(entry->page), PageState::kAllocated);
  EXPECT_FALSE(cache->is_resident(entry->local));
  EXPECT_TRUE(cache->contains(entry->local));
}

TEST_F(CacheManagerTest, SwizzleRejectsNullAndSelf) {
  auto cache = make_cache();
  EXPECT_FALSE(cache->swizzle(LongPointer::null(), node_).is_ok());
  EXPECT_EQ(cache->swizzle({kSelf, 0x1000, node_}, node_).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CacheManagerTest, ClusterStrategySeparatesOrigins) {
  auto cache = make_cache(AllocationStrategy::kClusterByOrigin);
  cache->swizzle({kHomeA, 0x1000, node_}, node_).status().check();
  cache->swizzle({kHomeB, 0x1000, node_}, node_).status().check();
  const auto* a = cache->lookup({kHomeA, 0x1000, node_});
  const auto* b = cache->lookup({kHomeB, 0x1000, node_});
  EXPECT_NE(a->page, b->page);
}

TEST_F(CacheManagerTest, MixedStrategySharesPages) {
  auto cache = make_cache(AllocationStrategy::kMixed);
  cache->swizzle({kHomeA, 0x1000, node_}, node_).status().check();
  cache->swizzle({kHomeB, 0x1000, node_}, node_).status().check();
  const auto* a = cache->lookup({kHomeA, 0x1000, node_});
  const auto* b = cache->lookup({kHomeB, 0x1000, node_});
  EXPECT_EQ(a->page, b->page);
}

TEST_F(CacheManagerTest, FaultTransfersAllDataOnThePage) {
  put_node(home_a_, 0x1000, 0, 111);
  put_node(home_a_, 0x2000, 0, 222);
  auto cache = make_cache();
  auto p1 = cache->swizzle({kHomeA, 0x1000, node_}, node_);
  auto p2 = cache->swizzle({kHomeA, 0x2000, node_}, node_);
  ASSERT_TRUE(p1.is_ok());
  ASSERT_TRUE(p2.is_ok());

  // First access faults; the fill must bring BOTH (paper §3.2: "All of the
  // other data allocated to the page must be transferred at this time").
  const Node* n1 = reinterpret_cast<const Node*>(p1.value());
  EXPECT_EQ(n1->value, 111);
  EXPECT_EQ(fetcher_.faults, 1);
  EXPECT_EQ(fetcher_.fetches, 1);

  const Node* n2 = reinterpret_cast<const Node*>(p2.value());
  EXPECT_EQ(n2->value, 222);
  EXPECT_EQ(fetcher_.faults, 1);  // no second fault
  EXPECT_EQ(cache->stats().objects_filled, 2u);
}

TEST_F(CacheManagerTest, PointerFieldsAreSwizzledDuringFill) {
  put_node(home_a_, 0x1000, 0x2000, 1);
  put_node(home_a_, 0x2000, 0, 2);
  auto cache = make_cache();
  auto p1 = cache->swizzle({kHomeA, 0x1000, node_}, node_);
  ASSERT_TRUE(p1.is_ok());

  const Node* n1 = reinterpret_cast<const Node*>(p1.value());
  EXPECT_EQ(n1->value, 1);
  // The next pointer was swizzled to a local protected location.
  ASSERT_NE(n1->next, nullptr);
  EXPECT_TRUE(cache->contains(n1->next));
  // Dereferencing it faults and fetches the second node.
  EXPECT_EQ(n1->next->value, 2);
  EXPECT_EQ(fetcher_.faults, 2);
}

TEST_F(CacheManagerTest, WriteFaultUpgradesCleanPageToDirty) {
  put_node(home_a_, 0x1000, 0, 5);
  auto cache = make_cache();
  auto p = cache->swizzle({kHomeA, 0x1000, node_}, node_);
  ASSERT_TRUE(p.is_ok());
  Node* n = reinterpret_cast<Node*>(p.value());
  EXPECT_EQ(n->value, 5);  // read fault -> clean
  const auto* entry = cache->lookup({kHomeA, 0x1000, node_});
  EXPECT_EQ(cache->page_state(entry->page), PageState::kClean);

  n->value = 50;  // write fault -> dirty
  EXPECT_EQ(cache->page_state(entry->page), PageState::kDirty);
  EXPECT_EQ(fetcher_.faults, 2);
  EXPECT_EQ(cache->stats().write_faults, 1u);

  auto modified = cache->collect_modified();
  ASSERT_EQ(modified.size(), 1u);
  EXPECT_EQ(modified[0].id.address, 0x1000u);
}

TEST_F(CacheManagerTest, DirectWriteToUnfetchedDataTakesTwoFaults) {
  put_node(home_a_, 0x1000, 0, 7);
  auto cache = make_cache();
  auto p = cache->swizzle({kHomeA, 0x1000, node_}, node_);
  ASSERT_TRUE(p.is_ok());
  Node* n = reinterpret_cast<Node*>(p.value());
  n->value = 70;  // fill fault, then genuine write-upgrade fault
  EXPECT_EQ(fetcher_.faults, 2);
  EXPECT_EQ(n->value, 70);
  EXPECT_EQ(n->next, nullptr);
}

TEST_F(CacheManagerTest, IncomingDirtyOverwritesResidentData) {
  put_node(home_a_, 0x1000, 0, 5);
  auto cache = make_cache();
  auto p = cache->swizzle({kHomeA, 0x1000, node_}, node_);
  ASSERT_TRUE(p.is_ok());
  const Node* n = reinterpret_cast<const Node*>(p.value());
  EXPECT_EQ(n->value, 5);

  auto dest = cache->prepare_incoming_dirty({kHomeA, 0x1000, node_});
  ASSERT_TRUE(dest.is_ok());
  Node incoming{nullptr, 99};
  std::memcpy(dest.value(), &incoming, sizeof incoming);
  EXPECT_EQ(n->value, 99);
  const auto* entry = cache->lookup({kHomeA, 0x1000, node_});
  EXPECT_EQ(cache->page_state(entry->page), PageState::kDirty);
}

TEST_F(CacheManagerTest, IncomingDirtyOverlayAppliesAtFillTime) {
  put_node(home_a_, 0x1000, 0, 5);  // home's (stale) value
  auto cache = make_cache();
  cache->swizzle({kHomeA, 0x1000, node_}, node_).status().check();

  // A modified data set arrives for the not-yet-fetched datum.
  auto dest = cache->prepare_incoming_dirty({kHomeA, 0x1000, node_});
  ASSERT_TRUE(dest.is_ok());
  Node newer{nullptr, 500};
  std::memcpy(dest.value(), &newer, sizeof newer);

  // The overlay is already part of the modified set (it must keep
  // travelling even though the page never faulted).
  auto modified = cache->collect_modified();
  ASSERT_EQ(modified.size(), 1u);

  // Faulting the page fetches the home's stale bytes but overlays ours.
  const auto* entry = cache->lookup({kHomeA, 0x1000, node_});
  const Node* n = reinterpret_cast<const Node*>(entry->local);
  EXPECT_EQ(n->value, 500);
  EXPECT_EQ(cache->page_state(entry->page), PageState::kDirty);
}

TEST_F(CacheManagerTest, AllocateResidentIsBornDirtyAndRebinds) {
  auto cache = make_cache();
  const LongPointer provisional{kHomeA, (1ULL << 63) | (1ULL << 40), node_};
  auto slot = cache->allocate_resident(provisional, sizeof(Node), alignof(Node));
  ASSERT_TRUE(slot.is_ok()) << slot.status().to_string();
  Node* n = static_cast<Node*>(slot.value());
  n->value = 42;  // writable immediately, no faults
  EXPECT_EQ(fetcher_.faults, 0);

  ASSERT_TRUE(cache->rebind(provisional, {kHomeA, 0x9000, node_}).is_ok());
  auto modified = cache->collect_modified();
  ASSERT_EQ(modified.size(), 1u);
  EXPECT_EQ(modified[0].id.address, 0x9000u);
}

TEST_F(CacheManagerTest, SealedPageRefusesNewAllocations) {
  put_node(home_a_, 0x1000, 0, 1);
  auto cache = make_cache();
  auto p1 = cache->swizzle({kHomeA, 0x1000, node_}, node_);
  ASSERT_TRUE(p1.is_ok());
  const auto* first = cache->lookup({kHomeA, 0x1000, node_});
  const PageIndex first_page = first->page;

  // Make the page resident (seals it)...
  EXPECT_EQ(reinterpret_cast<const Node*>(p1.value())->value, 1);
  ASSERT_EQ(cache->page_state(first_page), PageState::kClean);
  // ...then swizzle another datum of the same origin: it must land elsewhere.
  cache->swizzle({kHomeA, 0x2000, node_}, node_).status().check();
  const auto* second = cache->lookup({kHomeA, 0x2000, node_});
  EXPECT_NE(second->page, first_page);
}

TEST_F(CacheManagerTest, LargeDatumSpansExclusivePages) {
  const TypeId big = registry_.array_of(TypeRegistry::scalar_id(ScalarType::kI64),
                                        1500);  // 12000 bytes: 3 pages
  std::vector<std::uint8_t> image(12000, 0);
  for (int i = 0; i < 1500; ++i) {
    reinterpret_cast<std::int64_t*>(image.data())[i] = i;
  }
  home_a_.put(0x8000, big, std::move(image));

  auto cache = make_cache();
  auto p = cache->swizzle({kHomeA, 0x8000, big}, big);
  ASSERT_TRUE(p.is_ok());
  const auto* entry = cache->lookup({kHomeA, 0x8000, big});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->size, 12000u);

  // Fault in the MIDDLE page: the whole datum must arrive.
  const auto* values = reinterpret_cast<const std::int64_t*>(p.value());
  EXPECT_EQ(values[800], 800);   // middle page
  EXPECT_EQ(values[0], 0);       // first page, no extra fault
  EXPECT_EQ(values[1499], 1499); // last page, no extra fault
  EXPECT_EQ(fetcher_.faults, 1);
}

TEST_F(CacheManagerTest, InteriorPointersResolveIntoContainingEntry) {
  const TypeId arr =
      registry_.array_of(TypeRegistry::scalar_id(ScalarType::kI64), 8);
  std::vector<std::uint8_t> image(64, 0);
  home_a_.put(0x4000, arr, std::move(image));

  auto cache = make_cache();
  auto base = cache->swizzle({kHomeA, 0x4000, arr}, arr);
  ASSERT_TRUE(base.is_ok());
  // An interior home pointer to element 3 maps inside the same entry.
  auto elem = cache->swizzle({kHomeA, 0x4000 + 24, TypeRegistry::scalar_id(ScalarType::kI64)},
                             TypeRegistry::scalar_id(ScalarType::kI64));
  ASSERT_TRUE(elem.is_ok());
  EXPECT_EQ(elem.value(), base.value() + 24);

  // And unswizzling the interior cache address recovers the home address.
  auto lp = cache->unswizzle(reinterpret_cast<const void*>(base.value() + 24));
  ASSERT_TRUE(lp.is_ok()) << lp.status().to_string();
  EXPECT_EQ(lp.value().address, 0x4000u + 24);
}

TEST_F(CacheManagerTest, InvalidateDropsEverything) {
  put_node(home_a_, 0x1000, 0, 1);
  auto cache = make_cache();
  auto p = cache->swizzle({kHomeA, 0x1000, node_}, node_);
  ASSERT_TRUE(p.is_ok());
  EXPECT_EQ(reinterpret_cast<const Node*>(p.value())->value, 1);

  cache->release(fetcher_.pages);
  EXPECT_EQ(cache->table().size(), 0u);
  EXPECT_EQ(cache->lookup({kHomeA, 0x1000, node_}), nullptr);
  EXPECT_TRUE(cache->collect_modified().empty());
  // The old page is back to kEmpty: a stale dereference is detectable.
  EXPECT_FALSE(cache->on_fault(reinterpret_cast<void*>(p.value()), FaultAccess::kRead));

  // The arena is reusable: fresh swizzles work.
  auto again = cache->swizzle({kHomeA, 0x1000, node_}, node_);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(reinterpret_cast<const Node*>(again.value())->value, 1);
}

TEST_F(CacheManagerTest, FetchFailureFailsTheFault) {
  auto cache = make_cache();
  // Swizzle a pointer to a datum the home does not have (dangling).
  auto p = cache->swizzle({kHomeA, 0xDEAD000, node_}, node_);
  ASSERT_TRUE(p.is_ok());
  EXPECT_FALSE(cache->on_fault(reinterpret_cast<void*>(p.value()), FaultAccess::kRead));
}

TEST_F(CacheManagerTest, IncorporateCleanPayloadSkipsExistingData) {
  put_node(home_a_, 0x1000, 0, 5);
  auto cache = make_cache();
  auto p = cache->swizzle({kHomeA, 0x1000, node_}, node_);
  ASSERT_TRUE(p.is_ok());
  Node* n = reinterpret_cast<Node*>(p.value());
  EXPECT_EQ(n->value, 5);
  n->value = 777;  // dirty local copy

  // A clean closure payload with the stale home value arrives; it must NOT
  // clobber the newer local data.
  home_a_.put(0x1000, node_, [] {
    std::vector<std::uint8_t> image(sizeof(Node), 0);
    Node stale{nullptr, 5};
    std::memcpy(image.data(), &stale, sizeof stale);
    return image;
  }());
  LongPointer lp{kHomeA, 0x1000, node_};
  auto reply = home_a_.serve(std::span<const LongPointer>(&lp, 1));
  ASSERT_TRUE(reply.is_ok());
  xdr::Decoder dec(reply.value());
  ASSERT_TRUE(dec.get_u32().is_ok());  // skip the payload count
  ASSERT_TRUE(cache->incorporate_clean_payload(reply.value()).is_ok());
  EXPECT_EQ(n->value, 777);
  EXPECT_EQ(cache->stats().objects_skipped, 1u);
}

// What one session's ground cache looks like just before commit: the
// modified set (ids as list positions, so runs on different heaps compare)
// and the page dump.
struct ArenaRun {
  std::vector<std::string> deltas;
  std::size_t used = 0;
  std::size_t counts[4] = {};  // empty, allocated, clean, dirty
};

ArenaRun run_list_session(std::size_t page_count) {
  using workload::ListNode;
  WorldOptions options;
  options.cost = CostModel::zero();
  options.cache.page_count = page_count;
  World world(options);
  auto& ground = world.create_space("ground");
  auto& home = world.create_space("home");
  workload::register_list_type(world).status().check();
  ListNode* head = home.run([](Runtime& rt) {
    return workload::build_list(rt, 600, [](std::uint32_t i) {
             return static_cast<std::int64_t>(i);
           }).value();
  });
  home.bind("list", [head](CallContext&) -> ListNode* { return head; }).check();

  ArenaRun run;
  ground.run([&](Runtime& rt) {
    Session session(rt);
    auto list = session.call<ListNode*>(home.id(), "list");
    list.status().check();
    std::map<std::uint64_t, std::size_t> position;  // home address -> index
    std::size_t i = 0;
    for (ListNode* n = list.value(); n != nullptr; n = n->next, ++i) {
      position[rt.cache().unswizzle(n).value().address] = i;
      if (i % 7 == 0) n->value += 1000;  // a write fault dirties its page
    }
    for (const CacheManager::ModifiedDatum& d : rt.cache().collect_modified_deltas()) {
      std::int64_t value = 0;
      std::memcpy(&value, d.image + offsetof(ListNode, value), sizeof value);
      std::string line = std::to_string(position.at(d.id.address)) +
                         " size=" + std::to_string(d.size) +
                         " baseline=" + std::to_string(d.has_baseline) +
                         " complete=" + std::to_string(d.complete) +
                         " value=" + std::to_string(value);
      for (const ByteRange& r : d.dirty) {
        line += " [" + std::to_string(r.offset) + "+" + std::to_string(r.len) + "]";
      }
      run.deltas.push_back(line);
    }
    run.used = rt.cache().pages_used();
    const std::string dump = dump_page_states(rt);
    EXPECT_EQ(std::sscanf(dump.c_str(),
                          "pages of space %*u: empty=%zu allocated=%zu clean=%zu dirty=%zu",
                          &run.counts[0], &run.counts[1], &run.counts[2], &run.counts[3]),
              4)
        << dump;
    session.end().check();
  });
  return run;
}

TEST(CacheArenaSize, ModifiedSetAndPageDumpDoNotDependOnTheArena) {
  const ArenaRun small = run_list_session(256);
  const ArenaRun large = run_list_session(65536);
  // Every entry on a dirty page is listed; only the 86 written ones (nodes
  // 0, 7, ..., 595) carry dirty ranges.
  EXPECT_EQ(std::count_if(small.deltas.begin(), small.deltas.end(),
                          [](const std::string& d) { return d.find(" [") != d.npos; }),
            86);
  EXPECT_EQ(small.deltas, large.deltas);
  EXPECT_GT(small.used, 1u);
  EXPECT_EQ(small.used, large.used);
  EXPECT_EQ(small.counts[0], 256 - small.used);
  EXPECT_EQ(large.counts[0], 65536 - large.used);
  EXPECT_EQ(small.counts[1] + small.counts[2] + small.counts[3], small.used);
  for (int s = 1; s < 4; ++s) EXPECT_EQ(small.counts[s], large.counts[s]) << s;
  EXPECT_GT(small.counts[3], 0u);
}

}  // namespace
}  // namespace srpc

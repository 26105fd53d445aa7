// Delta-encoded modified sets (PROTOCOL.md "MODIFIED_DELTA"): byte-range
// primitives, the wire codec, cache twin/overlay plumbing, and the
// runtime's epoch/fingerprint shipping decisions.
#include <gtest/gtest.h>

#include <cstring>

#include "common/byte_range.hpp"
#include "core/cache_manager.hpp"
#include "core/smart_rpc.hpp"
#include "rpc/wire.hpp"
#include "types/arch.hpp"
#include "workload/list.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace srpc {
namespace {

using workload::ListNode;

// --- byte-range primitives -------------------------------------------------

TEST(ByteRangeTest, MergeCoalescesOverlappingAndAdjacent) {
  std::vector<ByteRange> r{{10, 4}, {0, 4}, {4, 2}, {12, 8}};
  merge_ranges(r);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].offset, 0u);
  EXPECT_EQ(r[0].len, 6u);
  EXPECT_EQ(r[1].offset, 10u);
  EXPECT_EQ(r[1].len, 10u);
}

TEST(ByteRangeTest, DiffFindsChangedRunsAndAbsorbsSmallGaps) {
  std::uint8_t twin[32] = {};
  std::uint8_t cur[32] = {};
  cur[2] = 1;           // run one
  cur[4] = 2;           // gap of 1 < merge_gap: absorbed into run one
  cur[20] = 3;          // far away: its own run
  std::vector<ByteRange> out;
  diff_ranges(cur, twin, 32, /*base=*/100, /*merge_gap=*/4, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].offset, 102u);
  EXPECT_EQ(out[0].len, 3u);  // bytes 2..4 inclusive
  EXPECT_EQ(out[1].offset, 120u);
  EXPECT_EQ(out[1].len, 1u);
  // Identical images: no ranges.
  out.clear();
  diff_ranges(twin, twin, 32, 0, 4, out);
  EXPECT_TRUE(out.empty());
}

TEST(ByteRangeTest, IntersectionRequiresActualOverlap) {
  const std::vector<ByteRange> a{{0, 4}, {16, 8}};
  const std::vector<ByteRange> b{{4, 8}, {24, 4}};
  const std::vector<ByteRange> c{{20, 2}};
  EXPECT_FALSE(ranges_intersect(a, b));  // all touching, none overlapping
  EXPECT_TRUE(ranges_intersect(a, c));
  EXPECT_EQ(ranges_bytes(a), 12u);
}

TEST(ByteRangeTest, FingerprintTracksCoveredContent) {
  std::uint8_t image[16] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<ByteRange> ranges{{0, 4}};
  const std::uint64_t fp1 = fingerprint_ranges(image, ranges);
  image[2] ^= 0xFF;
  const std::uint64_t fp2 = fingerprint_ranges(image, ranges);
  EXPECT_NE(fp1, fp2);
  image[9] ^= 0xFF;  // outside every range: no effect
  EXPECT_EQ(fingerprint_ranges(image, ranges), fp2);
  // Same bytes under a different covering must fingerprint differently.
  const std::vector<ByteRange> shifted{{1, 4}};
  EXPECT_NE(fingerprint_ranges(image, ranges), fingerprint_ranges(image, shifted));
}

// --- wire codec ------------------------------------------------------------

TEST(ModifiedDeltaWireTest, RoundtripsRangesAndBytes) {
  std::uint8_t image[64];
  for (int i = 0; i < 64; ++i) image[i] = static_cast<std::uint8_t>(i * 3);
  const LongPointer id{2, 0xBEEF, 7};
  const std::vector<ByteRange> ranges{{4, 3}, {40, 10}};

  ByteBuffer buf;
  xdr::Encoder enc(buf);
  encode_modified_delta(enc, id, /*epoch=*/42, ranges, image);
  EXPECT_EQ(buf.size(), modified_delta_wire_size(ranges));

  xdr::Decoder dec(buf);
  auto delta = decode_modified_delta(dec);
  ASSERT_TRUE(delta.is_ok()) << delta.status().to_string();
  EXPECT_EQ(delta.value().id, id);
  EXPECT_EQ(delta.value().epoch, 42u);
  ASSERT_EQ(delta.value().ranges.size(), 2u);
  ASSERT_EQ(delta.value().bytes.size(), 13u);
  EXPECT_EQ(std::memcmp(delta.value().bytes.data(), image + 4, 3), 0);
  EXPECT_EQ(std::memcmp(delta.value().bytes.data() + 3, image + 40, 10), 0);
}

TEST(ModifiedDeltaWireTest, RejectsOutOfOrderRanges) {
  std::uint8_t image[64] = {};
  ByteBuffer buf;
  xdr::Encoder enc(buf);
  // Hand-encode a malformed entry: overlapping, out-of-order ranges.
  encode_long_pointer(enc, LongPointer{1, 0x10, 3});
  enc.put_u64(1);  // epoch
  enc.put_u32(2);  // nranges
  enc.put_u32(8);
  enc.put_u32(8);
  enc.put_opaque_fixed({image, 8});
  enc.put_u32(4);  // offset < previous end
  enc.put_u32(8);
  enc.put_opaque_fixed({image, 8});

  xdr::Decoder dec(buf);
  auto delta = decode_modified_delta(dec);
  ASSERT_FALSE(delta.is_ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kProtocolError);
}

// --- cache options validation ---------------------------------------------

class NeverFetch final : public PageFetcher {
 public:
  Result<ByteBuffer> fetch(SpaceId, std::span<const LongPointer>,
                           std::uint64_t, SessionId) override {
    return internal_error("no fetch expected");
  }
  void charge_fault() override {}
  Result<std::uint64_t> swizzle_home(const LongPointer&, TypeId) override {
    return internal_error("no swizzle expected");
  }
  SessionId current_session() const noexcept override { return kNoSession; }
  SessionPages& pages_of(SessionId) override { return pages; }
  const SessionPages* find_pages(SessionId) const override { return &pages; }
  SessionPages pages;
};

TEST(CacheOptionsTest, InitRejectsZeroPageCount) {
  TypeRegistry registry;
  LayoutEngine layouts(registry);
  NeverFetch fetcher;
  CacheOptions options;
  options.page_count = 0;
  CacheManager cache(registry, layouts, host_arch(), 0, options, fetcher);
  Status init = cache.init();
  ASSERT_FALSE(init.is_ok());
  EXPECT_EQ(init.code(), StatusCode::kInvalidArgument);
}

TEST(CacheOptionsTest, InitRejectsClosureLargerThanArena) {
  TypeRegistry registry;
  LayoutEngine layouts(registry);
  NeverFetch fetcher;
  CacheOptions options;
  options.page_count = 4;
  options.page_size = 4096;
  options.closure_bytes = 5 * 4096;
  CacheManager cache(registry, layouts, host_arch(), 0, options, fetcher);
  Status init = cache.init();
  ASSERT_FALSE(init.is_ok());
  EXPECT_EQ(init.code(), StatusCode::kInvalidArgument);
}

TEST(CacheOptionsTest, SetClosureBytesValidatesAgainstArena) {
  TypeRegistry registry;
  LayoutEngine layouts(registry);
  NeverFetch fetcher;
  CacheOptions options;
  options.page_count = 4;
  options.page_size = 4096;
  CacheManager cache(registry, layouts, host_arch(), 0, options, fetcher);
  ASSERT_TRUE(cache.init().is_ok());
  EXPECT_TRUE(cache.set_closure_bytes(0).is_ok());  // legitimate: force FETCHes
  EXPECT_TRUE(cache.set_closure_bytes(4 * 4096).is_ok());
  Status too_big = cache.set_closure_bytes(4 * 4096 + 1);
  ASSERT_FALSE(too_big.is_ok());
  EXPECT_EQ(too_big.code(), StatusCode::kInvalidArgument);
}

// --- runtime shipping decisions --------------------------------------------

WorldOptions fast_world() {
  WorldOptions options;
  options.cost = CostModel::zero();
  return options;
}

class DeltaRuntimeTest : public ::testing::Test {
 protected:
  explicit DeltaRuntimeTest(WorldOptions options = fast_world())
      : world_(options) {
    a_ = &world_.create_space("A");
    b_ = &world_.create_space("B");
    c_ = &world_.create_space("C");
    workload::register_list_type(world_).status().check();
  }

  RuntimeStats stats_of(AddressSpace* space) {
    return space->run([](Runtime& rt) { return rt.stats(); });
  }

  World world_;
  AddressSpace* a_ = nullptr;
  AddressSpace* b_ = nullptr;
  AddressSpace* c_ = nullptr;
};

// A wide object whose type the delta machinery can beat: 256 bytes of
// scalars. A sparse write inside it must travel as a byte-range delta,
// not as the full image.
struct Blob {
  std::int64_t vals[32];
};

TEST_F(DeltaRuntimeTest, SparseUpdateShipsAsDelta) {
  auto blob_type = world_.describe<Blob>("Blob");
  blob_type.array_field("vals", &Blob::vals);
  world_.register_type(blob_type).status().check();

  ASSERT_TRUE(b_->bind("bump_third",
                       [](CallContext&, Blob* blob) -> std::int64_t {
                         blob->vals[3] += 5;
                         return blob->vals[3];
                       })
                  .is_ok());
  a_->run([&](Runtime& rt) {
    auto type = rt.host_types().find<Blob>();
    type.status().check();
    auto mem = rt.heap().allocate(type.value());
    mem.status().check();
    auto* blob = static_cast<Blob*>(mem.value());
    for (int i = 0; i < 32; ++i) blob->vals[i] = i;
    Session session(rt);
    auto v = session.call<std::int64_t>(b_->id(), "bump_third", blob);
    ASSERT_TRUE(v.is_ok()) << v.status().to_string();
    EXPECT_EQ(v.value(), 8);
    EXPECT_EQ(blob->vals[3], 8);   // applied at home from the delta
    EXPECT_EQ(blob->vals[4], 4);   // neighbours untouched
    ASSERT_TRUE(session.end().is_ok());
  });
  const RuntimeStats b_stats = stats_of(b_);
  EXPECT_GT(b_stats.delta_bytes_shipped, 0u);
  // One 8-byte write in a 256-byte object: the delta section must undercut
  // even a single full image of the blob.
  EXPECT_LT(b_stats.delta_bytes_shipped, sizeof(Blob));
}

// One foreign-arch space anywhere in the world turns deltas off for every
// send, host to host included: the sparse write that ships as a delta in a
// uniform world travels as a full image, and the session still commits
// through WB_PREPARE/WB_COMMIT.
TEST(DeltaMixedArchTest, HostToHostUpdateShipsFullImageAndCommitsTwoPhase) {
  for (const bool mixed : {false, true}) {
    SCOPED_TRACE(mixed ? "mixed-arch world" : "uniform world");
    World world(fast_world());
    AddressSpace& a = world.create_space("A");
    AddressSpace& b = world.create_space("B");
    if (mixed) world.create_space("S", sparc32_arch());
    auto blob_type = world.describe<Blob>("Blob");
    blob_type.array_field("vals", &Blob::vals);
    world.register_type(blob_type).status().check();

    Blob* home = nullptr;
    b.run([&](Runtime& rt) {
      auto mem = rt.heap().allocate(rt.host_types().find<Blob>().value());
      mem.status().check();
      home = static_cast<Blob*>(mem.value());
      for (int i = 0; i < 32; ++i) home->vals[i] = i;
    });
    b.bind("blob", [&](CallContext&) -> Blob* { return home; }).check();
    a.run([&](Runtime& rt) {
      Session session(rt);
      auto blob = session.call<Blob*>(b.id(), "blob");
      ASSERT_TRUE(blob.is_ok()) << blob.status().to_string();
      blob.value()->vals[3] = 99;  // pending at session end
      ASSERT_TRUE(session.end().is_ok());
      EXPECT_EQ(rt.stats().wb_prepares, 1u);
      EXPECT_EQ(rt.stats().wb_commits, 1u);
      if (mixed) {
        EXPECT_EQ(rt.stats().delta_bytes_shipped, 0u);
      } else {
        EXPECT_GT(rt.stats().delta_bytes_shipped, 0u);
      }
    });
    const RuntimeStats b_stats = b.run([](Runtime& rt) { return rt.stats(); });
    EXPECT_EQ(b_stats.wb_commits_served, 1u);
    EXPECT_EQ(b.run([&](Runtime&) { return home->vals[3]; }), 99);
    EXPECT_EQ(b.run([&](Runtime&) { return home->vals[4]; }), 4);
  }
}

// Toggling deltas off forces the full-image format.
TEST(DeltaDisabledTest, NoDeltaBytesWhenDisabled) {
  WorldOptions options;
  options.cost = CostModel::zero();
  options.modified_deltas = false;
  World world(options);
  AddressSpace& a = world.create_space("A");
  AddressSpace& b = world.create_space("B");
  workload::register_list_type(world).status().check();
  ASSERT_TRUE(b.bind("bump_first",
                     [](CallContext&, ListNode* head) -> std::int64_t {
                       head->value += 5;
                       return head->value;
                     })
                  .is_ok());
  a.run([&](Runtime& rt) {
    auto head = workload::build_list(rt, 4, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i);
    });
    head.status().check();
    Session session(rt);
    auto v = session.call<std::int64_t>(b.id(), "bump_first", head.value());
    ASSERT_TRUE(v.is_ok());
    EXPECT_EQ(head.value()->value, 5);
    ASSERT_TRUE(session.end().is_ok());
  });
  const RuntimeStats b_stats = b.run([](Runtime& rt) { return rt.stats(); });
  EXPECT_EQ(b_stats.delta_bytes_shipped, 0u);
  EXPECT_GT(b_stats.modified_bytes_shipped, 0u);
}

// An object already shipped to a hop (and not re-dirtied) is skipped on the
// next transfer to that hop: the epoch/fingerprint pair remembers it.
TEST_F(DeltaRuntimeTest, RepeatShipmentsToSameHopAreSkipped) {
  const SpaceId c_id = c_->id();
  ASSERT_TRUE(c_->bind("sum",
                       [](CallContext&, ListNode* head) -> std::int64_t {
                         return workload::sum_list(head);
                       })
                  .is_ok());
  ASSERT_TRUE(b_->bind("bump_then_forward_twice",
                       [c_id](CallContext& ctx, ListNode* head) -> std::int64_t {
                         head->value += 100;
                         auto s1 = typed_call<std::int64_t>(ctx.runtime, c_id,
                                                            "sum", head);
                         s1.status().check();
                         // Nothing re-dirtied: the second CALL to C must not
                         // re-ship the same delta.
                         auto s2 = typed_call<std::int64_t>(ctx.runtime, c_id,
                                                            "sum", head);
                         s2.status().check();
                         return s1.value() + s2.value();
                       })
                  .is_ok());
  a_->run([&](Runtime& rt) {
    auto head = workload::build_list(rt, 4, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i);
    });
    head.status().check();
    Session session(rt);
    auto v = session.call<std::int64_t>(b_->id(), "bump_then_forward_twice",
                                        head.value());
    ASSERT_TRUE(v.is_ok()) << v.status().to_string();
    EXPECT_EQ(v.value(), 2 * (100 + 1 + 2 + 3));
    ASSERT_TRUE(session.end().is_ok());
  });
  EXPECT_GE(stats_of(b_).deltas_skipped_by_epoch, 1u);
}

// Pointer-field writes cannot ship as raw ranges (the bytes are swizzled
// local addresses); the runtime must fall back to the graph payload, and
// the relink must still land at home.
TEST_F(DeltaRuntimeTest, PointerRelinkFallsBackToGraphPayload) {
  ASSERT_TRUE(b_->bind("reverse",
                       [](CallContext&, ListNode* head) -> std::int64_t {
                         ListNode* prev = nullptr;
                         std::int64_t n = 0;
                         while (head != nullptr) {
                           ListNode* next = head->next;
                           head->next = prev;
                           prev = head;
                           head = next;
                           ++n;
                         }
                         return n;
                       })
                  .is_ok());
  a_->run([&](Runtime& rt) {
    auto head = workload::build_list(rt, 3, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i + 1);  // 1, 2, 3
    });
    head.status().check();
    ListNode* nodes[3];
    nodes[0] = head.value();
    nodes[1] = nodes[0]->next;
    nodes[2] = nodes[1]->next;
    Session session(rt);
    auto n = session.call<std::int64_t>(b_->id(), "reverse", head.value());
    ASSERT_TRUE(n.is_ok()) << n.status().to_string();
    EXPECT_EQ(n.value(), 3);
    // The home list is now 3 -> 2 -> 1.
    EXPECT_EQ(nodes[2]->next, nodes[1]);
    EXPECT_EQ(nodes[1]->next, nodes[0]);
    EXPECT_EQ(nodes[0]->next, nullptr);
    ASSERT_TRUE(session.end().is_ok());
  });
}

// Delta for a datum the receiver has never cached: it lands on a pending
// overlay and is applied over the fetched baseline at fill time.
TEST(DeltaOverlayTest, NonResidentDeltaAppliedAtFillTime) {
  WorldOptions options;
  options.cost = CostModel::zero();
  options.cache.closure_bytes = 0;  // force explicit FETCHes at C
  World world(options);
  AddressSpace& a = world.create_space("A");
  AddressSpace& b = world.create_space("B");
  AddressSpace& c = world.create_space("C");
  workload::register_list_type(world).status().check();

  const SpaceId c_id = c.id();
  ASSERT_TRUE(c.bind("sum",
                     [](CallContext&, ListNode* head) -> std::int64_t {
                       return workload::sum_list(head);
                     })
                  .is_ok());
  ASSERT_TRUE(b.bind("bump_second_then_forward",
                     [c_id](CallContext& ctx, ListNode* head) -> std::int64_t {
                       head->next->value += 50;
                       // C has cached nothing: the travelling delta for the
                       // second node targets a non-resident slot there.
                       auto sum = typed_call<std::int64_t>(ctx.runtime, c_id,
                                                           "sum", head);
                       sum.status().check();
                       return sum.value();
                     })
                  .is_ok());
  a.run([&](Runtime& rt) {
    auto head = workload::build_list(rt, 2, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i + 1);  // 1, 2
    });
    head.status().check();
    Session session(rt);
    auto sum = session.call<std::int64_t>(b.id(), "bump_second_then_forward",
                                          head.value());
    ASSERT_TRUE(sum.is_ok()) << sum.status().to_string();
    EXPECT_EQ(sum.value(), 1 + 2 + 50);  // C saw B's bump over A's baseline
    EXPECT_EQ(head.value()->next->value, 52);  // and it came home
    ASSERT_TRUE(session.end().is_ok());
  });
}

// Overlay x epoch across nested calls: updates accumulate through a chain
// of spaces, each applying the incoming delta (possibly to an overlay),
// re-dirtying, and shipping its own delta on.
TEST_F(DeltaRuntimeTest, NestedUpdatesComposeAcrossOverlays) {
  const SpaceId c_id = c_->id();
  ASSERT_TRUE(c_->bind("bump",
                       [](CallContext&, ListNode* head) -> std::int64_t {
                         head->value += 7;
                         return head->value;
                       })
                  .is_ok());
  ASSERT_TRUE(b_->bind("bump_and_forward",
                       [c_id](CallContext& ctx, ListNode* head) -> std::int64_t {
                         head->value += 3;
                         auto v = typed_call<std::int64_t>(ctx.runtime, c_id,
                                                           "bump", head);
                         v.status().check();
                         // C's bump must be visible here after the RETURN.
                         if (head->value != v.value()) return -1;
                         return v.value();
                       })
                  .is_ok());
  a_->run([&](Runtime& rt) {
    auto head = workload::build_list(rt, 1, [](std::uint32_t) {
      return std::int64_t{1};
    });
    head.status().check();
    Session session(rt);
    auto v = session.call<std::int64_t>(b_->id(), "bump_and_forward",
                                        head.value());
    ASSERT_TRUE(v.is_ok()) << v.status().to_string();
    EXPECT_EQ(v.value(), 1 + 3 + 7);
    EXPECT_EQ(head.value()->value, 11);
    ASSERT_TRUE(session.end().is_ok());
  });
}

}  // namespace
}  // namespace srpc

// Graph payload codec: compact tagged pointers, wide mode, fixups, canary.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "core/graph_payload.hpp"
#include "types/type_registry.hpp"

namespace srpc {
namespace {

struct Node {
  Node* next;
  std::int64_t value;
};

// Encoder-side translator over a fixed address->identity map.
class MapTranslator final : public PointerTranslator {
 public:
  explicit MapTranslator(SpaceId space) : space_(space) {}

  void put(std::uint64_t ordinary, const LongPointer& id) { map_[ordinary] = id; }

  Result<LongPointer> unswizzle(std::uint64_t ordinary, TypeId) override {
    auto it = map_.find(ordinary);
    if (it == map_.end()) return not_found("unknown ordinary pointer");
    return it->second;
  }
  Result<std::uint64_t> swizzle(const LongPointer&, TypeId) override {
    return internal_error("encode-only translator");
  }

 private:
  SpaceId space_;
  std::map<std::uint64_t, LongPointer> map_;
};

// Decoder-side sink collecting everything into plain buffers.
class CollectSink : public GraphSink {
 public:
  struct Slot {
    LongPointer id;
    std::vector<std::uint8_t> bytes;
  };

  explicit CollectSink(const LayoutEngine& layouts) : layouts_(layouts) {}

  Result<void*> prepare(std::uint32_t index, const LongPointer& id) override {
    if (slots_.size() <= index) slots_.resize(index + 1);
    slots_[index].id = id;
    slots_[index].bytes.assign(layouts_.size_of(host_arch(), id.type), 0);
    return slots_[index].bytes.data();
  }

  Result<std::uint64_t> address_of(std::uint32_t index) override {
    // Local address = a synthetic stable number derived from the index.
    return 0xA0000 + index * 0x100;
  }

  Result<std::uint64_t> swizzle(const LongPointer& target, TypeId) override {
    external.push_back(target);
    return 0xE0000 + external.size() * 0x100;
  }

  std::vector<Slot> slots_;
  std::vector<LongPointer> external;

 private:
  const LayoutEngine& layouts_;
};

class GraphPayloadTest : public ::testing::Test {
 protected:
  GraphPayloadTest() : layouts_(registry_), codec_{registry_, layouts_} {
    auto node = registry_.declare_struct("GNode");
    node.status().check();
    node_ = node.value();
    registry_
        .define_struct(node_, {{"next", registry_.pointer_to(node_)},
                               {"value", TypeRegistry::scalar_id(ScalarType::kI64)}})
        .check();
  }

  TypeRegistry registry_;
  LayoutEngine layouts_;
  ValueCodec codec_;
  TypeId node_ = kInvalidTypeId;
};

TEST_F(GraphPayloadTest, IntraPayloadPointersRoundTrip) {
  // Two nodes; first points to second (intra tag expected).
  Node n2{nullptr, 22};
  Node n1{&n2, 11};
  MapTranslator translator(5);
  translator.put(reinterpret_cast<std::uint64_t>(&n2), {5, 0x2000, node_});

  const GraphObjectRef objects[] = {{0x1000, node_, &n1}, {0x2000, node_, &n2}};
  ByteBuffer wire;
  ASSERT_TRUE(encode_graph_payload(codec_, host_arch(), 5, objects, translator, wire)
                  .is_ok());

  CollectSink sink(layouts_);
  ASSERT_TRUE(decode_graph_payload(codec_, host_arch(), wire, sink).is_ok());
  ASSERT_EQ(sink.slots_.size(), 2u);
  EXPECT_EQ(sink.slots_[0].id, (LongPointer{5, 0x1000, node_}));
  EXPECT_EQ(sink.slots_[1].id, (LongPointer{5, 0x2000, node_}));
  EXPECT_TRUE(sink.external.empty());  // intra resolution, no swizzle calls

  const Node* decoded1 = reinterpret_cast<const Node*>(sink.slots_[0].bytes.data());
  EXPECT_EQ(decoded1->value, 11);
  // Pointer field resolved via address_of(1).
  EXPECT_EQ(reinterpret_cast<std::uint64_t>(decoded1->next), 0xA0000u + 0x100);
}

TEST_F(GraphPayloadTest, SameSpaceDeltaPointers) {
  // Node points to a same-space datum OUTSIDE the payload, 8-aligned.
  Node n1{reinterpret_cast<Node*>(0x5555), 1};
  MapTranslator translator(5);
  translator.put(0x5555, {5, 0x1000 + 64, node_});  // delta 64 from base

  const GraphObjectRef objects[] = {{0x1000, node_, &n1}};
  ByteBuffer wire;
  ASSERT_TRUE(encode_graph_payload(codec_, host_arch(), 5, objects, translator, wire)
                  .is_ok());

  CollectSink sink(layouts_);
  ASSERT_TRUE(decode_graph_payload(codec_, host_arch(), wire, sink).is_ok());
  ASSERT_EQ(sink.external.size(), 1u);
  EXPECT_EQ(sink.external[0], (LongPointer{5, 0x1000 + 64, node_}));
}

TEST_F(GraphPayloadTest, SameSpaceDeltaBelowBasePacksLikeAboveBase) {
  // The datum outside the payload sits below its lowest object: the delta
  // is negative and still packs into one u32.
  Node n1{reinterpret_cast<Node*>(0x5555), 1};
  auto encode = [&](std::uint64_t base, std::uint64_t target, ByteBuffer& wire) {
    MapTranslator translator(5);
    translator.put(0x5555, {5, target, node_});
    const GraphObjectRef objects[] = {{base, node_, &n1}};
    return encode_graph_payload(codec_, host_arch(), 5, objects, translator, wire);
  };
  ByteBuffer above, below;
  ASSERT_TRUE(encode(0x1000, 0x1000 + 64, above).is_ok());
  ASSERT_TRUE(encode(0x1000, 0x1000 - 64, below).is_ok());
  EXPECT_EQ(below.size(), above.size());

  CollectSink sink(layouts_);
  ASSERT_TRUE(decode_graph_payload(codec_, host_arch(), below, sink).is_ok());
  ASSERT_EQ(sink.external.size(), 1u);
  EXPECT_EQ(sink.external[0], (LongPointer{5, 0x1000 - 64, node_}));

  // The zigzag range ends at 2^29 eight-byte steps below base; one step
  // further takes the 16-byte escape, and both still round-trip.
  constexpr std::uint64_t kBase = 0x100000000000;
  constexpr std::uint64_t kLowest = kBase - (std::uint64_t{1} << 29) * 8;
  ByteBuffer edge, escaped;
  ASSERT_TRUE(encode(kBase, kLowest, edge).is_ok());
  ASSERT_TRUE(encode(kBase, kLowest - 8, escaped).is_ok());
  EXPECT_EQ(edge.size(), above.size());
  EXPECT_EQ(escaped.size(), above.size() + 16);
  CollectSink edge_sink(layouts_), escaped_sink(layouts_);
  ASSERT_TRUE(decode_graph_payload(codec_, host_arch(), edge, edge_sink).is_ok());
  ASSERT_TRUE(decode_graph_payload(codec_, host_arch(), escaped, escaped_sink).is_ok());
  EXPECT_EQ(edge_sink.external.at(0), (LongPointer{5, kLowest, node_}));
  EXPECT_EQ(escaped_sink.external.at(0), (LongPointer{5, kLowest - 8, node_}));
}

TEST_F(GraphPayloadTest, ForeignSpacePointersUseFullForm) {
  Node n1{reinterpret_cast<Node*>(0x7777), 1};
  MapTranslator translator(5);
  translator.put(0x7777, {9, 0xBEEF, node_});  // different home space

  const GraphObjectRef objects[] = {{0x1000, node_, &n1}};
  ByteBuffer wire;
  ASSERT_TRUE(encode_graph_payload(codec_, host_arch(), 5, objects, translator, wire)
                  .is_ok());
  CollectSink sink(layouts_);
  ASSERT_TRUE(decode_graph_payload(codec_, host_arch(), wire, sink).is_ok());
  ASSERT_EQ(sink.external.size(), 1u);
  EXPECT_EQ(sink.external[0], (LongPointer{9, 0xBEEF, node_}));
}

TEST_F(GraphPayloadTest, NullPointersStayNull) {
  Node n1{nullptr, 42};
  MapTranslator translator(5);
  const GraphObjectRef objects[] = {{0x1000, node_, &n1}};
  ByteBuffer wire;
  ASSERT_TRUE(encode_graph_payload(codec_, host_arch(), 5, objects, translator, wire)
                  .is_ok());
  CollectSink sink(layouts_);
  ASSERT_TRUE(decode_graph_payload(codec_, host_arch(), wire, sink).is_ok());
  const Node* decoded = reinterpret_cast<const Node*>(sink.slots_[0].bytes.data());
  EXPECT_EQ(decoded->next, nullptr);
  EXPECT_EQ(decoded->value, 42);
}

TEST_F(GraphPayloadTest, WideModeHandlesHugeAddressSpread) {
  Node n1{nullptr, 1};
  Node n2{nullptr, 2};
  MapTranslator translator(5);
  const GraphObjectRef objects[] = {{0x1000, node_, &n1},
                                    {0x1000 + (8ULL << 32), node_, &n2}};
  ByteBuffer wire;
  ASSERT_TRUE(encode_graph_payload(codec_, host_arch(), 5, objects, translator, wire)
                  .is_ok());
  CollectSink sink(layouts_);
  ASSERT_TRUE(decode_graph_payload(codec_, host_arch(), wire, sink).is_ok());
  ASSERT_EQ(sink.slots_.size(), 2u);
  EXPECT_EQ(sink.slots_[1].id.address, 0x1000 + (8ULL << 32));
}

TEST_F(GraphPayloadTest, TypeFixupsForMixedPayloads) {
  const TypeId other = registry_.array_of(TypeRegistry::scalar_id(ScalarType::kI64), 2);
  Node n1{nullptr, 1};
  std::int64_t pair[2] = {7, 8};
  MapTranslator translator(5);
  const GraphObjectRef objects[] = {{0x1000, node_, &n1}, {0x2000, other, pair}};
  ByteBuffer wire;
  ASSERT_TRUE(encode_graph_payload(codec_, host_arch(), 5, objects, translator, wire)
                  .is_ok());
  CollectSink sink(layouts_);
  ASSERT_TRUE(decode_graph_payload(codec_, host_arch(), wire, sink).is_ok());
  EXPECT_EQ(sink.slots_[0].id.type, node_);
  EXPECT_EQ(sink.slots_[1].id.type, other);
  const auto* decoded = reinterpret_cast<const std::int64_t*>(sink.slots_[1].bytes.data());
  EXPECT_EQ(decoded[0], 7);
  EXPECT_EQ(decoded[1], 8);
}

TEST_F(GraphPayloadTest, SkippedObjectsKeepTheStreamAligned) {
  Node n1{nullptr, 1};
  Node n2{nullptr, 2};
  MapTranslator translator(5);
  const GraphObjectRef objects[] = {{0x1000, node_, &n1}, {0x2000, node_, &n2}};
  ByteBuffer wire;
  ASSERT_TRUE(encode_graph_payload(codec_, host_arch(), 5, objects, translator, wire)
                  .is_ok());

  // A sink that skips the first object: the second must still decode.
  class SkipFirst final : public CollectSink {
   public:
    using CollectSink::CollectSink;
    Result<void*> prepare(std::uint32_t index, const LongPointer& id) override {
      auto dest = CollectSink::prepare(index, id);
      if (!dest) return dest;
      return index == 0 ? Result<void*>(static_cast<void*>(nullptr)) : dest;
    }
  };
  SkipFirst sink(layouts_);
  ASSERT_TRUE(decode_graph_payload(codec_, host_arch(), wire, sink).is_ok());
  const Node* second = reinterpret_cast<const Node*>(sink.slots_[1].bytes.data());
  EXPECT_EQ(second->value, 2);
}

TEST_F(GraphPayloadTest, CorruptionTripsTheCanary) {
  Node n1{nullptr, 1};
  MapTranslator translator(5);
  const GraphObjectRef objects[] = {{0x1000, node_, &n1}};
  ByteBuffer wire;
  ASSERT_TRUE(encode_graph_payload(codec_, host_arch(), 5, objects, translator, wire)
                  .is_ok());
  // Truncate four bytes: decode must fail loudly, not desynchronise.
  ByteBuffer truncated;
  truncated.append(wire.data(), wire.size() - 4);
  CollectSink sink(layouts_);
  auto status = decode_graph_payload(codec_, host_arch(), truncated, sink);
  ASSERT_FALSE(status.is_ok());
}

TEST_F(GraphPayloadTest, ObjectCountBeyondThePayloadIsRefused) {
  // A bare 24-byte header claiming four million objects: refused before
  // anything is sized by the count.
  ByteBuffer wire;
  xdr::Encoder enc(wire);
  enc.put_u32(5);          // space
  enc.put_u32(0);          // narrow headers
  enc.put_u64(0x1000);     // base
  enc.put_u32(node_);      // default type
  enc.put_u32(4'000'000);  // count
  ASSERT_EQ(wire.size(), 24u);
  CollectSink sink(layouts_);
  auto status = decode_graph_payload(codec_, host_arch(), wire, sink);
  EXPECT_EQ(status.code(), StatusCode::kProtocolError) << status.to_string();
  EXPECT_TRUE(sink.slots_.empty());
}

TEST_F(GraphPayloadTest, EmptyPayloadRoundTrips) {
  MapTranslator translator(5);
  ByteBuffer wire;
  ASSERT_TRUE(
      encode_graph_payload(codec_, host_arch(), 5, {}, translator, wire).is_ok());
  CollectSink sink(layouts_);
  std::vector<LongPointer> ids;
  ASSERT_TRUE(decode_graph_payload(codec_, host_arch(), wire, sink, &ids).is_ok());
  EXPECT_TRUE(ids.empty());
}

TEST_F(GraphPayloadTest, DuplicateAddressesRejected) {
  Node n1{nullptr, 1};
  MapTranslator translator(5);
  const GraphObjectRef objects[] = {{0x1000, node_, &n1}, {0x1000, node_, &n1}};
  ByteBuffer wire;
  auto status =
      encode_graph_payload(codec_, host_arch(), 5, objects, translator, wire);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace srpc

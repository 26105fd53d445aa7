// Type system: registry, layout engine (host + foreign arch), value codec.
#include <gtest/gtest.h>

#include <cstring>

#include "types/arch.hpp"
#include "types/layout.hpp"
#include "types/type_builder.hpp"
#include "types/type_registry.hpp"
#include "types/value_codec.hpp"

namespace srpc {
namespace {

TEST(TypeRegistry, ScalarsArePreRegistered) {
  TypeRegistry registry;
  auto id = registry.find_by_name("i64");
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(id.value(), TypeRegistry::scalar_id(ScalarType::kI64));
  EXPECT_EQ(registry.get(id.value()).kind(), TypeKind::kScalar);
}

TEST(TypeRegistry, RejectsDuplicateNames) {
  TypeRegistry registry;
  ASSERT_TRUE(registry.declare_struct("Node").is_ok());
  auto dup = registry.declare_struct("Node");
  ASSERT_FALSE(dup.is_ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(TypeRegistry, PointerTypesAreInterned) {
  TypeRegistry registry;
  const TypeId i32 = TypeRegistry::scalar_id(ScalarType::kI32);
  EXPECT_EQ(registry.pointer_to(i32), registry.pointer_to(i32));
  EXPECT_NE(registry.pointer_to(i32),
            registry.pointer_to(TypeRegistry::scalar_id(ScalarType::kI64)));
}

TEST(TypeRegistry, ArrayTypesAreInternedByElementAndCount) {
  TypeRegistry registry;
  const TypeId i8 = TypeRegistry::scalar_id(ScalarType::kI8);
  EXPECT_EQ(registry.array_of(i8, 16), registry.array_of(i8, 16));
  EXPECT_NE(registry.array_of(i8, 16), registry.array_of(i8, 17));
}

TEST(TypeRegistry, SelfReferentialStructViaDeclare) {
  TypeRegistry registry;
  auto id = registry.declare_struct("Node");
  ASSERT_TRUE(id.is_ok());
  const TypeId ptr = registry.pointer_to(id.value());
  ASSERT_TRUE(registry
                  .define_struct(id.value(),
                                 {{"next", ptr},
                                  {"value", TypeRegistry::scalar_id(ScalarType::kI64)}})
                  .is_ok());
  EXPECT_FALSE(registry.get(id.value()).is_incomplete());
}

TEST(LayoutEngine, HostStructMatchesCompiler) {
  struct Node {
    Node* next;
    std::int32_t a;
    std::int64_t b;
    std::uint8_t c;
  };
  TypeRegistry registry;
  LayoutEngine layouts(registry);
  HostStructBuilder<Node> builder(registry, layouts, "Node");
  builder.pointer_field("next", &Node::next, builder.id())
      .field("a", &Node::a)
      .field("b", &Node::b)
      .field("c", &Node::c);
  auto id = builder.build();
  ASSERT_TRUE(id.is_ok()) << id.status().to_string();
  auto layout = layouts.layout_of(host_arch(), id.value());
  ASSERT_TRUE(layout.is_ok());
  EXPECT_EQ(layout.value()->size, sizeof(Node));
  EXPECT_EQ(layout.value()->align, alignof(Node));
}

TEST(LayoutEngine, Sparc32ShrinksPointers) {
  TypeRegistry registry;
  LayoutEngine layouts(registry);
  auto node = registry.declare_struct("N");
  ASSERT_TRUE(node.is_ok());
  const TypeId ptr = registry.pointer_to(node.value());
  ASSERT_TRUE(registry
                  .define_struct(node.value(),
                                 {{"left", ptr},
                                  {"right", ptr},
                                  {"data", TypeRegistry::scalar_id(ScalarType::kI64)}})
                  .is_ok());
  // The paper's node: two 4-byte pointers + 8-byte data = 16 bytes on SPARC.
  EXPECT_EQ(layouts.size_of(sparc32_arch(), node.value()), 16u);
  // Same logical type, 24 bytes on the 64-bit host.
  EXPECT_EQ(layouts.size_of(host_arch(), node.value()), 24u);

  // Mutually recursive structs reached through pointers lay out too.
  auto a = registry.declare_struct("A");
  auto b = registry.declare_struct("B");
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  const TypeId i32 = TypeRegistry::scalar_id(ScalarType::kI32);
  const TypeId a_ptr = registry.pointer_to(a.value());
  const TypeId b_ptr = registry.pointer_to(b.value());
  ASSERT_TRUE(registry.define_struct(a.value(), {{"partner", b_ptr}, {"tag", i32}}).is_ok());
  ASSERT_TRUE(registry.define_struct(b.value(), {{"partner", a_ptr}, {"tag", i32}}).is_ok());
  EXPECT_EQ(registry.get(registry.get(a.value()).fields()[0].type).pointee(), b.value());
  for (const TypeId id : {a.value(), b.value()}) {
    EXPECT_EQ(layouts.size_of(sparc32_arch(), id), 8u);
    EXPECT_EQ(layouts.size_of(host_arch(), id), 16u);
  }

  // Arrays of pointers and pointers to arrays shrink with the pointer width.
  const TypeId u8 = TypeRegistry::scalar_id(ScalarType::kU8);
  const TypeId f32 = TypeRegistry::scalar_id(ScalarType::kF32);
  const TypeId f64 = TypeRegistry::scalar_id(ScalarType::kF64);
  auto matrix = registry.register_struct("Matrix", {{"cells", registry.array_of(f64, 16)}});
  ASSERT_TRUE(matrix.is_ok());
  auto sensor = registry.declare_struct("Sensor");
  ASSERT_TRUE(sensor.is_ok());
  ASSERT_TRUE(registry
                  .define_struct(
                      sensor.value(),
                      {{"name_bytes", registry.array_of(u8, 32)},
                       {"samples", registry.array_of(f32, 8)},
                       {"matrix", matrix.value()},
                       {"neighbors", registry.array_of(registry.pointer_to(sensor.value()), 4)},
                       {"calib", registry.pointer_to(registry.array_of(f64, 4))}})
                  .is_ok());
  // 32 + 32 + 128 + 4 pointers + 1 pointer, rounded to 8.
  EXPECT_EQ(layouts.size_of(host_arch(), sensor.value()), 232u);
  EXPECT_EQ(layouts.size_of(sparc32_arch(), sensor.value()), 216u);
}

TEST(LayoutEngine, PlansMergeEqualLeavesIntoRuns) {
  TypeRegistry registry;
  LayoutEngine layouts(registry);
  const TypeId i64 = TypeRegistry::scalar_id(ScalarType::kI64);
  // A scalar array is one run, however long.
  auto array = layouts.layout_of(host_arch(), registry.array_of(i64, 1500));
  ASSERT_TRUE(array.is_ok());
  ASSERT_EQ(array.value()->runs.size(), 1u);
  EXPECT_EQ(array.value()->runs[0].count, 1500u);
  EXPECT_EQ(array.value()->runs[0].stride, 8u);
  EXPECT_EQ(array.value()->wire_size(16), 1500u * 8);

  // {i16, f64, ptr, ptr}: the pointers merge; the wire size counts XDR
  // words, not memory bytes; the pointer bytes follow the arch.
  auto node = registry.declare_struct("Node");
  ASSERT_TRUE(node.is_ok());
  const TypeId ptr = registry.pointer_to(node.value());
  ASSERT_TRUE(registry
                  .define_struct(node.value(),
                                 {{"tag", TypeRegistry::scalar_id(ScalarType::kI16)},
                                  {"weight", TypeRegistry::scalar_id(ScalarType::kF64)},
                                  {"left", ptr},
                                  {"right", ptr}})
                  .is_ok());
  for (const ArchModel* arch : {&host_arch(), &sparc32_arch()}) {
    auto plan = layouts.layout_of(*arch, node.value());
    ASSERT_TRUE(plan.is_ok());
    ASSERT_EQ(plan.value()->runs.size(), 3u);
    EXPECT_EQ(plan.value()->runs[2].offset, 16u);
    EXPECT_EQ(plan.value()->runs[2].count, 2u);
    EXPECT_EQ(plan.value()->runs[2].pointee, node.value());
    EXPECT_EQ(plan.value()->scalar_wire_bytes, 4u + 8u);
    EXPECT_EQ(plan.value()->pointer_count, 2u);
    EXPECT_EQ(plan.value()->pointer_ranges,
              (std::vector<ByteRange>{{16, 2 * arch->pointer_size}}));
  }
}

TEST(LayoutEngine, RejectsValueSelfContainment) {
  TypeRegistry registry;
  LayoutEngine layouts(registry);
  auto id = registry.declare_struct("Recursive");
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(registry.define_struct(id.value(), {{"self", id.value()}}).is_ok());
  auto layout = layouts.layout_of(host_arch(), id.value());
  ASSERT_FALSE(layout.is_ok());
  EXPECT_EQ(layout.status().code(), StatusCode::kInvalidArgument);
}

TEST(LayoutEngine, RejectsIncompleteStruct) {
  TypeRegistry registry;
  LayoutEngine layouts(registry);
  auto id = registry.declare_struct("Pending");
  ASSERT_TRUE(id.is_ok());
  auto layout = layouts.layout_of(host_arch(), id.value());
  ASSERT_FALSE(layout.is_ok());
  EXPECT_EQ(layout.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ReadWriteScaledUint, BothEndiannesses) {
  std::uint8_t buf[4];
  write_scaled_uint(buf, 4, Endian::kBig, 0x01020304U);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
  EXPECT_EQ(read_scaled_uint(buf, 4, Endian::kBig), 0x01020304U);
  write_scaled_uint(buf, 4, Endian::kLittle, 0x01020304U);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(read_scaled_uint(buf, 4, Endian::kLittle), 0x01020304U);
}

// Codec fixture with a small struct on both architectures.
class ValueCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto id = registry_.declare_struct("Mix");
    ASSERT_TRUE(id.is_ok());
    mix_ = id.value();
    ASSERT_TRUE(registry_
                    .define_struct(mix_,
                                   {{"a", TypeRegistry::scalar_id(ScalarType::kI16)},
                                    {"b", TypeRegistry::scalar_id(ScalarType::kF64)},
                                    {"c", TypeRegistry::scalar_id(ScalarType::kU8)},
                                    {"d", TypeRegistry::scalar_id(ScalarType::kBool)}})
                    .is_ok());
  }

  TypeRegistry registry_;
  LayoutEngine layouts_{registry_};
  ValueCodec codec_{registry_, layouts_};
  TypeId mix_ = kInvalidTypeId;
};

TEST_F(ValueCodecTest, HostRoundTrip) {
  struct Mix {
    std::int16_t a;
    double b;
    std::uint8_t c;
    bool d;
  };
  ASSERT_EQ(layouts_.size_of(host_arch(), mix_), sizeof(Mix));
  Mix in{-123, 2.5, 200, true};
  ByteBuffer wire;
  xdr::Encoder enc(wire);
  NullOnlyFieldCodec no_pointers;
  ASSERT_TRUE(codec_.encode(host_arch(), mix_, &in, enc, no_pointers).is_ok());

  Mix out{};
  xdr::Decoder dec(wire);
  ASSERT_TRUE(codec_.decode(host_arch(), mix_, &out, dec, no_pointers).is_ok());
  EXPECT_EQ(out.a, in.a);
  EXPECT_EQ(out.b, in.b);
  EXPECT_EQ(out.c, in.c);
  EXPECT_EQ(out.d, in.d);
}

TEST_F(ValueCodecTest, HostToSparcConversion) {
  struct Mix {
    std::int16_t a;
    double b;
    std::uint8_t c;
    bool d;
  };
  Mix in{-7, -1.25, 99, true};
  ByteBuffer wire;
  xdr::Encoder enc(wire);
  NullOnlyFieldCodec no_pointers;
  ASSERT_TRUE(codec_.encode(host_arch(), mix_, &in, enc, no_pointers).is_ok());

  // Decode into a synthetic big-endian image, then read fields manually.
  auto sparc_layout = layouts_.layout_of(sparc32_arch(), mix_);
  ASSERT_TRUE(sparc_layout.is_ok());
  std::vector<std::uint8_t> image(sparc_layout.value()->size, 0);
  xdr::Decoder dec(wire);
  ASSERT_TRUE(
      codec_.decode(sparc32_arch(), mix_, image.data(), dec, no_pointers).is_ok());

  const auto& offsets = sparc_layout.value()->field_offsets;
  const std::uint64_t raw_a = read_scaled_uint(image.data() + offsets[0], 2, Endian::kBig);
  EXPECT_EQ(static_cast<std::int16_t>(raw_a), -7);
  const std::uint64_t raw_b = read_scaled_uint(image.data() + offsets[1], 8, Endian::kBig);
  double b = 0;
  std::memcpy(&b, &raw_b, sizeof b);
  EXPECT_EQ(b, -1.25);
  EXPECT_EQ(image[offsets[2]], 99);
  EXPECT_EQ(image[offsets[3]], 1);
}

TEST_F(ValueCodecTest, WireSizeIsDeterministic) {
  // i16->4, f64->8, u8->4, bool->4 = 20 canonical bytes.
  auto size = codec_.wire_size(mix_);
  ASSERT_TRUE(size.is_ok());
  EXPECT_EQ(size.value(), 20u);
}

TEST_F(ValueCodecTest, DecodeRejectsOutOfRangeScalars) {
  // Decodes the XDR words `words` as one value of `type`.
  auto decode_words = [&](TypeId type, std::initializer_list<std::uint32_t> words) {
    ByteBuffer wire;
    xdr::Encoder enc(wire);
    for (const std::uint32_t w : words) enc.put_u32(w);
    std::uint8_t image[16] = {};
    xdr::Decoder dec(wire);
    NullOnlyFieldCodec no_pointers;
    return codec_.decode(host_arch(), type, image, dec, no_pointers);
  };
  auto flags = registry_.register_struct(
      "Flags", {{"set", TypeRegistry::scalar_id(ScalarType::kBool)},
                {"small", TypeRegistry::scalar_id(ScalarType::kU8)}});
  ASSERT_TRUE(flags.is_ok());
  EXPECT_EQ(decode_words(flags.value(), {2, 1}).code(), StatusCode::kProtocolError);
  EXPECT_EQ(decode_words(flags.value(), {1, 300}).code(), StatusCode::kProtocolError);
  EXPECT_TRUE(decode_words(flags.value(), {1, 255}).is_ok());

  struct Case {
    ScalarType type;
    std::uint32_t lowest;   // smallest word in range, as sent
    std::uint32_t highest;  // largest word in range, as sent
  };
  for (const Case& c : {Case{ScalarType::kI8, 0xFFFFFF80U, 127},
                        Case{ScalarType::kI16, 0xFFFF8000U, 32767},
                        Case{ScalarType::kU8, 0, 255},
                        Case{ScalarType::kU16, 0, 65535},
                        Case{ScalarType::kBool, 0, 1}}) {
    const TypeId type = TypeRegistry::scalar_id(c.type);
    SCOPED_TRACE(type);
    EXPECT_TRUE(decode_words(type, {c.lowest}).is_ok());
    EXPECT_TRUE(decode_words(type, {c.highest}).is_ok());
    EXPECT_EQ(decode_words(type, {c.highest + 1}).code(), StatusCode::kProtocolError);
    if (c.lowest != 0) {
      EXPECT_EQ(decode_words(type, {c.lowest - 1}).code(), StatusCode::kProtocolError);
    }
  }
  // Whole-word scalars take every word.
  for (const ScalarType s : {ScalarType::kI32, ScalarType::kU32}) {
    EXPECT_TRUE(decode_words(TypeRegistry::scalar_id(s), {0xFFFFFFFFU}).is_ok());
  }
}

TEST_F(ValueCodecTest, NullOnlyCodecRejectsPointers) {
  auto node = registry_.declare_struct("P");
  ASSERT_TRUE(node.is_ok());
  ASSERT_TRUE(
      registry_.define_struct(node.value(), {{"p", registry_.pointer_to(mix_)}}).is_ok());
  struct P {
    void* p;
  };
  P in{reinterpret_cast<void*>(0x1234)};
  ByteBuffer wire;
  xdr::Encoder enc(wire);
  NullOnlyFieldCodec no_pointers;
  auto s = codec_.encode(host_arch(), node.value(), &in, enc, no_pointers);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(HostStructBuilder, ArrayAndNestedFields) {
  struct Inner {
    std::int32_t x;
    std::int32_t y;
  };
  struct Outer {
    Inner inner;
    double values[3];
    std::uint16_t tag;
  };
  TypeRegistry registry;
  LayoutEngine layouts(registry);
  HostStructBuilder<Inner> inner_builder(registry, layouts, "Inner");
  inner_builder.field("x", &Inner::x).field("y", &Inner::y);
  auto inner_id = inner_builder.build();
  ASSERT_TRUE(inner_id.is_ok());

  HostStructBuilder<Outer> outer_builder(registry, layouts, "Outer");
  outer_builder.struct_field("inner", &Outer::inner, inner_id.value())
      .array_field("values", &Outer::values)
      .field("tag", &Outer::tag);
  auto outer_id = outer_builder.build();
  ASSERT_TRUE(outer_id.is_ok()) << outer_id.status().to_string();
  EXPECT_EQ(layouts.size_of(host_arch(), outer_id.value()), sizeof(Outer));
}

}  // namespace
}  // namespace srpc

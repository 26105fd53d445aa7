// Property sweeps over the value codec and the compiled layout plans it
// runs. Random values in randomly composed types — flat scalar structs, and
// nested ones with structs inside structs, scalar arrays, arrays of structs
// and pointer fields — must round-trip bit-exactly through the canonical
// form on the host, convert losslessly host -> canonical -> foreign ->
// canonical -> host (the full heterogeneity path), encode to exactly the
// bytes wire_size() predicts, and visit exactly the pointer leaves that a
// reference walk over the type descriptors finds.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "types/type_registry.hpp"
#include "types/value_codec.hpp"
#include "types/value_view.hpp"

namespace srpc {
namespace {

constexpr ScalarType kScalarPool[] = {
    ScalarType::kI8,  ScalarType::kU8,  ScalarType::kI16, ScalarType::kU16,
    ScalarType::kI32, ScalarType::kU32, ScalarType::kI64, ScalarType::kU64,
    ScalarType::kF32, ScalarType::kF64, ScalarType::kBool,
};

// Sends a pointer field as its raw 32-bit value, padded to 16 bytes with
// its pointee and the value again (the long-pointer size) or not at all
// (the packed graph-payload size), and records every field it sees.
class RecordingPointerCodec final : public PointerFieldCodec {
 public:
  explicit RecordingPointerCodec(std::uint64_t wire_bytes) : wire_bytes_(wire_bytes) {}

  Status encode(xdr::Encoder& enc, std::uint64_t ordinary, TypeId pointee) override {
    visits.emplace_back(ordinary, pointee);
    enc.put_u32(static_cast<std::uint32_t>(ordinary));
    if (wire_bytes_ == 16) {
      enc.put_u32(pointee);
      enc.put_u64(ordinary);
    }
    return Status::ok();
  }

  Result<std::uint64_t> decode(xdr::Decoder& dec, TypeId pointee) override {
    auto ordinary = dec.get_u32();
    if (!ordinary) return ordinary.status();
    if (wire_bytes_ == 16) {
      auto type = dec.get_u32();
      auto again = dec.get_u64();
      if (!type || !again || type.value() != pointee || again.value() != ordinary.value()) {
        return protocol_error("pointer field does not match its leaf");
      }
    }
    visits.emplace_back(ordinary.value(), pointee);
    return std::uint64_t{ordinary.value()};
  }

  std::vector<std::pair<std::uint64_t, TypeId>> visits;

 private:
  std::uint64_t wire_bytes_;
};

class CodecProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  CodecProperty() : layouts_(registry_), codec_{registry_, layouts_} {}

  // Builds a random flat struct type of 1..10 scalar fields.
  TypeId random_struct(Rng& rng, int tag) {
    const int field_count = 1 + static_cast<int>(rng.next_below(10));
    std::vector<FieldDescriptor> fields;
    for (int i = 0; i < field_count; ++i) {
      const ScalarType s = kScalarPool[rng.next_below(std::size(kScalarPool))];
      fields.push_back({"f" + std::to_string(i), TypeRegistry::scalar_id(s)});
    }
    auto id = registry_.register_struct("S" + std::to_string(tag), std::move(fields));
    id.status().check();
    return id.value();
  }

  // Builds a random struct of 1..6 fields, each a scalar, a scalar array,
  // a pointer (to the struct itself or to a scalar), or — two levels deep
  // at most — a nested struct or an array of nested structs.
  TypeId random_nested_type(Rng& rng) {
    auto self = registry_.declare_struct("T" + std::to_string(next_name_++));
    self.status().check();
    registry_.define_struct(self.value(), random_fields(rng, self.value(), 0)).check();
    return self.value();
  }

  static std::uint32_t random_count(Rng& rng, std::uint32_t most) {
    return 1 + static_cast<std::uint32_t>(rng.next_below(most));
  }

  std::vector<FieldDescriptor> random_fields(Rng& rng, TypeId self, int depth) {
    std::vector<FieldDescriptor> fields;
    const std::uint64_t count = 1 + rng.next_below(depth == 0 ? 6 : 3);
    for (std::uint64_t i = 0; i < count; ++i) {
      const TypeId scalar =
          TypeRegistry::scalar_id(kScalarPool[rng.next_below(std::size(kScalarPool))]);
      TypeId type = scalar;
      switch (rng.next_below(depth < 2 ? 5 : 3)) {
        case 0:
          break;
        case 1:
          type = registry_.array_of(scalar, random_count(rng, 6));
          break;
        case 2:
          type = registry_.pointer_to(rng.next_bool(0.5) ? self : scalar);
          break;
        default: {
          auto nested = registry_.register_struct("N" + std::to_string(next_name_++),
                                                  random_fields(rng, self, depth + 1));
          nested.status().check();
          type = rng.next_bool(0.5) ? nested.value()
                                    : registry_.array_of(nested.value(), random_count(rng, 3));
          break;
        }
      }
      fields.push_back({"f" + std::to_string(i), type});
    }
    return fields;
  }

  // The reference walk, independent of the plans: calls `fn(view, desc)`
  // for every scalar and pointer leaf in declaration order, descending
  // through struct fields and array elements by name and index.
  template <typename Fn>
  void for_each_leaf(const ValueView& view, Fn&& fn) const {
    const TypeDescriptor& desc = registry_.get(view.type());
    if (desc.kind() == TypeKind::kStruct) {
      for (const auto& field : desc.fields()) {
        for_each_leaf(view.field(field.name).value(), fn);
      }
    } else if (desc.kind() == TypeKind::kArray) {
      for (std::uint32_t i = 0; i < desc.count(); ++i) {
        for_each_leaf(view.element(i).value(), fn);
      }
    } else {
      fn(view, desc);
    }
  }

  // Fills an image (for `arch`) with random values via the view; returns
  // the normalised leaf values for later comparison.
  std::vector<std::int64_t> randomise(Rng& rng, const ArchModel& arch, TypeId type,
                                      void* image) {
    std::vector<std::int64_t> snapshot;
    for_each_leaf(ValueView(registry_, layouts_, arch, type, image),
                  [&](ValueView leaf, const TypeDescriptor& desc) {
      if (desc.kind() == TypeKind::kPointer) {
        // Null sometimes; otherwise any value a 4-byte pointer can hold.
        const std::uint64_t p = rng.next_bool(0.25) ? 0 : 1 + rng.next_below(0xFFFFFFFEULL);
        leaf.set_pointer(p).check();
        snapshot.push_back(static_cast<std::int64_t>(p));
        return;
      }
      const ScalarType s = desc.scalar();
      if (s == ScalarType::kF32) {
        const float x = static_cast<float>(rng.next_in(-1000000, 1000000)) / 8.0F;
        leaf.set_float(x).check();
        snapshot.push_back(static_cast<std::int64_t>(x * 8));
      } else if (s == ScalarType::kF64) {
        const double x = static_cast<double>(rng.next_in(-1000000, 1000000)) / 16.0;
        leaf.set_float(x).check();
        snapshot.push_back(static_cast<std::int64_t>(x * 16));
      } else if (s == ScalarType::kBool) {
        const bool b = rng.next_bool(0.5);
        leaf.set_int(b ? 1 : 0).check();
        snapshot.push_back(b ? 1 : 0);
      } else {
        // Clamp into the field's own range, sign-correct.
        const std::uint32_t bits = scalar_size(s) * 8;
        std::int64_t v = static_cast<std::int64_t>(rng.next());
        if (bits < 64) {
          const std::int64_t mask = (1LL << bits) - 1;
          v &= mask;
          const bool is_signed = s == ScalarType::kI8 || s == ScalarType::kI16 ||
                                 s == ScalarType::kI32;
          if (is_signed && (v & (1LL << (bits - 1)))) v -= (1LL << bits);
        }
        leaf.set_int(v).check();
        snapshot.push_back(leaf.get_int().value());
      }
    });
    return snapshot;
  }

  std::vector<std::int64_t> read_back(const ArchModel& arch, TypeId type, void* image) {
    std::vector<std::int64_t> out;
    for_each_leaf(ValueView(registry_, layouts_, arch, type, image),
                  [&](ValueView leaf, const TypeDescriptor& desc) {
      if (desc.kind() == TypeKind::kPointer) {
        out.push_back(static_cast<std::int64_t>(leaf.get_pointer().value()));
      } else if (desc.scalar() == ScalarType::kF32) {
        out.push_back(static_cast<std::int64_t>(leaf.get_float().value() * 8));
      } else if (desc.scalar() == ScalarType::kF64) {
        out.push_back(static_cast<std::int64_t>(leaf.get_float().value() * 16));
      } else {
        out.push_back(leaf.get_int().value());
      }
    });
    return out;
  }

  // host -> canonical -> sparc32 -> canonical -> host, checking the value
  // through the descriptors at every image and the canonical forms against
  // each other.
  void expect_lossless_via_sparc(Rng& rng, TypeId type, PointerFieldCodec& pointers) {
    std::vector<std::uint8_t> host_in(layouts_.size_of(host_arch(), type), 0);
    const auto expected = randomise(rng, host_arch(), type, host_in.data());

    ByteBuffer wire1;
    {
      xdr::Encoder enc(wire1);
      ASSERT_TRUE(codec_.encode(host_arch(), type, host_in.data(), enc, pointers).is_ok());
    }
    std::vector<std::uint8_t> sparc(layouts_.size_of(sparc32_arch(), type), 0);
    {
      xdr::Decoder dec(wire1);
      ASSERT_TRUE(codec_.decode(sparc32_arch(), type, sparc.data(), dec, pointers).is_ok());
      EXPECT_TRUE(dec.exhausted());
    }
    // The foreign image reads the same through the descriptor...
    EXPECT_EQ(read_back(sparc32_arch(), type, sparc.data()), expected);

    // ...and converts back to an identical host value.
    ByteBuffer wire2;
    {
      xdr::Encoder enc(wire2);
      ASSERT_TRUE(codec_.encode(sparc32_arch(), type, sparc.data(), enc, pointers).is_ok());
    }
    std::vector<std::uint8_t> host_out(host_in.size(), 0);
    {
      xdr::Decoder dec(wire2);
      ASSERT_TRUE(codec_.decode(host_arch(), type, host_out.data(), dec, pointers).is_ok());
    }
    EXPECT_EQ(read_back(host_arch(), type, host_out.data()), expected);
    // Canonical forms must agree bit for bit regardless of source arch.
    ASSERT_EQ(wire1.size(), wire2.size());
    EXPECT_EQ(std::memcmp(wire1.data(), wire2.data(), wire1.size()), 0);
  }

  TypeRegistry registry_;
  LayoutEngine layouts_;
  ValueCodec codec_;
  int next_name_ = 0;
};

TEST_P(CodecProperty, HostRoundTripIsExact) {
  Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    const TypeId type = random_struct(rng, round);
    const std::uint64_t size = layouts_.size_of(host_arch(), type);
    std::vector<std::uint8_t> in(size, 0);
    std::vector<std::uint8_t> out(size, 0xFF);
    const auto expected = randomise(rng, host_arch(), type, in.data());

    ByteBuffer wire;
    xdr::Encoder enc(wire);
    NullOnlyFieldCodec no_pointers;
    ASSERT_TRUE(codec_.encode(host_arch(), type, in.data(), enc, no_pointers).is_ok());
    // Wire size is exactly the deterministic prediction.
    EXPECT_EQ(wire.size(), codec_.wire_size(type).value());

    xdr::Decoder dec(wire);
    ASSERT_TRUE(codec_.decode(host_arch(), type, out.data(), dec, no_pointers).is_ok());
    EXPECT_TRUE(dec.exhausted());
    EXPECT_EQ(read_back(host_arch(), type, out.data()), expected);
  }
}

TEST_P(CodecProperty, HostToSparcAndBackIsLossless) {
  Rng rng(GetParam() * 977 + 3);
  for (int round = 0; round < 8; ++round) {
    NullOnlyFieldCodec no_pointers;
    expect_lossless_via_sparc(rng, random_struct(rng, 100 + round), no_pointers);
  }
}

TEST_P(CodecProperty, NestedTypesSurviveHostToSparcAndBack) {
  Rng rng(GetParam() * 131 + 5);
  for (int round = 0; round < 8; ++round) {
    RecordingPointerCodec pointers(16);
    expect_lossless_via_sparc(rng, random_nested_type(rng), pointers);
  }
}

TEST_P(CodecProperty, NestedPlansMatchAReferenceWalk) {
  Rng rng(GetParam() * 31 + 7);
  for (int round = 0; round < 8; ++round) {
    const TypeId type = random_nested_type(rng);
    for (const ArchModel* arch : {&host_arch(), &sparc32_arch()}) {
      SCOPED_TRACE(arch->name);
      const Layout& plan = *layouts_.layout_of(*arch, type).value();
      std::vector<std::uint8_t> image(plan.size, 0);
      // Each pointer holds 0x100000 + its offset, so the codec's visits
      // name the leaf they came from.
      std::vector<std::pair<std::uint64_t, TypeId>> expected_visits;
      std::vector<ByteRange> expected_ranges;
      for_each_leaf(ValueView(registry_, layouts_, *arch, type, image.data()),
                    [&](ValueView leaf, const TypeDescriptor& desc) {
        if (desc.kind() != TypeKind::kPointer) return;
        const auto offset = static_cast<std::uint32_t>(
            static_cast<std::uint8_t*>(leaf.data()) - image.data());
        leaf.set_pointer(0x100000 + offset).check();
        expected_visits.emplace_back(0x100000 + offset, desc.pointee());
        expected_ranges.push_back(ByteRange{offset, arch->pointer_size});
      });
      merge_ranges(expected_ranges);
      EXPECT_EQ(plan.pointer_ranges, expected_ranges);

      for (const std::uint64_t pointer_bytes : {16, 4}) {
        RecordingPointerCodec pointers(pointer_bytes);
        ByteBuffer wire;
        xdr::Encoder enc(wire);
        ASSERT_TRUE(codec_.encode(*arch, type, image.data(), enc, pointers).is_ok());
        EXPECT_EQ(pointers.visits, expected_visits);
        EXPECT_EQ(wire.size(), pointer_bytes == 16
                                   ? codec_.wire_size(type).value()
                                   : codec_.wire_size(type, pointer_bytes).value());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace srpc

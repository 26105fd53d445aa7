// Per-architecture memory layout computation, compiled into a value plan.
//
// Heterogeneous DSM systems (the paper's §5.2 comparison) force one physical
// layout on every machine. Smart RPC instead shares only logical types:
// each space materialises a type in its own architecture's layout, and this
// engine computes that layout — natural alignment, pointer width from the
// ArchModel, struct size rounded to struct alignment (matching the SysV-style
// ABIs of both our host and the paper's SPARC).
//
// The Layout of a type is also its compiled plan on that architecture: every
// scalar and pointer leaf of one value in declaration order (nested structs
// flattened, arrays unrolled) with its byte offset, equal leaves at one
// stride merged into a single run — so a scalar array is one run however
// long it is — plus the merged byte ranges that hold pointers and the
// canonical wire size. Encoding, decoding, wire sizing, the closure
// packer's pointer scan and the delta encoder's pointer-overlap check are
// each one flat loop over a cached plan; LayoutEngine::compute is the only
// code that descends through type descriptors.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/byte_range.hpp"
#include "common/status.hpp"
#include "types/arch.hpp"
#include "types/type_descriptor.hpp"
#include "types/type_registry.hpp"

namespace srpc {

// `count` leaves of one kind, the first at `offset` and each `stride` bytes
// after the one before: scalars of type `scalar`, or pointers to `pointee`.
struct LayoutRun {
  std::uint64_t offset = 0;
  std::uint64_t stride = 0;
  std::uint64_t count = 1;
  TypeId pointee = kInvalidTypeId;  // kInvalidTypeId: a scalar run
  ScalarType scalar = ScalarType::kI8;

  [[nodiscard]] bool is_pointer() const noexcept { return pointee != kInvalidTypeId; }
};

struct Layout {
  std::uint64_t size = 0;
  std::uint32_t align = 1;
  // Byte offset of each struct field, parallel to TypeDescriptor::fields().
  std::vector<std::uint64_t> field_offsets;

  // The plan. Leaves run in declaration order, which is the canonical wire
  // order of the value's fields.
  std::vector<LayoutRun> runs;
  // Merged byte ranges of the local image that hold pointers.
  std::vector<ByteRange> pointer_ranges;
  // Canonical wire size: XDR bytes of every scalar, plus one pointer field
  // per pointer leaf.
  std::uint64_t scalar_wire_bytes = 0;
  std::uint64_t pointer_count = 0;

  [[nodiscard]] std::uint64_t wire_size(std::uint64_t pointer_wire_bytes) const noexcept {
    return scalar_wire_bytes + pointer_count * pointer_wire_bytes;
  }

  // Calls `fn(ordinary_pointer_value, pointee)` for every non-null pointer
  // in the value at `src` (laid out per `arch`), in declaration order.
  template <typename Fn>
  void for_each_pointer(const ArchModel& arch, const void* src, Fn&& fn) const {
    const auto* bytes = static_cast<const std::uint8_t*>(src);
    for (const LayoutRun& run : runs) {
      if (!run.is_pointer()) continue;
      for (std::uint64_t i = 0; i < run.count; ++i) {
        const std::uint64_t ordinary = read_scaled_uint(
            bytes + run.offset + i * run.stride, arch.pointer_size, arch.endian);
        if (ordinary != 0) fn(ordinary, run.pointee);
      }
    }
  }
};

class LayoutEngine {
 public:
  explicit LayoutEngine(const TypeRegistry& registry) : registry_(registry) {}
  LayoutEngine(const LayoutEngine&) = delete;
  LayoutEngine& operator=(const LayoutEngine&) = delete;

  // Computes (and caches) the layout and plan of `type` on `arch`. Fails on
  // incomplete structs and on structs containing themselves by value.
  Result<const Layout*> layout_of(const ArchModel& arch, TypeId type) const;

  // Convenience: layout size, throwing on failure (runtime-internal ids).
  std::uint64_t size_of(const ArchModel& arch, TypeId type) const;

 private:
  struct ArchKey {
    Endian endian;
    std::uint32_t pointer_size;
    std::uint32_t max_align;
    auto operator<=>(const ArchKey&) const = default;
  };
  static ArchKey key_of(const ArchModel& arch) noexcept {
    return {arch.endian, arch.pointer_size, arch.max_align};
  }

  // Size, alignment, field offsets and runs; layout_of() derives the rest.
  Result<Layout> compute(const ArchModel& arch, TypeId type,
                         std::vector<TypeId>& in_progress) const;

  const TypeRegistry& registry_;
  mutable std::mutex mutex_;
  mutable std::map<std::pair<ArchKey, TypeId>, Layout> cache_;
};

}  // namespace srpc

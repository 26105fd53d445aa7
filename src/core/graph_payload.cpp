#include "core/graph_payload.hpp"

#include <algorithm>
#include <unordered_map>

namespace srpc {

namespace {

// Pointer fields are packed into one u32: the low 2 bits are the tag, the
// high 30 bits the payload (an intra-payload index, or a same-space address
// delta from the payload's base, scaled by the 8-byte heap alignment and
// zigzag-coded so targets below the lowest object pack too). 0 is null; tag
// kTagFull is the escape to a full 16-byte long pointer. This compactness
// is load-bearing for Figure 4's crossover (see EXPERIMENTS.md).
enum PointerTag : std::uint32_t {
  kTagNull = 0,
  kTagIntra = 1,
  kTagDelta = 2,
  kTagFull = 3,
};

inline constexpr std::uint32_t kMaxPackedPayload = (1U << 30) - 1;
inline constexpr std::uint32_t kDeltaScale = 8;

// Zigzag: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
inline std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t z) noexcept {
  return static_cast<std::int64_t>(z >> 1) ^ -static_cast<std::int64_t>(z & 1);
}

// Trailing canary: payloads are length-implicit (values are walked by
// type), so a codec disagreement would silently desynchronise the stream;
// this turns that into an immediate PROTOCOL_ERROR.
inline constexpr std::uint32_t kPayloadCanary = 0x47504C44;  // "GPLD"


// Pointer-field codec used while encoding payload values.
class GraphPointerEncoder final : public PointerFieldCodec {
 public:
  GraphPointerEncoder(PointerTranslator& translator, SpaceId space,
                      std::uint64_t base,
                      const std::unordered_map<std::uint64_t, std::uint32_t>& index)
      : translator_(translator), space_(space), base_(base), index_(index) {}

  Status encode(xdr::Encoder& enc, std::uint64_t ordinary, TypeId pointee) override {
    if (ordinary == 0) {
      enc.put_u32(0);
      return Status::ok();
    }
    auto lp = translator_.unswizzle(ordinary, pointee);
    if (!lp) return lp.status();
    const LongPointer& p = lp.value();
    if (p.space == space_) {
      auto it = index_.find(p.address);
      if (it != index_.end() && it->second <= kMaxPackedPayload) {
        enc.put_u32((it->second << 2) | kTagIntra);
        return Status::ok();
      }
      const auto delta = static_cast<std::int64_t>(p.address - base_);
      if (p.type == pointee && delta % kDeltaScale == 0) {
        const std::uint64_t packed = zigzag(delta / kDeltaScale);
        if (packed <= kMaxPackedPayload) {
          enc.put_u32((static_cast<std::uint32_t>(packed) << 2) | kTagDelta);
          return Status::ok();
        }
      }
    }
    enc.put_u32(kTagFull);
    encode_long_pointer(enc, p);
    return Status::ok();
  }

  Result<std::uint64_t> decode(xdr::Decoder& dec, TypeId pointee) override {
    (void)dec;
    (void)pointee;
    return internal_error("GraphPointerEncoder used for decoding");
  }

 private:
  PointerTranslator& translator_;
  SpaceId space_;
  std::uint64_t base_;
  const std::unordered_map<std::uint64_t, std::uint32_t>& index_;
};

// Pointer-field codec used while decoding payload values.
class GraphPointerDecoder final : public PointerFieldCodec {
 public:
  GraphPointerDecoder(GraphSink& sink, SpaceId space, std::uint64_t base,
                      std::uint32_t count)
      : sink_(sink), space_(space), base_(base), count_(count) {}

  Status encode(xdr::Encoder& enc, std::uint64_t ordinary, TypeId pointee) override {
    (void)enc;
    (void)ordinary;
    (void)pointee;
    return internal_error("GraphPointerDecoder used for encoding");
  }

  Result<std::uint64_t> decode(xdr::Decoder& dec, TypeId pointee) override {
    auto packed = dec.get_u32();
    if (!packed) return packed.status();
    const std::uint32_t v = packed.value();
    if (v == 0) return std::uint64_t{0};
    const std::uint32_t payload = v >> 2;
    switch (v & 3U) {
      case kTagIntra: {
        if (payload >= count_) {
          return protocol_error("intra-payload index " + std::to_string(payload) +
                                " out of range");
        }
        return sink_.address_of(payload);
      }
      case kTagDelta: {
        const std::uint64_t addr =
            base_ + static_cast<std::uint64_t>(unzigzag(payload) * kDeltaScale);
        return sink_.swizzle(LongPointer{space_, addr, pointee}, pointee);
      }
      case kTagFull: {
        if (payload != 0) {
          return protocol_error("malformed packed pointer");
        }
        auto lp = decode_long_pointer(dec);
        if (!lp) return lp.status();
        return sink_.swizzle(lp.value(), pointee);
      }
      default:
        return protocol_error("malformed packed pointer (null tag with payload)");
    }
  }

 private:
  GraphSink& sink_;
  SpaceId space_;
  std::uint64_t base_;
  std::uint32_t count_;
};

}  // namespace

Status encode_graph_payload(const ValueCodec& codec, const ArchModel& arch,
                            SpaceId space, std::span<const GraphObjectRef> objects,
                            PointerTranslator& translator, ByteBuffer& out) {
  xdr::Encoder enc(out);
  if (objects.size() > 0xFFFFFFFFULL) {
    return invalid_argument("graph payload too large");
  }

  std::uint64_t base = objects.empty() ? 0 : objects[0].addr;
  for (const auto& obj : objects) base = std::min(base, obj.addr);
  bool wide = false;
  for (const auto& obj : objects) {
    if (obj.addr - base > 0xFFFFFFFFULL) {
      wide = true;
      break;
    }
  }

  // Most common type becomes the default (saves a fixup per object).
  std::unordered_map<TypeId, std::uint32_t> type_counts;
  for (const auto& obj : objects) ++type_counts[obj.type];
  TypeId default_type = kInvalidTypeId;
  std::uint32_t best = 0;
  for (const auto& [type, n] : type_counts) {
    if (n > best) {
      best = n;
      default_type = type;
    }
  }

  // Size the output once up front: large payloads (closures, modified sets)
  // otherwise regrow the buffer repeatedly mid-encode.
  std::uint64_t estimate = 24;  // header fields
  for (const auto& [type, n] : type_counts) {
    auto plan = codec.layouts.layout_of(arch, type);
    if (plan) estimate += graph_object_wire_size(*plan.value()) * n;
  }
  enc.reserve(estimate);

  enc.put_u32(space);
  enc.put_u32(wide ? 1 : 0);
  enc.put_u64(base);
  enc.put_u32(default_type);
  enc.put_u32(static_cast<std::uint32_t>(objects.size()));

  std::unordered_map<std::uint64_t, std::uint32_t> index;
  index.reserve(objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (!index.emplace(objects[i].addr, static_cast<std::uint32_t>(i)).second) {
      return invalid_argument("duplicate object address in graph payload");
    }
    if (wide) {
      enc.put_u64(objects[i].addr);
    } else {
      enc.put_u32(static_cast<std::uint32_t>(objects[i].addr - base));
    }
  }

  std::vector<std::pair<std::uint32_t, TypeId>> fixups;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (objects[i].type != default_type) {
      fixups.emplace_back(static_cast<std::uint32_t>(i), objects[i].type);
    }
  }
  enc.put_u32(static_cast<std::uint32_t>(fixups.size()));
  for (const auto& [i, type] : fixups) {
    enc.put_u32(i);
    enc.put_u32(type);
  }

  GraphPointerEncoder pointer_codec(translator, space, base, index);
  for (const auto& obj : objects) {
    SRPC_RETURN_IF_ERROR(codec.encode(arch, obj.type, obj.src, enc, pointer_codec));
  }
  enc.put_u32(kPayloadCanary);
  return Status::ok();
}

Status decode_graph_payload(const ValueCodec& codec, const ArchModel& arch,
                            ByteBuffer& in, GraphSink& sink,
                            std::vector<LongPointer>* ids_out) {
  xdr::Decoder dec(in);
  auto space = dec.get_u32();
  if (!space) return space.status();
  auto wide = dec.get_u32();
  if (!wide) return wide.status();
  auto base = dec.get_u64();
  if (!base) return base.status();
  auto default_type = dec.get_u32();
  if (!default_type) return default_type.status();
  // Each object takes at least its address header and one value word.
  auto count = dec.get_count((wide.value() != 0 ? 8 : 4) + 4);
  if (!count) return count.status();

  std::vector<LongPointer> ids(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    std::uint64_t addr = 0;
    if (wide.value() != 0) {
      auto a = dec.get_u64();
      if (!a) return a.status();
      addr = a.value();
    } else {
      auto d = dec.get_u32();
      if (!d) return d.status();
      addr = base.value() + d.value();
    }
    ids[i] = LongPointer{space.value(), addr, default_type.value()};
  }

  auto fixup_count = dec.get_u32();
  if (!fixup_count) return fixup_count.status();
  for (std::uint32_t i = 0; i < fixup_count.value(); ++i) {
    auto index = dec.get_u32();
    if (!index) return index.status();
    auto type = dec.get_u32();
    if (!type) return type.status();
    if (index.value() >= count.value()) {
      return protocol_error("type fixup index out of range");
    }
    ids[index.value()].type = type.value();
  }

  std::vector<void*> destinations(count.value(), nullptr);
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto dest = sink.prepare(i, ids[i]);
    if (!dest) return dest.status();
    destinations[i] = dest.value();
  }

  GraphPointerDecoder pointer_codec(sink, space.value(), base.value(), count.value());
  std::vector<std::uint8_t> scratch;
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    void* dest = destinations[i];
    if (dest == nullptr) {
      // Skipped object: decode into scratch so the cursor stays in sync.
      auto layout = codec.layouts.layout_of(arch, ids[i].type);
      if (!layout) return layout.status();
      scratch.assign(layout.value()->size, 0);
      dest = scratch.data();
    }
    SRPC_RETURN_IF_ERROR(codec.decode(arch, ids[i].type, dest, dec, pointer_codec));
  }
  auto canary = dec.get_u32();
  if (!canary) return canary.status();
  if (canary.value() != kPayloadCanary) {
    return protocol_error("graph payload canary mismatch (stream desynchronised)");
  }
  if (ids_out != nullptr) {
    *ids_out = std::move(ids);
  }
  return Status::ok();
}

std::uint64_t graph_object_wire_size(const Layout& plan) noexcept {
  // Header delta (4) + value with packed-u32 pointer fields.
  return 4 + plan.wire_size(/*pointer_wire_bytes=*/4);
}

}  // namespace srpc

#include "types/value_codec.hpp"

namespace srpc {

namespace {

// Sign-extends the low `bits` of `v`.
std::int64_t sign_extend(std::uint64_t v, unsigned bits) noexcept {
  const unsigned shift = 64 - bits;
  return static_cast<std::int64_t>(v << shift) >> shift;
}

void encode_scalar(const ArchModel& arch, ScalarType s, const void* src,
                   xdr::Encoder& enc) {
  const std::uint32_t size = scalar_size(s);
  const std::uint64_t raw = read_scaled_uint(src, size, arch.endian);
  switch (s) {
    case ScalarType::kI8:
    case ScalarType::kI16:
    case ScalarType::kI32:
      enc.put_i32(static_cast<std::int32_t>(sign_extend(raw, size * 8)));
      return;
    case ScalarType::kU8:
    case ScalarType::kU16:
    case ScalarType::kU32:
    case ScalarType::kF32:  // IEEE bits, already canonical
      enc.put_u32(static_cast<std::uint32_t>(raw));
      return;
    case ScalarType::kBool:
      enc.put_bool(raw != 0);
      return;
    case ScalarType::kI64:
    case ScalarType::kU64:
    case ScalarType::kF64:
      enc.put_u64(raw);
      return;
  }
}

Status decode_scalar(const ArchModel& arch, ScalarType s, void* dst, xdr::Decoder& dec) {
  const std::uint32_t size = scalar_size(s);
  std::uint64_t raw = 0;
  if (size == 8) {
    auto v = dec.get_u64();
    if (!v) return v.status();
    raw = v.value();
  } else {
    auto v = dec.get_u32();
    if (!v) return v.status();
    raw = v.value();
    // Narrow values travel sign- or zero-extended to a whole XDR word; any
    // other word is not a value of the type.
    bool fits = true;
    switch (s) {
      case ScalarType::kBool:
        fits = raw <= 1;
        break;
      case ScalarType::kU8:
      case ScalarType::kU16:
        fits = raw >> (size * 8) == 0;
        break;
      case ScalarType::kI8:
      case ScalarType::kI16:
        fits = sign_extend(raw, size * 8) == static_cast<std::int32_t>(raw);
        break;
      default:
        break;
    }
    if (!fits) {
      return protocol_error("XDR word " + std::to_string(raw) +
                            " out of range for scalar type " +
                            std::to_string(static_cast<TypeId>(s)));
    }
  }
  write_scaled_uint(dst, size, arch.endian, raw);
  return Status::ok();
}

}  // namespace

Status LongPointerFieldCodec::encode(xdr::Encoder& enc, std::uint64_t ordinary,
                                     TypeId pointee) {
  if (ordinary == 0) {
    encode_long_pointer(enc, LongPointer::null());
    return Status::ok();
  }
  auto lp = translator_.unswizzle(ordinary, pointee);
  if (!lp) return lp.status();
  encode_long_pointer(enc, lp.value());
  return Status::ok();
}

Result<std::uint64_t> LongPointerFieldCodec::decode(xdr::Decoder& dec, TypeId pointee) {
  auto lp = decode_long_pointer(dec);
  if (!lp) return lp.status();
  if (lp.value().is_null()) return std::uint64_t{0};
  return translator_.swizzle(lp.value(), pointee);
}

Status NullOnlyFieldCodec::encode(xdr::Encoder& enc, std::uint64_t ordinary,
                                  TypeId pointee) {
  (void)enc;
  (void)pointee;
  return failed_precondition("non-null pointer (0x" + std::to_string(ordinary) +
                             ") where no pointers are allowed");
}

Result<std::uint64_t> NullOnlyFieldCodec::decode(xdr::Decoder& dec, TypeId pointee) {
  (void)dec;
  (void)pointee;
  return failed_precondition("pointer field where no pointers are allowed");
}

Status ValueCodec::encode(const ArchModel& arch, TypeId type, const void* src,
                          xdr::Encoder& enc, PointerFieldCodec& ptr) const {
  auto plan = layouts.layout_of(arch, type);
  if (!plan) return plan.status();
  const auto* bytes = static_cast<const std::uint8_t*>(src);
  for (const LayoutRun& run : plan.value()->runs) {
    for (std::uint64_t i = 0; i < run.count; ++i) {
      const std::uint8_t* at = bytes + run.offset + i * run.stride;
      if (!run.is_pointer()) {
        encode_scalar(arch, run.scalar, at, enc);
        continue;
      }
      SRPC_RETURN_IF_ERROR(ptr.encode(
          enc, read_scaled_uint(at, arch.pointer_size, arch.endian), run.pointee));
    }
  }
  return Status::ok();
}

Status ValueCodec::decode(const ArchModel& arch, TypeId type, void* dst,
                          xdr::Decoder& dec, PointerFieldCodec& ptr) const {
  auto plan = layouts.layout_of(arch, type);
  if (!plan) return plan.status();
  auto* bytes = static_cast<std::uint8_t*>(dst);
  for (const LayoutRun& run : plan.value()->runs) {
    for (std::uint64_t i = 0; i < run.count; ++i) {
      std::uint8_t* at = bytes + run.offset + i * run.stride;
      if (!run.is_pointer()) {
        SRPC_RETURN_IF_ERROR(decode_scalar(arch, run.scalar, at, dec));
        continue;
      }
      auto ordinary = ptr.decode(dec, run.pointee);
      if (!ordinary) return ordinary.status();
      if (arch.pointer_size < 8 &&
          ordinary.value() >= (1ULL << (8 * arch.pointer_size))) {
        return internal_error("swizzled pointer does not fit " +
                              std::to_string(arch.pointer_size) + "-byte pointer");
      }
      write_scaled_uint(at, arch.pointer_size, arch.endian, ordinary.value());
    }
  }
  return Status::ok();
}

Result<std::uint64_t> ValueCodec::wire_size(TypeId type,
                                            std::uint64_t pointer_wire_bytes) const {
  // The canonical form does not depend on the architecture, so any plan
  // of the type gives the size; the host's is the one most often cached.
  auto plan = layouts.layout_of(host_arch(), type);
  if (!plan) return plan.status();
  return plan.value()->wire_size(pointer_wire_bytes);
}

}  // namespace srpc

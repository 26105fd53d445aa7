#include "xdr/xdr_decoder.hpp"

#include <bit>

namespace srpc::xdr {

Result<std::uint32_t> Decoder::get_u32() {
  std::uint8_t bytes[4];
  SRPC_RETURN_IF_ERROR(in_.read(bytes, sizeof bytes));
  return (static_cast<std::uint32_t>(bytes[0]) << 24) |
         (static_cast<std::uint32_t>(bytes[1]) << 16) |
         (static_cast<std::uint32_t>(bytes[2]) << 8) |
         static_cast<std::uint32_t>(bytes[3]);
}

Result<std::int32_t> Decoder::get_i32() {
  auto v = get_u32();
  if (!v) return v.status();
  return static_cast<std::int32_t>(v.value());
}

Result<std::uint64_t> Decoder::get_u64() {
  auto hi = get_u32();
  if (!hi) return hi.status();
  auto lo = get_u32();
  if (!lo) return lo.status();
  return (static_cast<std::uint64_t>(hi.value()) << 32) | lo.value();
}

Result<std::int64_t> Decoder::get_i64() {
  auto v = get_u64();
  if (!v) return v.status();
  return static_cast<std::int64_t>(v.value());
}

Result<bool> Decoder::get_bool() {
  auto v = get_u32();
  if (!v) return v.status();
  if (v.value() > 1) {
    return protocol_error("XDR bool out of range: " + std::to_string(v.value()));
  }
  return v.value() == 1;
}

Result<float> Decoder::get_f32() {
  auto v = get_u32();
  if (!v) return v.status();
  return std::bit_cast<float>(v.value());
}

Result<double> Decoder::get_f64() {
  auto v = get_u64();
  if (!v) return v.status();
  return std::bit_cast<double>(v.value());
}

Result<std::vector<std::uint8_t>> Decoder::get_opaque_fixed(std::size_t len) {
  std::vector<std::uint8_t> out(len);
  if (len > 0) {
    SRPC_RETURN_IF_ERROR(in_.read(out.data(), len));
  }
  std::uint8_t pad[kUnit];
  const std::size_t pad_len = padding(len);
  if (pad_len > 0) {
    SRPC_RETURN_IF_ERROR(in_.read(pad, pad_len));
  }
  return out;
}

Result<std::vector<std::uint8_t>> Decoder::get_opaque(std::size_t max_len) {
  auto len = get_u32();
  if (!len) return len.status();
  if (len.value() > max_len) {
    return protocol_error("XDR opaque length " + std::to_string(len.value()) +
                          " exceeds limit");
  }
  return get_opaque_fixed(len.value());
}

Result<std::string> Decoder::get_string(std::size_t max_len) {
  auto bytes = get_opaque(max_len);
  if (!bytes) return bytes.status();
  return std::string(bytes.value().begin(), bytes.value().end());
}

Result<std::uint32_t> Decoder::get_count(std::size_t min_item_bytes) {
  auto n = get_u32();
  if (!n) return n.status();
  if (std::uint64_t{n.value()} * min_item_bytes > in_.remaining()) {
    return protocol_error("XDR count " + std::to_string(n.value()) +
                          " needs more than the " + std::to_string(in_.remaining()) +
                          " bytes left");
  }
  return n.value();
}

}  // namespace srpc::xdr

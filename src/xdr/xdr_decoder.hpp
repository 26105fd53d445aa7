#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_buffer.hpp"
#include "common/status.hpp"
#include "xdr/xdr.hpp"

namespace srpc::xdr {

// Consumes XDR items from a ByteBuffer's read cursor. Every accessor
// returns a Result so malformed wire data surfaces as PROTOCOL_ERROR /
// OUT_OF_RANGE instead of undefined behaviour.
class Decoder {
 public:
  explicit Decoder(ByteBuffer& in) : in_(in) {}

  Result<std::uint32_t> get_u32();
  Result<std::int32_t> get_i32();
  Result<std::uint64_t> get_u64();
  Result<std::int64_t> get_i64();
  Result<bool> get_bool();
  Result<float> get_f32();
  Result<double> get_f64();

  // Fixed-length opaque of exactly `len` data bytes (consumes padding too).
  Result<std::vector<std::uint8_t>> get_opaque_fixed(std::size_t len);

  // Variable-length opaque. `max_len` bounds hostile lengths.
  Result<std::vector<std::uint8_t>> get_opaque(std::size_t max_len = 1ULL << 30);

  Result<std::string> get_string(std::size_t max_len = 1ULL << 30);

  // A u32 count of items that each take at least `min_item_bytes` on the
  // wire. A count whose items cannot all fit in the bytes left is a
  // PROTOCOL_ERROR, so no count read from the wire sizes an allocation
  // before its bytes have arrived.
  Result<std::uint32_t> get_count(std::size_t min_item_bytes);

  [[nodiscard]] bool exhausted() const noexcept { return in_.exhausted(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return in_.remaining(); }
  [[nodiscard]] ByteBuffer& buffer() noexcept { return in_; }

 private:
  ByteBuffer& in_;
};

}  // namespace srpc::xdr

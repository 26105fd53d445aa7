// Plan-driven value encoding (paper §3.2, "data representations must
// be encoded and decoded to preserve their data types in a heterogeneous
// environment ... except for the case of pointers, which must be unswizzled
// and swizzled").
//
// encode() runs the type's compiled plan for a given ArchModel (see
// types/layout.hpp) over a memory image laid out for it and emits canonical
// XDR, one leaf after another; decode() does the reverse. Pointer fields
// are delegated to a PointerFieldCodec, because their wire form depends on
// context: argument marshalling sends full long pointers
// (LongPointerFieldCodec), while graph payloads use a compact tagged form
// (core/graph_payload.hpp).
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "swizzle/long_pointer.hpp"
#include "types/arch.hpp"
#include "types/layout.hpp"
#include "types/type_registry.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace srpc {

// Translates between in-memory ordinary pointers and long pointers.
// Implementations live in core/ (the cache manager swizzles via the data
// allocation table; homes unswizzle via the managed heap).
class PointerTranslator {
 public:
  virtual ~PointerTranslator() = default;

  // memory -> wire. `ordinary` is the raw pointer value read from the image
  // (zero means null and never reaches here).
  virtual Result<LongPointer> unswizzle(std::uint64_t ordinary, TypeId pointee) = 0;

  // wire -> memory. Returns the ordinary pointer value to store (the long
  // pointer is never null here).
  virtual Result<std::uint64_t> swizzle(const LongPointer& pointer, TypeId pointee) = 0;
};

// How pointer *fields* inside a value appear on the wire.
class PointerFieldCodec {
 public:
  virtual ~PointerFieldCodec() = default;
  virtual Status encode(xdr::Encoder& enc, std::uint64_t ordinary, TypeId pointee) = 0;
  virtual Result<std::uint64_t> decode(xdr::Decoder& dec, TypeId pointee) = 0;
};

// The plain form: every pointer field is a 16-byte long pointer (null
// encodes as the null long pointer), translated via a PointerTranslator.
class LongPointerFieldCodec final : public PointerFieldCodec {
 public:
  explicit LongPointerFieldCodec(PointerTranslator& translator)
      : translator_(translator) {}
  Status encode(xdr::Encoder& enc, std::uint64_t ordinary, TypeId pointee) override;
  Result<std::uint64_t> decode(xdr::Decoder& dec, TypeId pointee) override;

 private:
  PointerTranslator& translator_;
};

// Rejects any non-null pointer; for values that must be pointer-free.
class NullOnlyFieldCodec final : public PointerFieldCodec {
 public:
  Status encode(xdr::Encoder& enc, std::uint64_t ordinary, TypeId pointee) override;
  Result<std::uint64_t> decode(xdr::Decoder& dec, TypeId pointee) override;
};

struct ValueCodec {
  const TypeRegistry& registry;
  const LayoutEngine& layouts;  // compiles and caches the plans

  // Encodes the object at `src` (laid out per `arch`) as canonical XDR.
  Status encode(const ArchModel& arch, TypeId type, const void* src,
                xdr::Encoder& enc, PointerFieldCodec& ptr) const;

  // Decodes canonical XDR into the object at `dst` (laid out per `arch`).
  // A narrow integer or bool whose XDR word lies outside its type's range
  // is a PROTOCOL_ERROR (the encoder only ever sign- or zero-extends).
  Status decode(const ArchModel& arch, TypeId type, void* dst,
                xdr::Decoder& dec, PointerFieldCodec& ptr) const;

  // Canonical wire size of one value of `type`, assuming each pointer field
  // occupies `pointer_wire_bytes` (16 for the long-pointer form; callers
  // budgeting compact graph payloads pass their own estimate). The same on
  // every architecture.
  Result<std::uint64_t> wire_size(TypeId type,
                                  std::uint64_t pointer_wire_bytes =
                                      kLongPointerWireSize) const;
};

}  // namespace srpc

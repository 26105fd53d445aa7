// Graph payloads — the wire form of "a set of objects plus the pointers
// among them".
//
// One format serves every bulk data transfer in the system: fetch replies
// (the data allocated to a faulted page plus the eager closure, paper
// §3.2–3.3), the travelling modified data set (§3.4), and session-end
// write-backs. Layout:
//
//   space        u32   home space of every object in the payload
//   wide         u32   0: per-object addresses are u32 deltas from base
//                      1: per-object addresses are full u64 (range > 4 GiB)
//   base         u64   delta base (min object address)
//   default_type u32   most common object type
//   count        u32
//   headers      count × (u32 delta | u64 addr)
//   type_fixups  u32 n, then n × {index u32, type u32}   (objects whose
//                      type differs from default_type)
//   values       count × canonical value encoding, pointer fields packed
//                      into one u32 (low 2 bits tag, high 30 bits payload):
//                      0          null
//                      tag 1      intra-payload: payload = object index
//                      tag 2      same-space: payload = zigzag((addr - base) / 8),
//                                 signed, so targets below base pack too
//                      tag 3      escape: a 16-byte long pointer follows
//
// The compact forms matter for fidelity, not just bytes: the proposed
// method's per-node wire cost relative to the eager baseline's inline
// encoding determines where Figure 4's crossover falls (see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/byte_buffer.hpp"
#include "common/status.hpp"
#include "swizzle/long_pointer.hpp"
#include "types/value_codec.hpp"

namespace srpc {

// One object the encoder should pack: its home identity and a readable
// memory image (in the encoding space's architecture).
struct GraphObjectRef {
  std::uint64_t addr = 0;
  TypeId type = kInvalidTypeId;
  const void* src = nullptr;
};

// Encodes `objects` (all homed in `space`, images laid out per `arch`).
// `translator` unswizzles pointer fields found inside the images.
Status encode_graph_payload(const ValueCodec& codec, const ArchModel& arch,
                            SpaceId space, std::span<const GraphObjectRef> objects,
                            PointerTranslator& translator, ByteBuffer& out);

// Receiver-side callbacks. decode_graph_payload() drives them in two
// passes: prepare() for every object first (so intra-payload pointers can
// resolve forward references), then one value decode per object.
class GraphSink {
 public:
  virtual ~GraphSink() = default;

  // Registers object `index` with identity `id` and returns its writable
  // local destination. Returning nullptr skips the object (the codec still
  // consumes its wire bytes); used when a newer local copy must survive.
  virtual Result<void*> prepare(std::uint32_t index, const LongPointer& id) = 0;

  // Local ordinary pointer value for payload object `index`.
  virtual Result<std::uint64_t> address_of(std::uint32_t index) = 0;

  // Swizzles a reference that leaves the payload (tags 2 and 3).
  virtual Result<std::uint64_t> swizzle(const LongPointer& target, TypeId pointee) = 0;
};

// Decodes one payload from `in`'s cursor into `sink`. If `ids_out` is
// non-null it receives every object identity in payload order.
Status decode_graph_payload(const ValueCodec& codec, const ArchModel& arch,
                            ByteBuffer& in, GraphSink& sink,
                            std::vector<LongPointer>* ids_out = nullptr);

// Rough per-object wire cost in a graph payload of a value with plan
// `plan` (header plus value with compact 4-byte pointer fields); the
// closure packer budgets with this (the paper's closure size is a byte
// budget).
std::uint64_t graph_object_wire_size(const Layout& plan) noexcept;

}  // namespace srpc

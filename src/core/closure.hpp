// ClosurePacker — bounded breadth-first transitive closure (paper §3.3).
//
// "We introduce eagerness to the method by transferring a certain depth of
// the transitive closure of a pointer ... Our current implementation uses
// the breadth-first traverse algorithm with the maximum amount of the
// traversed data explicitly specified by the user."
//
// The packer starts from a set of root data and walks pointer fields
// breadth-first through everything locally *readable* — the space's own
// heap and resident cache pages — accumulating objects until the byte
// budget is spent. Unreadable or unknown targets stay behind as frontier
// long pointers in the encoded payload. The same packer serves three
// callers: fetch service at a home (roots = the faulted page's entries),
// eager transfer of pointer arguments, and eager transfer of pointer
// results.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "core/graph_payload.hpp"
#include "swizzle/long_pointer.hpp"
#include "types/value_codec.hpp"

namespace srpc {

// How the packer sees local memory; implemented by the Runtime.
class LocalDataView {
 public:
  virtual ~LocalDataView() = default;

  struct DatumView {
    LongPointer id;            // home identity (base)
    const void* image = nullptr;  // readable local-layout bytes
  };

  // Resolves a local ordinary pointer to a readable datum; an interior
  // address resolves to its containing datum. Returns a view with
  // image == nullptr when the datum exists but is not readable here
  // (swizzled but unfetched cache); NOT_FOUND when the address designates
  // nothing the runtime knows.
  virtual Result<DatumView> view_local(std::uint64_t local_addr) const = 0;
};

struct PackedClosure {
  // One object group per home space, ready for encode_graph_payload().
  std::map<SpaceId, std::vector<GraphObjectRef>> groups;
  std::uint64_t estimated_wire_bytes = 0;
  std::size_t objects = 0;
};

enum class TraversalOrder : std::uint8_t {
  kBreadthFirst,  // the paper's algorithm
  kDepthFirst,    // ablation: bench/ablation_closure_shape
};

class ClosurePacker {
 public:
  ClosurePacker(const ValueCodec& codec, const ArchModel& arch,
                const LocalDataView& view,
                TraversalOrder order = TraversalOrder::kBreadthFirst)
      : codec_(codec), arch_(arch), view_(view), order_(order) {}

  // Packs the closure of `roots` (local base addresses). Roots are always
  // included — they are the data the receiver asked for — and count toward
  // the budget; children are added while it lasts. With `require_roots`
  // (fetch service at a home) an unreadable root is an error — it would
  // mean a dangling remote pointer; without it (argument marshalling) an
  // unreadable root is just passed through as a pointer. Unreadable
  // *children* are always frontier.
  Result<PackedClosure> pack(std::span<const std::uint64_t> roots,
                             std::uint64_t budget_bytes,
                             bool require_roots = false) const;

  [[nodiscard]] TraversalOrder order() const noexcept { return order_; }
  void set_order(TraversalOrder order) noexcept { order_ = order; }

 private:
  const ValueCodec& codec_;
  const ArchModel& arch_;
  const LocalDataView& view_;
  TraversalOrder order_;
};

}  // namespace srpc

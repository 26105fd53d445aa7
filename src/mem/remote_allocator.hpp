// RemoteAllocator — batched extended_malloc / extended_free (paper §3.5).
//
// "Our solution ... is that the runtime system batches the memory
// allocation and release operation requests to the original address
// spaces. The batch operations are performed when the activity of the
// thread moves to another address space."
//
// allocate() hands back a *usable object immediately*: a born-resident,
// born-dirty cache location under a provisional identity. The creator
// initialises it in place; when control next leaves this space the runtime
// flushes the batch, the home assigns real addresses, the provisional
// identities are rebound, and the initial values then travel with the
// ordinary modified data set — no extra mechanism needed.
//
// One RemoteAllocator holds one session's pending batches (it lives in the
// session's state); the slots it hands out are on that session's pages of
// the space's cache, so every call that touches the cache runs with the
// session pinned.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "core/cache_manager.hpp"
#include "swizzle/long_pointer.hpp"

namespace srpc {

// Provisional home addresses carry this bit; no real user-space address
// does. They must never appear on the wire outside an ALLOC_BATCH.
inline constexpr std::uint64_t kProvisionalAddressBit = 1ULL << 63;

inline bool is_provisional_address(std::uint64_t addr) noexcept {
  return (addr & kProvisionalAddressBit) != 0;
}

class RemoteAllocator {
 public:

  struct PendingAlloc {
    std::uint64_t provisional = 0;
    TypeId type = kInvalidTypeId;  // full type (arrays pre-interned)
  };
  struct Batch {
    std::vector<PendingAlloc> allocs;
    std::vector<std::uint64_t> frees;  // real home addresses to release
  };

  // Allocates a local born-dirty location for a new object of `type`
  // (size/align already resolved by the caller) homed at `home`.
  Result<void*> allocate(CacheManager& cache, SpaceId home, TypeId type,
                         std::uint64_t size, std::uint32_t align);

  // Records the release of a cached remote datum. If `id` is provisional
  // the pending allocation is cancelled instead and nothing is sent.
  Status release(CacheManager& cache, const LongPointer& id);

  [[nodiscard]] std::vector<SpaceId> pending_homes() const;

  // Removes and returns the batch destined for `home`.
  Batch take_batch(SpaceId home);

  // Applies a home's ALLOC_REPLY: rebinds each provisional identity to the
  // assigned real address.
  Status apply_assignments(
      CacheManager& cache, SpaceId home,
      std::span<const std::pair<std::uint64_t, std::uint64_t>> assigned);

  // Session teardown.
  void clear() { batches_.clear(); }

 private:
  std::uint64_t next_provisional_ = 1;
  std::map<SpaceId, Batch> batches_;
};

}  // namespace srpc

#include "mem/remote_allocator.hpp"

#include <algorithm>

namespace srpc {

Result<void*> RemoteAllocator::allocate(CacheManager& cache, SpaceId home, TypeId type,
                                        std::uint64_t size, std::uint32_t align) {
  // Provisional identities are spaced 1 TiB apart so the allocation table's
  // home-range overlap check never sees two provisional objects collide,
  // whatever their sizes.
  const std::uint64_t provisional = kProvisionalAddressBit | (next_provisional_++ << 40);
  if (size >= (1ULL << 40)) {
    return invalid_argument("extended_malloc larger than 1 TiB");
  }
  const LongPointer id{home, provisional, type};
  auto slot = cache.allocate_resident(id, size, align);
  if (!slot) return slot.status();
  batches_[home].allocs.push_back(PendingAlloc{provisional, type});
  return slot;
}

Status RemoteAllocator::release(CacheManager& cache, const LongPointer& id) {
  if (is_provisional_address(id.address)) {
    // Never reached the home: cancel the pending allocation entirely.
    auto it = batches_.find(id.space);
    if (it != batches_.end()) {
      auto& allocs = it->second.allocs;
      auto match = std::find_if(allocs.begin(), allocs.end(),
                                [&](const PendingAlloc& a) {
                                  return a.provisional == id.address;
                                });
      if (match != allocs.end()) {
        allocs.erase(match);
        return cache.remove_entry(id);
      }
    }
    return not_found("release of unknown provisional allocation: " + id.to_string());
  }
  SRPC_RETURN_IF_ERROR(cache.remove_entry(id));
  batches_[id.space].frees.push_back(id.address);
  return Status::ok();
}

std::vector<SpaceId> RemoteAllocator::pending_homes() const {
  std::vector<SpaceId> homes;
  homes.reserve(batches_.size());
  for (const auto& [home, batch] : batches_) {
    if (!batch.allocs.empty() || !batch.frees.empty()) homes.push_back(home);
  }
  return homes;
}

RemoteAllocator::Batch RemoteAllocator::take_batch(SpaceId home) {
  auto it = batches_.find(home);
  if (it == batches_.end()) return {};
  Batch batch = std::move(it->second);
  batches_.erase(it);
  return batch;
}

Status RemoteAllocator::apply_assignments(
    CacheManager& cache, SpaceId home,
    std::span<const std::pair<std::uint64_t, std::uint64_t>> assigned) {
  for (const auto& [provisional, real] : assigned) {
    const LongPointer old_id{home, provisional, kInvalidTypeId};
    // The table keys identity on (space, address); find the stored entry to
    // learn its type for the rebound identity.
    const AllocationEntry* entry = cache.lookup(old_id);
    if (entry == nullptr) {
      return not_found("alloc reply for unknown provisional " + old_id.to_string());
    }
    LongPointer new_id = entry->pointer;
    new_id.address = real;
    SRPC_RETURN_IF_ERROR(cache.rebind(entry->pointer, new_id));
  }
  return Status::ok();
}

}  // namespace srpc

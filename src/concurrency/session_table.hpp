// SessionTable — per-runtime bookkeeping for the RPC sessions a space
// takes part in, in both session modes.
//
// One SessionState per session id holds everything the space keeps for
// that session: the travelling modified set, home twins, ship records, the
// session span, the peers it touched, its pages of the space's one cache
// (data allocation table, overlays, allocation chains) and its pending
// extended_malloc/extended_free batches. Sessionless traffic (kNoSession)
// is one more owner.
//
// A state is created the first time the space sees its session (beginning
// it, or serving any of its messages) and closed when the session ends,
// aborts or is invalidated here. Creating one is cheap: pages come from
// the space's arena only when the session swizzles, faults or allocates.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.hpp"
#include "core/cache_manager.hpp"
#include "core/modified_set.hpp"
#include "mem/remote_allocator.hpp"
#include "obs/span_recorder.hpp"
#include "swizzle/long_pointer.hpp"

namespace srpc {

enum class SessionStatus : std::uint8_t {
  kActive,      // open, accepting work
  kCommitting,  // end_session in progress (write-back phases running)
  kAborted,     // being unwound
};

// Everything one session owns at one space. `local` marks the space that
// began the session (the commit coordinator); remotes hold participant
// states created by serving the session's messages.
struct SessionState {
  SessionId id = kNoSession;
  bool local = false;
  SessionStatus status = SessionStatus::kActive;

  // Objects of OUR home heap this session modified (directly or via an
  // incoming modified set) — the home-resident half of the travelling set.
  std::unordered_set<LongPointer, LongPointerHash> updates;
  // Baseline copies backing delta encoding of those home objects.
  std::unordered_map<LongPointer, std::vector<std::uint8_t>, LongPointerHash>
      home_twins;
  // Per-object shipping records (delta fingerprints, ever-shipped ranges).
  std::unordered_map<LongPointer, ShipState, LongPointerHash> ship;
  std::uint64_t ship_epoch = 0;  // bumped every control transfer

  SpanRecorder::Handle span = SpanRecorder::kNoSpan;  // session span (local)

  // Peers this session exchanged requests with from here — the
  // multi-session invalidation tree: session end notifies exactly these,
  // and each forwards to its own touched set.
  std::unordered_set<SpaceId> touched;

  // The session's extended address space: its pages of the space's cache
  // and its batched remote memory operations (paper §3.5).
  SessionPages pages;
  RemoteAllocator memory_ops;

  // Empties the state for the next session, keeping the containers'
  // storage. Its pages must already be back in the arena.
  void clear();
};

class SessionTable {
 public:
  // Creates (or returns) the state for `id`. State addresses are stable:
  // they survive rehashing and the creation/close of sibling sessions.
  SessionState& open(SessionId id);

  [[nodiscard]] SessionState* find(SessionId id);
  [[nodiscard]] const SessionState* find(SessionId id) const;

  // Closes the state; its pages must already be back in the arena
  // (CacheManager::release). Returns false if absent.
  bool close(SessionId id);

  [[nodiscard]] std::size_t size() const noexcept { return states_.size(); }

  template <typename F>
  void for_each(F&& fn) {
    for (auto& [id, state] : states_) fn(*state);
  }
  template <typename F>
  void for_each(F&& fn) const {
    for (const auto& [id, state] : states_) fn(*state);
  }

 private:
  std::unordered_map<SessionId, std::unique_ptr<SessionState>> states_;
  // The last closed state, emptied, for the next session to open: a space
  // that runs sessions one after another builds its allocation table and
  // ship records once and reuses their storage, as one long-lived cache
  // would.
  std::unique_ptr<SessionState> spare_;
};

}  // namespace srpc

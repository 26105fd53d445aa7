// Support machinery for delta-encoded modified sets (PROTOCOL.md
// "MODIFIED_DELTA").
//
// ShipState is the per-object epoch/fingerprint record behind the
// "already shipped to this hop" skip: each space fingerprints an object's
// effective delta over its *own* image and remembers, per peer, the
// fingerprint that peer last observed (either because we shipped it or
// because the peer sent it to us). Fingerprints never cross the wire.
// Which bytes of an image hold pointers — a delta touching them must take
// the graph payload encoder — is the type's compiled plan's to say
// (Layout::pointer_ranges).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/byte_range.hpp"
#include "common/ids.hpp"

namespace srpc {

// Per-object, session-scoped shipping record (see Runtime).
struct ShipState {
  std::uint64_t epoch = 0;        // session epoch when content last changed
  std::uint64_t fingerprint = 0;  // of the current effective delta; 0 = unset
  // Union of every range shipped anywhere this session. A byte that was
  // shipped and later reverted to its baseline value no longer diffs, but
  // receivers hold the old value — keeping it in the effective set (and in
  // the fingerprint) makes the revert travel too.
  std::vector<ByteRange> ever_shipped;  // merged
  // Fingerprint of the content each peer last observed from/with us.
  std::unordered_map<SpaceId, std::uint64_t> peer_fingerprint;
};

}  // namespace srpc

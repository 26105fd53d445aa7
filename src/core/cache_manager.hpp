// CacheManager — the protected page area of one address space.
//
// This is where the paper's three techniques meet:
//   * swizzling allocates a location in a protected (PROT_NONE) page for
//     every long pointer received, recording it in the data allocation
//     table (§3.2, Fig. 2 / Table 1);
//   * the MMU detects the first access; the fault handler fetches *all*
//     data allocated to the faulted page (plus the home's eager closure)
//     and releases the protection (§3.2, Fig. 3);
//   * clean pages stay read-only so the MMU also detects modification at
//     page grain, feeding the coherency protocol's modified data set
//     (§3.4); extended_malloc'd objects live on born-resident alloc pages
//     (§3.5).
//
// A space has exactly one CacheManager: one arena, one fault range
// (registered once by init()), and the space-wide closure budget,
// allocation strategy, leases and counters. A session is an owner tag on
// the pages it is handed (paper §3.1 limits a swizzled pointer to its
// session): its data allocation table, overlays and allocation chains live
// in a SessionPages the runtime keeps in the session's state, a fault
// finds its session from the faulting page's owner, no page ever holds two
// sessions' data, and release() returns a session's pages to the arena.
// CacheOptions::page_count therefore bounds every concurrent session of
// the space together; a session that needs a page the arena no longer has
// gets RESOURCE_EXHAUSTED.
//
// Operations on a cache address act on that page's owner. Operations that
// name no owner act on the session the PageFetcher reports as current (the
// runtime's pinned session).
//
// Threading: every method runs on the owning space's worker thread (the
// RPC model has a single active thread per session), so there is no
// internal locking. on_fault() is entered from the SIGSEGV handler on that
// same thread.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/byte_range.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "core/graph_payload.hpp"
#include "obs/telemetry.hpp"
#include "swizzle/allocation_table.hpp"
#include "swizzle/long_pointer.hpp"
#include "types/arch.hpp"
#include "types/value_codec.hpp"
#include "vm/fault_dispatcher.hpp"
#include "vm/page_arena.hpp"
#include "vm/page_table.hpp"

namespace srpc {

// Where a swizzled location is placed (paper §6 discusses this tradeoff).
enum class AllocationStrategy : std::uint8_t {
  // The paper's heuristic: "all the data in a page is located in a single
  // address space" — one fill chain per origin space, so a fault talks to
  // exactly one home.
  kClusterByOrigin,
  // Naive baseline for the ablation bench: one shared fill chain; a page
  // can hold data from several homes and a fault must contact all of them.
  kMixed,
};

// What one session holds in its space's cache: the pages it was handed,
// the data allocation table over them, values waiting for a fill, and its
// allocation chains.
struct SessionPages {
  // A pending value for a non-resident slot. `valid` records which byte
  // ranges of `bytes` were actually received (a delta can populate an
  // overlay partially); only those are copied onto the page at fill time.
  struct Overlay {
    std::vector<std::uint8_t> bytes;
    std::vector<ByteRange> valid;  // merged
  };

  SessionId owner = kNoSession;
  DataAllocationTable table;
  std::unordered_map<const AllocationEntry*, Overlay> overlays;
  std::unordered_map<SpaceId, PageIndex> lazy_cursors;  // one chain per origin
  PageIndex alloc_cursor = kInvalidPage;  // born-resident (extended_malloc) chain
  std::vector<PageIndex> pages;           // every page handed to this session
};

// The runtime side of the cache: how it reaches the network and where each
// session's pages live. fetch() runs on the faulting thread, possibly
// inside the signal handler.
class PageFetcher {
 public:
  virtual ~PageFetcher() = default;
  // Requests `pointers` (all homed at `home`) for the owner of the pages
  // being filled; returns the FETCH_REPLY's graph payload bytes.
  virtual Result<ByteBuffer> fetch(SpaceId home, std::span<const LongPointer> pointers,
                                   std::uint64_t closure_budget,
                                   SessionId session) = 0;
  // Cost accounting for one MMU access violation.
  virtual void charge_fault() = 0;
  // Swizzles a pointer homed in *this* space (a payload can reference the
  // receiver's own data — pass-through pointers); resolves to the local
  // heap address. Only called with pointer.space == this space.
  virtual Result<std::uint64_t> swizzle_home(const LongPointer& pointer,
                                             TypeId pointee) = 0;
  // The session an operation that names no owner acts on.
  [[nodiscard]] virtual SessionId current_session() const noexcept = 0;
  // The pages `owner` holds here, created on first use.
  virtual SessionPages& pages_of(SessionId owner) = 0;
  // Null when `owner` holds nothing here.
  [[nodiscard]] virtual const SessionPages* find_pages(SessionId owner) const = 0;
};

struct CacheOptions {
  std::size_t page_count = 16384;  // 64 MiB of 4 KiB pages, for all sessions
  std::size_t page_size = 4096;    // the paper's SunOS/SPARC page size
  AllocationStrategy strategy = AllocationStrategy::kClusterByOrigin;
  std::uint64_t closure_bytes = 8192;  // eager transfer budget per fetch (§3.3)
};

struct CacheStats {
  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t fills = 0;            // page-fill operations (≥1 fetch each)
  std::uint64_t fetches = 0;          // FETCH round trips issued
  std::uint64_t objects_filled = 0;   // payload objects written into slots
  std::uint64_t objects_skipped = 0;  // payload objects dropped (already held)
  // Eagerness effectiveness (paper §3.3 / fig6): an eager closure "hit" is
  // an object the sender volunteered beyond what was asked for — it arrives
  // before any fault touches it; a "miss" is an object we had to fault for
  // anyway (each faulted page's known entries were NOT satisfied by an
  // earlier closure).
  std::uint64_t closure_prefetch_hits = 0;
  std::uint64_t closure_prefetch_misses = 0;
};

class CacheManager final : public FaultHandler {
 public:
  CacheManager(const TypeRegistry& registry, const LayoutEngine& layouts,
               const ArchModel& arch, SpaceId self, CacheOptions options,
               PageFetcher& fetcher);
  ~CacheManager() override;
  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  // Creates the arena and registers it with the fault dispatcher.
  Status init();

  // --- swizzling ----------------------------------------------------------

  // Long pointer -> local ordinary pointer, allocating a protected location
  // on a miss. Interior addresses resolve into their containing entry.
  // `pointer.space` must differ from this space.
  Result<std::uint64_t> swizzle(const LongPointer& pointer, TypeId pointee);

  // Local cache address -> home long pointer (interior addresses allowed;
  // the returned pointer carries the interior home address).
  Result<LongPointer> unswizzle(const void* addr) const;

  [[nodiscard]] const AllocationEntry* lookup(const LongPointer& pointer) const {
    return table().find(pointer);
  }
  [[nodiscard]] const AllocationEntry* lookup_local(const void* addr) const;
  [[nodiscard]] bool contains(const void* addr) const { return arena_.contains(addr); }
  // The session whose page holds `addr` (an address inside the arena).
  [[nodiscard]] SessionId owner_of(const void* addr) const {
    return pages_.info(arena_.page_of(addr)).owner;
  }

  // True if `addr` lies on a resident (readable) page.
  [[nodiscard]] bool is_resident(const void* addr) const;

  // --- extended_malloc support (paper §3.5) -------------------------------

  // Allocates a zeroed, born-resident, born-dirty location for a locally
  // created remote object under a provisional identity.
  Result<void*> allocate_resident(const LongPointer& provisional, std::uint64_t size,
                                  std::uint32_t align);

  // Re-keys a provisional identity to the home-assigned address.
  Status rebind(const LongPointer& provisional, const LongPointer& actual) {
    return current().table.rebind(provisional, actual);
  }

  // Drops a cached entry (extended_free).
  Status remove_entry(const LongPointer& pointer) {
    return current().table.remove(pointer);
  }

  // --- fault path ----------------------------------------------------------

  bool on_fault(void* addr, FaultAccess access) override;

  // Incorporates one *clean* graph payload (an eager closure attached to a
  // call or return, paper §3.3): unknown objects become resident clean
  // data on fresh pages; objects already held locally are left untouched.
  Status incorporate_clean_payload(ByteBuffer& payload);

  // Programmer-directed prefetch (paper §6: "use suggestions provided by
  // the programmer"): fills the page holding `addr` now, with an explicit
  // closure budget, instead of waiting for the access violation. No-op if
  // the data is already resident.
  Status prefetch(const void* addr, std::uint64_t closure_budget);

  // One per-home request set of a fill: every wanted pointer homed at
  // `home`, to be answered by one FETCH_REPLY payload.
  struct PrefetchGroup {
    SpaceId home = 0;
    std::vector<LongPointer> pointers;
  };
  // Returns one FETCH_REPLY payload per group, aligned by index. The
  // transfer is free to keep all frames in flight at once (that is the
  // point); a failed transfer fails the whole fill.
  using ParallelFetch = std::function<Result<std::vector<ByteBuffer>>(
      std::vector<PrefetchGroup>& groups)>;

  // Pipelined twin of prefetch(): opens every fillable page behind `addrs`
  // (all owned by one session) in one fill, groups the wanted entries by
  // home space, and hands the whole request set to `transfer` so the
  // per-home FETCH frames overlap on the wire instead of paying one round
  // trip each. Foreign, resident, and empty addresses are skipped
  // (prefetch is advisory). All replies are incorporated into the open
  // pages before the fill seals.
  Status prefetch_many(std::span<const void* const> addrs,
                       const ParallelFetch& transfer);

  // --- coherency support (paper §3.4) --------------------------------------

  struct ModifiedObject {
    LongPointer id;
    const void* image = nullptr;  // readable local-layout bytes
  };

  // The modified data set: every entry on a dirty page plus every pending
  // overlay. Ids are home identities; images stay valid until the next
  // cache mutation.
  [[nodiscard]] std::vector<ModifiedObject> collect_modified() const;

  // One modified object with sub-page dirty information. `dirty` holds the
  // merged byte ranges (object-relative) that differ from the coherent
  // baseline; when `has_baseline` is false the page was born dirty (local
  // allocation) or its twin is missing, and the whole image must travel.
  struct ModifiedDatum {
    LongPointer id;
    const std::uint8_t* image = nullptr;  // readable local-layout bytes
    std::uint32_t size = 0;
    bool has_baseline = false;
    // False for a partially received overlay: bytes outside `dirty` are
    // placeholders, so the object must never be shipped as a full image.
    bool complete = true;
    std::vector<ByteRange> dirty;  // merged; meaningful iff has_baseline
  };

  // Delta-aware modified data set: slot entries are diffed against their
  // pages' twin snapshots; overlays report their valid (received) ranges.
  // Images stay valid until the next cache mutation.
  [[nodiscard]] std::vector<ModifiedDatum> collect_modified_deltas() const;

  // The ModifiedDatum for one object currently in the modified set, or
  // NOT_FOUND if it is neither on a dirty page nor an overlay.
  Result<ModifiedDatum> modified_datum(const LongPointer& id) const;

  // Destination for one incoming modified object (always overwrites: the
  // sender was the active thread). Resident -> the slot (page goes dirty);
  // non-resident -> a pending overlay applied at fill time; unknown -> a
  // freshly allocated location plus overlay.
  Result<void*> prepare_incoming_dirty(const LongPointer& id);

  // Applies one incoming MODIFIED_DELTA entry: `bytes` holds the range
  // payloads concatenated in order. Resident targets are patched in place
  // (pages go dirty, twins snapshotted first); non-resident and unknown
  // targets accumulate the ranges on a pending overlay whose valid-range
  // set remembers which bytes are real.
  Status apply_incoming_delta(const LongPointer& id,
                              std::span<const ByteRange> ranges,
                              const std::uint8_t* bytes);

  // --- leases (failure containment) ----------------------------------------

  // A lease tracks when this cache last heard from a source space whose
  // data it holds. The runtime renews it on every successful exchange; if
  // the source is declared dead (or the lease lapses without contact) the
  // source's resident pages are revoked so dereferences re-fault into
  // Runtime::fetch, where the failure detector converts them into a typed
  // SPACE_DEAD error instead of serving stale bytes forever.
  struct SourceLease {
    std::uint64_t epoch = 0;            // generation: bumps across revocations
    std::uint64_t last_contact_ns = 0;  // virtual-clock time
  };

  // Upserts the lease for `source` (first fetch from it starts the lease).
  void renew_lease(SpaceId source, std::uint64_t vnow_ns);
  // Updates last-contact only if a lease already exists.
  void touch_lease(SpaceId source, std::uint64_t vnow_ns);
  [[nodiscard]] const SourceLease* lease(SpaceId source) const;
  // Sources holding a lease whose last contact is older than `vnow_ns -
  // ttl_ns` (candidates for revocation).
  [[nodiscard]] std::vector<SpaceId> lapsed_sources(std::uint64_t vnow_ns,
                                                    std::uint64_t ttl_ns) const;

  // Revokes every resident lazy page clustered to `source`, whichever
  // session owns it: the page is re-protected and demoted to kAllocated
  // (its bytes are discarded; the table entries stay so a later touch
  // re-faults through the fetch path, which reports the peer's health as a
  // typed error), and the source's lease ends (a later renewal starts a
  // fresh lease under a higher epoch). Returns the number of pages revoked.
  // Pages holding data from several homes (kMixed strategy) and
  // born-resident alloc pages are left alone — they contain local or
  // third-party bytes that are still valid. forget_source() drops one
  // session's pending overlays for the source's data.
  std::size_t revoke_source(SpaceId source);
  void forget_source(SessionPages& pages, SpaceId source);

  // --- session teardown -----------------------------------------------------

  // Drops every datum `pages` holds, re-protects its pages and returns them
  // to the arena (session-end invalidation, paper §3.4). Costs O(pages the
  // session held), not O(arena).
  void release(SessionPages& pages);

  // --- introspection ---------------------------------------------------------

  // Space-wide counters (every session's faults and fills).
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = CacheStats{}; }
  // Optional observability sink (owned by the Runtime): fault and fill
  // annotations land on whatever span is open when the MMU fires.
  void set_telemetry(Telemetry* telemetry) noexcept { telemetry_ = telemetry; }
  // The current session's data allocation table (empty if it holds none).
  [[nodiscard]] const DataAllocationTable& table() const noexcept;
  [[nodiscard]] const PageArena& arena() const noexcept { return arena_; }
  [[nodiscard]] PageState page_state(PageIndex page) const { return pages_.state(page); }
  // Pages below this bound are the only ones any session holds; every page
  // above it is kEmpty.
  [[nodiscard]] std::size_t pages_used() const noexcept { return pages_.used(); }
  [[nodiscard]] std::uint64_t closure_bytes() const noexcept {
    return options_.closure_bytes;
  }
  // Rejects a budget larger than the arena (it could never be honoured and
  // usually means a units mistake). Zero is legal: it disables eager
  // closures and transfers exactly the faulted data.
  Status set_closure_bytes(std::uint64_t bytes);

 private:
  [[nodiscard]] SessionPages& current() {
    return fetcher_.pages_of(fetcher_.current_session());
  }
  // The owner's pages of the page holding `addr`; null outside the arena or
  // on a page no session holds.
  [[nodiscard]] const SessionPages* owner_pages(const void* addr) const;

  // Places `size` bytes for `id` on the session's lazy chain for its origin
  // (PROT_NONE pages).
  Result<AllocationEntry> place_lazy(SessionPages& sp, const LongPointer& id,
                                     std::uint64_t size, std::uint32_t align);

  // Places `size` bytes on the session's pages during a fill or for a
  // resident allocation; `cursor` selects the chain. Fresh pages come from
  // the page table (PageTable::grab) tagged with the session.
  Result<AllocationEntry> place_on_chain(SessionPages& sp, PageIndex& cursor,
                                         PageKind kind, const LongPointer& id,
                                         std::uint64_t size, std::uint32_t align,
                                         SpaceId origin);

  Result<std::uint64_t> swizzle_into(SessionPages& sp, const LongPointer& pointer,
                                     TypeId pointee);
  // The entry an incoming modified object lands on, placed if unknown.
  Result<const AllocationEntry*> incoming_entry(SessionPages& sp,
                                                const LongPointer& id);

  // Fetches and fills the faulted page (and any prefetch pages the closure
  // creates), requesting `closure_budget` bytes of eager transfer.
  Status fill_page(SessionPages& sp, PageIndex page, std::uint64_t closure_budget);
  // Opens `pages` and every page their entries span, hands one request set
  // per home to `transfer`, incorporates the replies, and seals.
  Status fill(SessionPages& sp, std::span<const PageIndex> pages,
              const ParallelFetch& transfer);

  // Seals, protects, and overlays every page opened by the current fill.
  Status finish_fill_pages(SessionPages& sp);

  Status make_writable(PageIndex page);
  // Clean -> dirty for every resident page `entry` spans, snapshotting each
  // page's twin first (the pre-write image is the delta baseline).
  Status dirty_spanned_pages(const AllocationEntry& entry);
  // Appends the ranges of `entry`'s image differing from the spanned pages'
  // twins. False if a spanned dirty page has no twin (born-dirty data).
  bool diff_entry(const AllocationEntry& entry, std::vector<ByteRange>& out) const;
  // The datum of an entry on a dirty page, and of a pending overlay.
  ModifiedDatum page_datum(const AllocationEntry& entry) const;
  static ModifiedDatum overlay_datum(const AllocationEntry& entry,
                                     const SessionPages::Overlay& overlay);
  [[nodiscard]] bool is_fill_open(PageIndex page) const;
  std::uint32_t pages_spanned(const AllocationEntry& e) const;

  class FillSink;
  friend class FillSink;

  const TypeRegistry& registry_;
  const LayoutEngine& layouts_;
  ValueCodec codec_;
  const ArchModel& arch_;
  SpaceId self_;
  CacheOptions options_;
  PageFetcher& fetcher_;

  PageArena arena_;
  PageTable pages_;  // every session's pages: states, owners, the used bound

  std::unordered_map<SpaceId, SourceLease> leases_;
  // Next lease epoch per revoked source, so generations never repeat.
  std::unordered_map<SpaceId, std::uint64_t> lease_epoch_floor_;
  // One fill at a time per space: fills never nest (the fetch awaits only
  // its own reply), whichever session owns the pages.
  PageIndex fill_cursor_ = kInvalidPage;  // prefetch-extras chain of the fill
  bool filling_ = false;
  std::vector<PageIndex> fill_open_pages_;  // writable during the current fill

  bool registered_ = false;
  CacheStats stats_;
  Telemetry* telemetry_ = nullptr;
};

}  // namespace srpc

#include "core/cache_manager.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_set>

#include "common/logging.hpp"

namespace srpc {

namespace {
std::uint64_t align_up(std::uint64_t v, std::uint32_t align) noexcept {
  return (v + align - 1) / align * align;
}

// Two differing runs separated by fewer equal bytes than this merge into
// one wire range (each range costs 8 header bytes).
constexpr std::uint32_t kDiffMergeGap = 8;

// What table() shows for a session that holds nothing here.
const DataAllocationTable kNoEntries;
}  // namespace

CacheManager::CacheManager(const TypeRegistry& registry, const LayoutEngine& layouts,
                           const ArchModel& arch, SpaceId self, CacheOptions options,
                           PageFetcher& fetcher)
    : registry_(registry),
      layouts_(layouts),
      codec_{registry, layouts},
      arch_(arch),
      self_(self),
      options_(options),
      fetcher_(fetcher),
      pages_(options.page_count) {}

CacheManager::~CacheManager() {
  if (registered_) {
    (void)FaultDispatcher::instance().unregister_range(arena_.base());
  }
}

Status CacheManager::init() {
  if (options_.page_count == 0) {
    return invalid_argument("CacheOptions.page_count must be nonzero");
  }
  if (options_.closure_bytes > options_.page_count * options_.page_size) {
    return invalid_argument(
        "CacheOptions.closure_bytes " + std::to_string(options_.closure_bytes) +
        " exceeds the arena (" +
        std::to_string(options_.page_count * options_.page_size) + " bytes)");
  }
  auto arena = PageArena::create(options_.page_count, options_.page_size);
  if (!arena) return arena.status();
  arena_ = std::move(arena.value());
  SRPC_RETURN_IF_ERROR(
      FaultDispatcher::instance().register_range(arena_.base(), arena_.byte_size(), this));
  registered_ = true;
  return Status::ok();
}

const DataAllocationTable& CacheManager::table() const noexcept {
  const SessionPages* sp = fetcher_.find_pages(fetcher_.current_session());
  return sp != nullptr ? sp->table : kNoEntries;
}

const SessionPages* CacheManager::owner_pages(const void* addr) const {
  const PageIndex page = arena_.page_of(addr);
  if (page == kInvalidPage || pages_.state(page) == PageState::kEmpty) return nullptr;
  return fetcher_.find_pages(pages_.info(page).owner);
}

const AllocationEntry* CacheManager::lookup_local(const void* addr) const {
  const SessionPages* sp = owner_pages(addr);
  return sp != nullptr ? sp->table.find_by_local(addr) : nullptr;
}

Status CacheManager::set_closure_bytes(std::uint64_t bytes) {
  if (bytes > options_.page_count * options_.page_size) {
    return invalid_argument(
        "closure budget " + std::to_string(bytes) + " exceeds the arena (" +
        std::to_string(options_.page_count * options_.page_size) + " bytes)");
  }
  options_.closure_bytes = bytes;
  return Status::ok();
}

std::uint32_t CacheManager::pages_spanned(const AllocationEntry& e) const {
  const std::uint64_t last = e.offset + e.size - 1;
  return static_cast<std::uint32_t>(last / arena_.page_size()) + 1;
}

Status CacheManager::make_writable(PageIndex page) {
  for (PageIndex open : fill_open_pages_) {
    if (open == page) return Status::ok();
  }
  SRPC_RETURN_IF_ERROR(arena_.protect(page, PageProtection::kReadWrite));
  fill_open_pages_.push_back(page);
  return Status::ok();
}

Result<AllocationEntry> CacheManager::place_on_chain(SessionPages& sp, PageIndex& cursor,
                                                     PageKind kind,
                                                     const LongPointer& id,
                                                     std::uint64_t size,
                                                     std::uint32_t align,
                                                     SpaceId origin) {
  const std::size_t page_size = arena_.page_size();
  AllocationEntry entry;
  entry.pointer = id;
  entry.size = static_cast<std::uint32_t>(size);

  if (size > page_size) {
    // Large datum: an exclusive run of consecutive pages.
    const auto n = static_cast<std::uint32_t>((size + page_size - 1) / page_size);
    auto first = pages_.grab(n, kind, origin, sp.owner);
    if (!first) return first.status();
    for (std::uint32_t i = 0; i < n; ++i) {
      pages_.info(first.value() + i).bump =
          static_cast<std::uint32_t>(page_size);  // exclusive: no co-tenants
      sp.pages.push_back(first.value() + i);
    }
    entry.page = first.value();
    entry.offset = 0;
    entry.local = arena_.page_base(first.value());
    SRPC_RETURN_IF_ERROR(sp.table.insert(entry, n));
    return entry;
  }

  PageIndex page = cursor;
  std::uint64_t offset = 0;
  bool fits = false;
  if (page != kInvalidPage) {
    const PageInfo& info = pages_.info(page);
    if (!info.sealed && info.kind == kind && info.origin == origin) {
      offset = align_up(info.bump, align);
      fits = offset + size <= page_size;
    }
  }
  if (!fits) {
    auto fresh = pages_.grab(1, kind, origin, sp.owner);
    if (!fresh) return fresh.status();
    page = fresh.value();
    sp.pages.push_back(page);
    cursor = page;
    offset = 0;
  }
  pages_.info(page).bump = static_cast<std::uint32_t>(offset + size);
  entry.page = page;
  entry.offset = static_cast<std::uint32_t>(offset);
  entry.local = arena_.page_base(page) + offset;
  SRPC_RETURN_IF_ERROR(sp.table.insert(entry, 1));
  return entry;
}

Result<AllocationEntry> CacheManager::place_lazy(SessionPages& sp, const LongPointer& id,
                                                 std::uint64_t size,
                                                 std::uint32_t align) {
  const SpaceId origin = options_.strategy == AllocationStrategy::kClusterByOrigin
                             ? id.space
                             : kInvalidSpaceId;
  auto cursor = sp.lazy_cursors.try_emplace(origin, kInvalidPage).first;
  return place_on_chain(sp, cursor->second, PageKind::kLazy, id, size, align, origin);
}

Result<std::uint64_t> CacheManager::swizzle(const LongPointer& pointer, TypeId pointee) {
  return swizzle_into(current(), pointer, pointee);
}

Result<std::uint64_t> CacheManager::swizzle_into(SessionPages& sp,
                                                 const LongPointer& pointer,
                                                 TypeId pointee) {
  if (pointer.is_null()) {
    return invalid_argument("swizzle of null long pointer");
  }
  if (pointer.space == self_) {
    return failed_precondition("swizzle of self-homed pointer reached the cache");
  }
  if (const AllocationEntry* entry = sp.table.find(pointer)) {
    return reinterpret_cast<std::uint64_t>(entry->local);
  }
  if (const AllocationEntry* container =
          sp.table.find_containing_home(pointer.space, pointer.address)) {
    const std::uint64_t delta = pointer.address - container->pointer.address;
    return reinterpret_cast<std::uint64_t>(container->local) + delta;
  }
  const TypeId type = pointer.type != kInvalidTypeId ? pointer.type : pointee;
  if (type == kInvalidTypeId) {
    return invalid_argument("swizzle: no type for " + pointer.to_string());
  }
  auto layout = layouts_.layout_of(arch_, type);
  if (!layout) return layout.status();
  LongPointer id = pointer;
  id.type = type;
  auto entry = place_lazy(sp, id, layout.value()->size, layout.value()->align);
  if (!entry) return entry.status();
  return reinterpret_cast<std::uint64_t>(entry.value().local);
}

Result<LongPointer> CacheManager::unswizzle(const void* addr) const {
  const AllocationEntry* entry = lookup_local(addr);
  if (entry == nullptr) {
    return not_found("unswizzle: address not in the data allocation table");
  }
  const std::uint64_t delta =
      static_cast<std::uint64_t>(static_cast<const std::uint8_t*>(addr) - entry->local);
  if (delta == 0) return entry->pointer;

  // Interior pointer: only array elements have a nameable type.
  const TypeDescriptor& desc = registry_.get(entry->pointer.type);
  if (desc.kind() != TypeKind::kArray) {
    return unimplemented("interior pointer into non-array datum " +
                         entry->pointer.to_string());
  }
  const std::uint64_t elem_size = layouts_.size_of(arch_, desc.element());
  if (delta % elem_size != 0) {
    return invalid_argument("interior pointer not on an element boundary");
  }
  return LongPointer{entry->pointer.space, entry->pointer.address + delta,
                     desc.element()};
}

bool CacheManager::is_resident(const void* addr) const {
  const PageIndex page = arena_.page_of(addr);
  if (page == kInvalidPage) return false;
  const PageState s = pages_.state(page);
  return s == PageState::kClean || s == PageState::kDirty;
}

Result<void*> CacheManager::allocate_resident(const LongPointer& provisional,
                                              std::uint64_t size, std::uint32_t align) {
  SessionPages& sp = current();
  auto entry = place_on_chain(sp, sp.alloc_cursor, PageKind::kAlloc, provisional, size,
                              align, provisional.space);
  if (!entry) return entry.status();
  // Born resident and dirty: the creator will initialise it in place and the
  // value must travel with the modified data set.
  const std::uint32_t span = pages_spanned(entry.value());
  for (std::uint32_t i = 0; i < span; ++i) {
    const PageIndex p = entry.value().page + i;
    if (pages_.state(p) == PageState::kAllocated) {
      SRPC_RETURN_IF_ERROR(pages_.transition(p, PageState::kDirty));
      SRPC_RETURN_IF_ERROR(arena_.protect(p, PageProtection::kReadWrite));
    }
  }
  // A recycled page still holds whatever an earlier session left there.
  std::memset(entry.value().local, 0, size);
  return static_cast<void*>(entry.value().local);
}

// ---------------------------------------------------------------------------
// Fault path
// ---------------------------------------------------------------------------

bool CacheManager::on_fault(void* addr, FaultAccess access) {
  const PageIndex page = arena_.page_of(addr);
  if (page == kInvalidPage) return false;
  const PageState state = pages_.state(page);

  switch (state) {
    case PageState::kEmpty:
      SRPC_ERROR << "fault on empty cache page " << page << " (wild pointer?)";
      return false;
    case PageState::kAllocated: {
      // First access to data allocated to a protected page: transfer it.
      fetcher_.charge_fault();
      ++stats_.read_faults;
      // Every object already allocated to this page is data an eager
      // closure could have delivered but did not — we are faulting for it.
      SessionPages& sp = fetcher_.pages_of(pages_.info(page).owner);
      const std::size_t faulted_objects = sp.table.entries_on_page(page).size();
      stats_.closure_prefetch_misses += faulted_objects;
      if (telemetry_ != nullptr && telemetry_->tracing()) {
        telemetry_->annotate("read fault: page " + std::to_string(page) + ", " +
                             std::to_string(faulted_objects) + " objects");
      }
      Status filled = fill_page(sp, page, options_.closure_bytes);
      if (!filled.is_ok()) {
        SRPC_ERROR << "page fill failed: " << filled.to_string();
        return false;
      }
      // A write retries against the now-clean page and upgrades via a
      // second, genuine access violation — the paper's "two page accesses".
      return true;
    }
    case PageState::kClean: {
      if (access == FaultAccess::kRead) {
        SRPC_ERROR << "read fault on clean (readable) page " << page;
        return false;
      }
      fetcher_.charge_fault();
      ++stats_.write_faults;
      if (telemetry_ != nullptr && telemetry_->tracing()) {
        telemetry_->annotate("write fault: page " + std::to_string(page));
      }
      // The page is still untouched (the faulting write has not retired):
      // capture the pre-write image as the twin the delta encoder diffs
      // against.
      pages_.snapshot_twin(page, arena_.page_base(page), arena_.page_size());
      if (!pages_.transition(page, PageState::kDirty).is_ok()) return false;
      if (!arena_.protect(page, PageProtection::kReadWrite).is_ok()) return false;
      return true;
    }
    case PageState::kDirty:
      SRPC_ERROR << "fault on writable page " << page << " (protection drift?)";
      return false;
  }
  return false;
}

// Sink wiring one FETCH_REPLY payload into the slots of the session whose
// pages are being filled.
class CacheManager::FillSink final : public GraphSink {
 public:
  FillSink(CacheManager& cache, SessionPages& sp) : cache_(cache), sp_(sp) {}

  Result<void*> prepare(std::uint32_t index, const LongPointer& id) override {
    if (locals_.size() <= index) locals_.resize(index + 1, 0);
    if (const AllocationEntry* entry = sp_.table.find(id)) {
      locals_[index] = reinterpret_cast<std::uint64_t>(entry->local);
      if (cache_.is_fill_open(entry->page)) {
        ++cache_.stats_.objects_filled;
        return static_cast<void*>(entry->local);
      }
      // Resident elsewhere (already have data) or allocated on a closed
      // lazy page (cannot partially fill it): drop the bytes.
      ++cache_.stats_.objects_skipped;
      return static_cast<void*>(nullptr);
    }
    // Eagerly transferred extra: place it on the fill chain; its pages
    // become resident when the fill completes.
    auto layout = cache_.layouts_.layout_of(cache_.arch_, id.type);
    if (!layout) return layout.status();
    auto entry = cache_.place_on_chain(sp_, cache_.fill_cursor_, PageKind::kLazy, id,
                                       layout.value()->size, layout.value()->align,
                                       id.space);
    if (!entry) return entry.status();
    const std::uint32_t span = cache_.pages_spanned(entry.value());
    for (std::uint32_t i = 0; i < span; ++i) {
      SRPC_RETURN_IF_ERROR(cache_.make_writable(entry.value().page + i));
    }
    locals_[index] = reinterpret_cast<std::uint64_t>(entry.value().local);
    ++cache_.stats_.objects_filled;
    // This object arrived as closure surplus — resident before any fault
    // could ask for it. If it is later touched, that's an eagerness win.
    ++cache_.stats_.closure_prefetch_hits;
    return static_cast<void*>(entry.value().local);
  }

  Result<std::uint64_t> address_of(std::uint32_t index) override {
    if (index >= locals_.size() || locals_[index] == 0) {
      return internal_error("address_of before prepare");
    }
    return locals_[index];
  }

  Result<std::uint64_t> swizzle(const LongPointer& target, TypeId pointee) override {
    if (target.space == cache_.self_) {
      return cache_.fetcher_.swizzle_home(target, pointee);
    }
    return cache_.swizzle_into(sp_, target, pointee);
  }

 private:
  CacheManager& cache_;
  SessionPages& sp_;
  std::vector<std::uint64_t> locals_;
};

bool CacheManager::is_fill_open(PageIndex page) const {
  return std::find(fill_open_pages_.begin(), fill_open_pages_.end(), page) !=
         fill_open_pages_.end();
}

Status CacheManager::prefetch(const void* addr, std::uint64_t closure_budget) {
  const PageIndex page = arena_.page_of(addr);
  if (page == kInvalidPage) {
    return invalid_argument("prefetch of an address outside the cache");
  }
  const PageState state = pages_.state(page);
  if (state == PageState::kClean || state == PageState::kDirty) {
    return Status::ok();  // already resident
  }
  if (state == PageState::kEmpty) {
    return failed_precondition("prefetch of a page with no allocated data");
  }
  // A deliberate transfer, not an access violation: no fault cost.
  return fill_page(fetcher_.pages_of(pages_.info(page).owner), page, closure_budget);
}

Status CacheManager::prefetch_many(std::span<const void* const> addrs,
                                   const ParallelFetch& transfer) {
  // Resolve the fillable pages behind the addresses. Prefetch is advisory:
  // foreign, resident, and unallocated addresses are skipped, not errors.
  std::vector<PageIndex> fill_pages;
  for (const void* addr : addrs) {
    const PageIndex page = arena_.page_of(addr);
    if (page == kInvalidPage || pages_.state(page) != PageState::kAllocated) continue;
    if (std::find(fill_pages.begin(), fill_pages.end(), page) == fill_pages.end()) {
      fill_pages.push_back(page);
    }
  }
  if (fill_pages.empty()) return Status::ok();
  return fill(fetcher_.pages_of(pages_.info(fill_pages[0]).owner), fill_pages,
              transfer);
}

Status CacheManager::fill_page(SessionPages& sp, PageIndex page,
                               std::uint64_t closure_budget) {
  // One fetch per home space owning data on this page (the cluster
  // strategy makes this a single round trip; kMixed may need several).
  return fill(sp, std::span<const PageIndex>(&page, 1),
              [&](std::vector<PrefetchGroup>& groups) -> Result<std::vector<ByteBuffer>> {
                std::vector<ByteBuffer> replies;
                for (const PrefetchGroup& group : groups) {
                  auto reply =
                      fetcher_.fetch(group.home, group.pointers, closure_budget, sp.owner);
                  if (!reply) return reply.status();
                  replies.push_back(std::move(reply).value());
                }
                return replies;
              });
}

Status CacheManager::fill(SessionPages& sp, std::span<const PageIndex> pages,
                          const ParallelFetch& transfer) {
  if (filling_) {
    return internal_error("recursive page fill");
  }
  filling_ = true;
  fill_cursor_ = kInvalidPage;
  fill_open_pages_.clear();

  // Open every requested page plus every page spanned by its entries — all
  // of them at once, so replies may land and fill in any order.
  Status result = Status::ok();
  std::map<SpaceId, std::vector<LongPointer>> by_home;
  std::vector<const AllocationEntry*> large;  // listed under each page they span
  for (const PageIndex page : pages) {
    const auto entries = sp.table.entries_on_page(page);
    if (entries.empty()) continue;
    if (result.is_ok()) result = make_writable(page);
    for (const AllocationEntry* e : entries) {
      const std::uint32_t span = pages_spanned(*e);
      for (std::uint32_t i = 0; i < span && result.is_ok(); ++i) {
        result = make_writable(e->page + i);
      }
      if (span > 1) {
        if (std::find(large.begin(), large.end(), e) != large.end()) continue;
        large.push_back(e);
      }
      by_home[e->pointer.space].push_back(e->pointer);
    }
  }
  if (by_home.empty()) {
    result = failed_precondition("fill of pages with no allocated data");
  }
  // Lazy cursors must stop pointing at pages that are about to turn
  // resident, or a later swizzle could hide an unfetched datum on them.
  for (auto& [origin, cursor] : sp.lazy_cursors) {
    if (cursor != kInvalidPage && is_fill_open(cursor)) cursor = kInvalidPage;
  }

  if (result.is_ok()) {
    std::vector<PrefetchGroup> groups;
    for (auto& [home, pointers] : by_home) {
      groups.push_back(PrefetchGroup{home, std::move(pointers)});
    }
    stats_.fetches += groups.size();
    auto replies = transfer(groups);
    if (!replies) {
      result = replies.status();
    } else {
      // A FETCH_REPLY is "count u32 | count x graph payload": the home may
      // group its closure by several origin spaces (its own heap plus data
      // it holds resident for third spaces).
      for (ByteBuffer& payload : replies.value()) {
        xdr::Decoder dec(payload);
        auto count = dec.get_u32();
        if (!count) {
          result = count.status();
          break;
        }
        for (std::uint32_t i = 0; i < count.value() && result.is_ok(); ++i) {
          FillSink sink(*this, sp);
          result = decode_graph_payload(codec_, arch_, payload, sink);
        }
        if (!result.is_ok()) break;
      }
    }
  }

  if (result.is_ok()) {
    ++stats_.fills;
    result = finish_fill_pages(sp);
  }

  filling_ = false;
  fill_open_pages_.clear();
  fill_cursor_ = kInvalidPage;
  return result;
}

Status CacheManager::finish_fill_pages(SessionPages& sp) {
  // Apply pending overlays first. The freshly fetched content is the
  // coherent baseline, so every page an overlaid entry spans gets its twin
  // snapshotted *before* the overlay bytes land — that keeps the overlay in
  // the delta the next collect_modified_deltas() emits.
  std::unordered_set<PageIndex> dirtied;
  for (const PageIndex p : fill_open_pages_) {
    for (const AllocationEntry* e : sp.table.entries_on_page(p)) {
      auto overlay = sp.overlays.find(e);
      if (overlay == sp.overlays.end()) continue;
      const std::uint32_t span = pages_spanned(*e);
      for (std::uint32_t i = 0; i < span; ++i) {
        const PageIndex q = e->page + i;
        if (!pages_.has_twin(q)) {
          pages_.snapshot_twin(q, arena_.page_base(q), arena_.page_size());
        }
        dirtied.insert(q);
      }
      for (const ByteRange& r : overlay->second.valid) {
        std::memcpy(e->local + r.offset, overlay->second.bytes.data() + r.offset,
                    r.len);
      }
      sp.overlays.erase(overlay);
    }
  }
  // Seal and protect every opened page.
  for (const PageIndex p : fill_open_pages_) {
    const bool dirty = dirtied.contains(p);
    SRPC_RETURN_IF_ERROR(
        pages_.transition(p, dirty ? PageState::kDirty : PageState::kClean));
    SRPC_RETURN_IF_ERROR(arena_.protect(
        p, dirty ? PageProtection::kReadWrite : PageProtection::kRead));
  }
  return Status::ok();
}

Status CacheManager::incorporate_clean_payload(ByteBuffer& payload) {
  if (filling_) {
    return internal_error("incorporate_clean_payload during a fill");
  }
  SessionPages& sp = current();
  filling_ = true;
  fill_cursor_ = kInvalidPage;
  fill_open_pages_.clear();

  FillSink sink(*this, sp);
  Status result = decode_graph_payload(codec_, arch_, payload, sink);
  if (result.is_ok()) {
    result = finish_fill_pages(sp);
  }

  filling_ = false;
  fill_open_pages_.clear();
  fill_cursor_ = kInvalidPage;
  return result;
}

// ---------------------------------------------------------------------------
// Coherency support
// ---------------------------------------------------------------------------

std::vector<CacheManager::ModifiedObject> CacheManager::collect_modified() const {
  std::vector<ModifiedObject> out;
  for (const ModifiedDatum& d : collect_modified_deltas()) {
    out.push_back({d.id, d.image});
  }
  return out;
}

bool CacheManager::diff_entry(const AllocationEntry& entry,
                              std::vector<ByteRange>& out) const {
  const std::size_t page_size = arena_.page_size();
  const std::uint32_t span = pages_spanned(entry);
  for (std::uint32_t i = 0; i < span; ++i) {
    const PageIndex p = entry.page + i;
    if (pages_.state(p) != PageState::kDirty) continue;  // unchanged
    if (!pages_.has_twin(p)) return false;  // born dirty: no baseline
    // The slice of the entry living on page p, in object-relative terms.
    const std::uint64_t page_lo = static_cast<std::uint64_t>(i) * page_size;
    const std::uint64_t ent_lo = std::max<std::uint64_t>(entry.offset, page_lo);
    const std::uint64_t ent_hi =
        std::min<std::uint64_t>(entry.offset + entry.size, page_lo + page_size);
    if (ent_lo >= ent_hi) continue;
    const std::uint64_t in_page = ent_lo % page_size;
    diff_ranges(arena_.page_base(p) + in_page, pages_.twin(p) + in_page,
                static_cast<std::uint32_t>(ent_hi - ent_lo),
                static_cast<std::uint32_t>(ent_lo - entry.offset), kDiffMergeGap,
                out);
  }
  return true;
}

CacheManager::ModifiedDatum CacheManager::page_datum(const AllocationEntry& entry) const {
  ModifiedDatum d;
  d.id = entry.pointer;
  d.image = entry.local;
  d.size = entry.size;
  d.has_baseline = diff_entry(entry, d.dirty);
  if (!d.has_baseline) d.dirty.clear();
  return d;
}

CacheManager::ModifiedDatum CacheManager::overlay_datum(
    const AllocationEntry& entry, const SessionPages::Overlay& overlay) {
  ModifiedDatum d;
  d.id = entry.pointer;
  d.image = overlay.bytes.data();
  d.size = entry.size;
  d.has_baseline = true;  // only the received ranges are meaningful
  d.complete = overlay.valid.size() == 1 && overlay.valid[0].offset == 0 &&
               overlay.valid[0].len == entry.size;
  d.dirty = overlay.valid;
  return d;
}

std::vector<CacheManager::ModifiedDatum> CacheManager::collect_modified_deltas()
    const {
  std::vector<ModifiedDatum> out;
  const SessionPages* sp = fetcher_.find_pages(fetcher_.current_session());
  if (sp == nullptr) return out;
  std::unordered_set<const AllocationEntry*> seen;
  for (const PageIndex p : sp->pages) {
    if (pages_.state(p) != PageState::kDirty) continue;
    for (const AllocationEntry* e : sp->table.entries_on_page(p)) {
      if (seen.insert(e).second) out.push_back(page_datum(*e));
    }
  }
  for (const auto& [entry, overlay] : sp->overlays) {
    if (seen.insert(entry).second) out.push_back(overlay_datum(*entry, overlay));
  }
  return out;
}

Result<CacheManager::ModifiedDatum> CacheManager::modified_datum(
    const LongPointer& id) const {
  const SessionPages* sp = fetcher_.find_pages(fetcher_.current_session());
  const AllocationEntry* entry = sp != nullptr ? sp->table.find(id) : nullptr;
  if (entry == nullptr) {
    return not_found("modified_datum: " + id.to_string());
  }
  if (auto overlay = sp->overlays.find(entry); overlay != sp->overlays.end()) {
    return overlay_datum(*entry, overlay->second);
  }
  bool on_dirty_page = false;
  const std::uint32_t span = pages_spanned(*entry);
  for (std::uint32_t i = 0; i < span && !on_dirty_page; ++i) {
    on_dirty_page = pages_.state(entry->page + i) == PageState::kDirty;
  }
  if (!on_dirty_page) {
    return not_found("modified_datum: " + id.to_string() + " not modified");
  }
  return page_datum(*entry);
}

Status CacheManager::dirty_spanned_pages(const AllocationEntry& entry) {
  const std::uint32_t span = pages_spanned(entry);
  for (std::uint32_t i = 0; i < span; ++i) {
    const PageIndex p = entry.page + i;
    if (pages_.state(p) == PageState::kClean) {
      // Pre-write image first: it is the baseline later diffs run against.
      if (!pages_.has_twin(p)) {
        pages_.snapshot_twin(p, arena_.page_base(p), arena_.page_size());
      }
      SRPC_RETURN_IF_ERROR(pages_.transition(p, PageState::kDirty));
      SRPC_RETURN_IF_ERROR(arena_.protect(p, PageProtection::kReadWrite));
    }
  }
  return Status::ok();
}

Result<const AllocationEntry*> CacheManager::incoming_entry(SessionPages& sp,
                                                            const LongPointer& id) {
  if (const AllocationEntry* entry = sp.table.find(id)) return entry;
  if (id.type == kInvalidTypeId) {
    return invalid_argument("incoming modified datum with no type: " + id.to_string());
  }
  auto layout = layouts_.layout_of(arch_, id.type);
  if (!layout) return layout.status();
  auto placed = place_lazy(sp, id, layout.value()->size, layout.value()->align);
  if (!placed) return placed.status();
  return sp.table.find(id);
}

Result<void*> CacheManager::prepare_incoming_dirty(const LongPointer& id) {
  SessionPages& sp = current();
  auto found = incoming_entry(sp, id);
  if (!found) return found.status();
  const AllocationEntry* entry = found.value();
  if (is_resident(entry->local)) {
    // Overwrite in place; the page joins the modified data set.
    SRPC_RETURN_IF_ERROR(dirty_spanned_pages(*entry));
    return static_cast<void*>(entry->local);
  }
  // Not resident: hold the value as an overlay, applied when (and if) the
  // page is filled; collect_modified() forwards it meanwhile. A full image
  // arrives, so the whole overlay is valid.
  SessionPages::Overlay& overlay = sp.overlays[entry];
  overlay.bytes.assign(entry->size, 0);
  overlay.valid.assign(1, ByteRange{0, entry->size});
  return static_cast<void*>(overlay.bytes.data());
}

Status CacheManager::apply_incoming_delta(const LongPointer& id,
                                          std::span<const ByteRange> ranges,
                                          const std::uint8_t* bytes) {
  SessionPages& sp = current();
  auto found = incoming_entry(sp, id);
  if (!found) return found.status();
  const AllocationEntry* entry = found.value();
  if (!ranges.empty() && ranges.back().end() > entry->size) {
    return protocol_error("delta range past the end of " + id.to_string());
  }
  if (is_resident(entry->local)) {
    SRPC_RETURN_IF_ERROR(dirty_spanned_pages(*entry));
    const std::uint8_t* src = bytes;
    for (const ByteRange& r : ranges) {
      std::memcpy(entry->local + r.offset, src, r.len);
      src += r.len;
    }
    return Status::ok();
  }
  // Non-resident: accumulate on the overlay and remember which ranges are
  // real, so a later fill only applies received bytes over fetched content.
  SessionPages::Overlay& overlay = sp.overlays[entry];
  if (overlay.bytes.size() != entry->size) {
    overlay.bytes.assign(entry->size, 0);
    overlay.valid.clear();
  }
  const std::uint8_t* src = bytes;
  for (const ByteRange& r : ranges) {
    std::memcpy(overlay.bytes.data() + r.offset, src, r.len);
    src += r.len;
    overlay.valid.push_back(r);
  }
  merge_ranges(overlay.valid);
  return Status::ok();
}

void CacheManager::renew_lease(SpaceId source, std::uint64_t vnow_ns) {
  auto it = leases_.find(source);
  if (it == leases_.end()) {
    SourceLease fresh;
    auto floor = lease_epoch_floor_.find(source);
    if (floor != lease_epoch_floor_.end()) fresh.epoch = floor->second;
    it = leases_.emplace(source, fresh).first;
  }
  if (vnow_ns > it->second.last_contact_ns) it->second.last_contact_ns = vnow_ns;
}

void CacheManager::touch_lease(SpaceId source, std::uint64_t vnow_ns) {
  auto it = leases_.find(source);
  if (it == leases_.end()) return;
  if (vnow_ns > it->second.last_contact_ns) it->second.last_contact_ns = vnow_ns;
}

const CacheManager::SourceLease* CacheManager::lease(SpaceId source) const {
  auto it = leases_.find(source);
  return it == leases_.end() ? nullptr : &it->second;
}

std::vector<SpaceId> CacheManager::lapsed_sources(std::uint64_t vnow_ns,
                                                  std::uint64_t ttl_ns) const {
  std::vector<SpaceId> out;
  for (const auto& [source, l] : leases_) {
    if (l.last_contact_ns + ttl_ns < vnow_ns) out.push_back(source);
  }
  return out;
}

std::size_t CacheManager::revoke_source(SpaceId source) {
  const std::vector<PageIndex> revoked = pages_.revoke(source);
  for (const PageIndex p : revoked) {
    (void)arena_.protect(p, PageProtection::kNone);
  }
  // The lease ends with the data: a later fetch from the source (should it
  // turn out alive after all) starts a fresh one under a higher epoch.
  auto lit = leases_.find(source);
  if (lit != leases_.end()) {
    lease_epoch_floor_[source] = lit->second.epoch + 1;
    leases_.erase(lit);
  }
  return revoked.size();
}

void CacheManager::forget_source(SessionPages& sp, SpaceId source) {
  std::erase_if(sp.overlays,
                [source](const auto& o) { return o.first->pointer.space == source; });
  // A fresh chain starts if the source ever comes back.
  sp.lazy_cursors.erase(source);
}

void CacheManager::release(SessionPages& sp) {
  // Re-protect the session's pages in runs of consecutive indexes (a lone
  // session's pages are one run), then hand them back.
  std::sort(sp.pages.begin(), sp.pages.end());
  for (std::size_t i = 0; i < sp.pages.size();) {
    std::size_t j = i + 1;
    while (j < sp.pages.size() && sp.pages[j] == sp.pages[j - 1] + 1) ++j;
    (void)set_protection(arena_.page_base(sp.pages[i]), (j - i) * arena_.page_size(),
                         PageProtection::kNone);
    i = j;
  }
  pages_.release(sp.pages);
  sp.table.clear();
  sp.overlays.clear();
  sp.lazy_cursors.clear();
  sp.alloc_cursor = kInvalidPage;
  sp.pages.clear();
}

}  // namespace srpc

// Per-arena page bookkeeping: the state machine behind the paper's
// protected-page discipline.
//
//   kEmpty      nothing allocated on the page            PROT_NONE
//   kAllocated  swizzled locations assigned, no data yet PROT_NONE
//   kClean      resident, unmodified                     PROT_READ
//   kDirty      resident, modified since last transfer   PROT_READ|WRITE
//
// A page becomes *sealed* the moment it turns resident: once protection is
// released, a first access to any further datum on it could no longer be
// detected (paper §3.2), so no new locations may be allocated there.
//
// One table covers the one arena of a space, shared by every session open
// there. Each handed-out page carries its owner, the session whose data it
// holds; no page ever holds two sessions' data. Pages come from the bottom
// of the arena, and released pages are reused lowest first, so the table
// keeps only the used prefix [0, used()): every page above the bound is
// kEmpty. When the last owned page is released the bound drops back to 0,
// so a lone session on an idle space is placed exactly as on a fresh one.
// Scans and dumps stop at the bound, so their cost follows the pages in
// use, not the arena size.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "vm/page_arena.hpp"

namespace srpc {

enum class PageState : std::uint8_t { kEmpty, kAllocated, kClean, kDirty };

// kLazy pages hold swizzled-but-unfetched locations and seal on residency.
// kAlloc pages hold locally-born objects (extended_malloc): every datum on
// them has data from birth, so they stay open for further allocation even
// while resident (paper §3.5).
enum class PageKind : std::uint8_t { kLazy, kAlloc };

std::string_view to_string(PageState s) noexcept;

struct PageInfo {
  PageState state = PageState::kEmpty;
  PageKind kind = PageKind::kLazy;
  bool sealed = false;
  std::uint32_t bump = 0;          // next free byte offset for allocation
  SpaceId origin = kInvalidSpaceId;  // home space this page clusters (strategy-dependent)
  SessionId owner = kNoSession;      // the session whose data the page holds
};

class PageTable {
 public:
  // Reserves room for `page_count` pages without initialising it. The
  // storage never reallocates, so PageInfo references stay valid.
  explicit PageTable(std::size_t page_count) : page_count_(page_count) {
    pages_.reserve(page_count);
  }

  // Mutable access brings `page` (and every page below it) into the used
  // prefix; const access to a page above the bound reads as kEmpty. Both
  // throw std::out_of_range past page_count().
  [[nodiscard]] PageInfo& info(PageIndex page) {
    check_range(page);
    if (page >= pages_.size()) pages_.resize(static_cast<std::size_t>(page) + 1);
    return pages_[page];
  }
  [[nodiscard]] const PageInfo& info(PageIndex page) const {
    check_range(page);
    return page < pages_.size() ? pages_[page] : kUntouched;
  }
  [[nodiscard]] PageState state(PageIndex page) const { return info(page).state; }
  [[nodiscard]] std::size_t page_count() const noexcept { return page_count_; }
  // The used bound: pages at or above it have never left kEmpty since the
  // last reset.
  [[nodiscard]] std::size_t used() const noexcept { return pages_.size(); }

  // Hands out `n` consecutive fresh pages to `owner`, kAllocated with the
  // given kind and origin: the lowest released pages that fit, else pages
  // at the used bound; RESOURCE_EXHAUSTED when the arena has no such run.
  Result<PageIndex> grab(std::uint32_t n, PageKind kind, SpaceId origin,
                         SessionId owner = kNoSession);

  // Returns handed-out pages (distinct) to the arena: kEmpty, unsealed, no
  // twin. The protection change is the cache manager's job.
  void release(std::span<const PageIndex> pages);

  // Validated state transition; the protection change itself is the cache
  // manager's job (it owns the arena).
  Status transition(PageIndex page, PageState to);

  // Demotes every resident lazy page clustered to `origin` to kAllocated
  // (lease revocation: the table entries survive, the bytes and twins do
  // not) and returns those pages, ascending, for re-protection.
  std::vector<PageIndex> revoke(SpaceId origin);

  // All pages currently in the given state, ascending.
  [[nodiscard]] std::vector<PageIndex> pages_in_state(PageState s) const;

  // Twin slots: a copy of a page's bytes taken the instant it turned
  // writable, so the cache manager can later diff the live page against the
  // pre-write image and ship only the bytes that changed. Twins exist only
  // for pages that faulted clean→dirty (or had an overlay applied); pages
  // born dirty (local allocation) have no coherent baseline and no twin.
  void snapshot_twin(PageIndex page, const std::uint8_t* bytes, std::size_t len);
  [[nodiscard]] bool has_twin(PageIndex page) const {
    return twins_.contains(page);
  }
  // Valid only when has_twin(page); pointer stable until revoke/reset.
  [[nodiscard]] const std::uint8_t* twin(PageIndex page) const {
    return twins_.at(page).data();
  }

  // Resets every page to kEmpty/unsealed and the used bound to 0.
  void reset();

 private:
  static constexpr PageInfo kUntouched{};

  void check_range(PageIndex page) const {
    if (page >= page_count_) throw std::out_of_range("page outside table");
  }

  std::size_t page_count_;
  std::vector<PageInfo> pages_;  // the used prefix; capacity page_count_
  std::set<PageIndex> released_;  // kEmpty pages below the bound
  std::size_t held_ = 0;          // pages handed out and not yet released
  std::unordered_map<PageIndex, std::vector<std::uint8_t>> twins_;
};

}  // namespace srpc

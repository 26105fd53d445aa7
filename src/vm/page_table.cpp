#include "vm/page_table.hpp"

namespace srpc {

std::string_view to_string(PageState s) noexcept {
  switch (s) {
    case PageState::kEmpty:
      return "EMPTY";
    case PageState::kAllocated:
      return "ALLOCATED";
    case PageState::kClean:
      return "CLEAN";
    case PageState::kDirty:
      return "DIRTY";
  }
  return "?";
}

Result<PageIndex> PageTable::grab(std::uint32_t n, PageKind kind, SpaceId origin,
                                  SessionId owner) {
  const PageInfo fresh{PageState::kAllocated, kind, false, 0, origin, owner};
  // The lowest run of n released pages, if any.
  for (auto it = released_.begin(); it != released_.end();) {
    auto last = it;
    while (*last - *it + 1 < n && std::next(last) != released_.end() &&
           *std::next(last) == *last + 1) {
      ++last;
    }
    if (*last - *it + 1 < n) {
      it = std::next(last);
      continue;
    }
    const PageIndex first = *it;
    released_.erase(it, std::next(last));
    for (std::uint32_t i = 0; i < n; ++i) pages_[first + i] = fresh;
    held_ += n;
    return first;
  }
  const std::size_t first = pages_.size();
  if (n > page_count_ - first) {
    return resource_exhausted("cache arena full (" + std::to_string(page_count_) +
                              " pages)");
  }
  pages_.resize(first + n, fresh);
  held_ += n;
  return static_cast<PageIndex>(first);
}

void PageTable::release(std::span<const PageIndex> pages) {
  if (pages.size() >= held_) {
    reset();  // the last holder is done: back to a fresh arena
    return;
  }
  for (const PageIndex page : pages) {
    pages_.at(page) = PageInfo{};
    twins_.erase(page);
    released_.insert(page);
  }
  held_ -= pages.size();
}

Status PageTable::transition(PageIndex page, PageState to) {
  if (page >= page_count_) {
    return out_of_range("page " + std::to_string(page) + " outside table");
  }
  const PageState from = state(page);
  const bool legal = (from == PageState::kEmpty && to == PageState::kAllocated) ||
                     (from == PageState::kAllocated && to == PageState::kClean) ||
                     (from == PageState::kAllocated && to == PageState::kDirty) ||
                     (from == PageState::kClean && to == PageState::kDirty) ||
                     (from == PageState::kDirty && to == PageState::kClean);
  if (!legal) {
    return failed_precondition(std::string("illegal page transition ") +
                               std::string(to_string(from)) + " -> " +
                               std::string(to_string(to)) + " on page " +
                               std::to_string(page));
  }
  PageInfo& p = info(page);
  p.state = to;
  if (p.kind == PageKind::kLazy && (to == PageState::kClean || to == PageState::kDirty)) {
    p.sealed = true;
  }
  return Status::ok();
}

std::vector<PageIndex> PageTable::revoke(SpaceId origin) {
  std::vector<PageIndex> out;
  for (std::size_t i = 0; i < pages_.size(); ++i) {
    PageInfo& p = pages_[i];
    if (p.origin != origin || p.kind != PageKind::kLazy) continue;
    if (p.state != PageState::kClean && p.state != PageState::kDirty) continue;
    p.state = PageState::kAllocated;
    twins_.erase(static_cast<PageIndex>(i));
    out.push_back(static_cast<PageIndex>(i));
  }
  return out;
}

std::vector<PageIndex> PageTable::pages_in_state(PageState s) const {
  std::vector<PageIndex> out;
  for (std::size_t i = 0; i < pages_.size(); ++i) {
    if (pages_[i].state == s) out.push_back(static_cast<PageIndex>(i));
  }
  // Everything above the bound is empty; no PageInfo to read there.
  if (s == PageState::kEmpty) {
    for (std::size_t i = pages_.size(); i < page_count_; ++i) {
      out.push_back(static_cast<PageIndex>(i));
    }
  }
  return out;
}

void PageTable::snapshot_twin(PageIndex page, const std::uint8_t* bytes,
                              std::size_t len) {
  twins_[page].assign(bytes, bytes + len);
}

void PageTable::reset() {
  pages_.clear();  // keeps the reserved capacity
  released_.clear();
  held_ = 0;
  twins_.clear();
}

}  // namespace srpc

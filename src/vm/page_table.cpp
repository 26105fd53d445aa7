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

Result<PageIndex> PageTable::grab(std::uint32_t n, PageKind kind, SpaceId origin) {
  const std::size_t first = pages_.size();
  if (n > page_count_ - first) {
    return resource_exhausted("cache arena full (" + std::to_string(page_count_) +
                              " pages)");
  }
  pages_.resize(first + n, PageInfo{PageState::kAllocated, kind, false, 0, origin});
  return static_cast<PageIndex>(first);
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
  twins_.clear();
}

}  // namespace srpc

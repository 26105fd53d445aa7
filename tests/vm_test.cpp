// Virtual-memory substrate: arenas, protection, fault dispatch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "vm/fault_dispatcher.hpp"
#include "vm/page_arena.hpp"
#include "vm/page_table.hpp"
#include "vm/protection.hpp"

namespace srpc {
namespace {

TEST(PageArena, CreateAndAddressing) {
  auto arena = PageArena::create(8, 4096);
  ASSERT_TRUE(arena.is_ok()) << arena.status().to_string();
  PageArena a = std::move(arena).value();
  EXPECT_EQ(a.page_count(), 8u);
  EXPECT_EQ(a.byte_size(), 8u * 4096u);
  EXPECT_TRUE(a.contains(a.base()));
  EXPECT_TRUE(a.contains(a.base() + a.byte_size() - 1));
  EXPECT_FALSE(a.contains(a.base() + a.byte_size()));
  EXPECT_EQ(a.page_of(a.base() + 4096), 1u);
  EXPECT_EQ(a.page_of(a.base() + 4095), 0u);
  EXPECT_EQ(a.page_of(nullptr), kInvalidPage);
}

TEST(PageArena, RejectsBadPageSize) {
  auto arena = PageArena::create(1, 1000);
  ASSERT_FALSE(arena.is_ok());
  EXPECT_EQ(arena.status().code(), StatusCode::kInvalidArgument);
}

TEST(PageArena, ProtectionTransitionsAllowAccess) {
  auto arena = PageArena::create(2, 4096);
  ASSERT_TRUE(arena.is_ok());
  PageArena a = std::move(arena).value();
  ASSERT_TRUE(a.protect(0, PageProtection::kReadWrite).is_ok());
  std::memset(a.page_base(0), 0xAB, 4096);
  EXPECT_EQ(a.page_base(0)[100], 0xAB);
  ASSERT_TRUE(a.protect(0, PageProtection::kRead).is_ok());
  EXPECT_EQ(a.page_base(0)[100], 0xAB);  // reads still fine
}

TEST(PageTable, LegalTransitions) {
  PageTable table(4);
  EXPECT_TRUE(table.transition(0, PageState::kAllocated).is_ok());
  EXPECT_TRUE(table.transition(0, PageState::kClean).is_ok());
  EXPECT_TRUE(table.info(0).sealed);
  EXPECT_TRUE(table.transition(0, PageState::kDirty).is_ok());
  EXPECT_TRUE(table.transition(0, PageState::kClean).is_ok());
}

TEST(PageTable, IllegalTransitionsRejected) {
  PageTable table(4);
  EXPECT_FALSE(table.transition(0, PageState::kClean).is_ok());   // empty -> clean
  EXPECT_FALSE(table.transition(0, PageState::kDirty).is_ok());   // empty -> dirty
  ASSERT_TRUE(table.transition(0, PageState::kAllocated).is_ok());
  EXPECT_FALSE(table.transition(0, PageState::kAllocated).is_ok());
  EXPECT_FALSE(table.transition(9, PageState::kAllocated).is_ok());  // out of range
}

TEST(PageTable, AllocPagesDoNotSeal) {
  PageTable table(2);
  table.info(0).kind = PageKind::kAlloc;
  ASSERT_TRUE(table.transition(0, PageState::kAllocated).is_ok());
  ASSERT_TRUE(table.transition(0, PageState::kDirty).is_ok());
  EXPECT_FALSE(table.info(0).sealed);
}

TEST(PageTable, ResetClearsEverything) {
  PageTable table(2);
  ASSERT_TRUE(table.transition(1, PageState::kAllocated).is_ok());
  table.info(1).bump = 100;
  table.reset();
  EXPECT_EQ(table.info(1).state, PageState::kEmpty);
  EXPECT_EQ(table.info(1).bump, 0u);
  EXPECT_EQ(table.pages_in_state(PageState::kAllocated).size(), 0u);
}

TEST(PageTable, ScanAndResetStopAtTheUsedBound) {
  PageTable table(1u << 20);
  for (PageIndex p = 0; p < 3; ++p) {
    ASSERT_TRUE(table.transition(p, PageState::kAllocated).is_ok());
    ASSERT_TRUE(table.transition(p, PageState::kDirty).is_ok());
  }
  EXPECT_EQ(table.pages_in_state(PageState::kDirty), (std::vector<PageIndex>{0, 1, 2}));
  EXPECT_EQ(table.used(), 3u);

  table.reset();
  EXPECT_EQ(table.used(), 0u);
  const PageTable& view = table;
  for (PageIndex p = 0; p < view.page_count(); ++p) {
    ASSERT_EQ(view.info(p).state, PageState::kEmpty) << "page " << p;
  }
  EXPECT_TRUE(table.pages_in_state(PageState::kDirty).empty());
}

TEST(PageTable, UntouchedPagesReadEmptyAndStayAboveTheBound) {
  PageTable table(1u << 20);
  const PageTable& view = table;
  EXPECT_EQ(view.info(12345).state, PageState::kEmpty);
  EXPECT_EQ(view.state((1u << 20) - 1), PageState::kEmpty);
  EXPECT_FALSE(table.transition(500, PageState::kClean).is_ok());  // refused: no growth
  EXPECT_EQ(table.used(), 0u);

  EXPECT_EQ(table.transition(1u << 20, PageState::kAllocated).code(),
            StatusCode::kOutOfRange);
  EXPECT_THROW((void)view.info(1u << 20), std::out_of_range);
}

TEST(PageTable, GrabHandsOutPagesAtTheBound) {
  PageTable table(4);
  ASSERT_TRUE(table.transition(0, PageState::kAllocated).is_ok());
  PageInfo& first = table.info(0);

  auto run = table.grab(2, PageKind::kAlloc, 7);
  ASSERT_TRUE(run.is_ok());
  EXPECT_EQ(run.value(), 1u);
  EXPECT_EQ(table.used(), 3u);
  EXPECT_EQ(table.info(2).state, PageState::kAllocated);
  EXPECT_EQ(table.info(2).kind, PageKind::kAlloc);
  EXPECT_EQ(table.info(2).origin, 7u);
  ASSERT_TRUE(table.grab(1, PageKind::kLazy, 7).is_ok());
  EXPECT_EQ(table.grab(1, PageKind::kLazy, 7).status().code(),
            StatusCode::kResourceExhausted);

  first.bump = 9;  // storage never moved under the reference
  EXPECT_EQ(table.info(0).bump, 9u);
}

TEST(PageTable, RevokeDemotesResidentLazyPagesOfOneOrigin) {
  PageTable table(8);
  const std::uint8_t image[16] = {};
  ASSERT_TRUE(table.grab(3, PageKind::kLazy, 1).is_ok());   // pages 0-2
  ASSERT_TRUE(table.grab(1, PageKind::kLazy, 2).is_ok());   // page 3
  ASSERT_TRUE(table.grab(1, PageKind::kAlloc, 1).is_ok());  // page 4
  ASSERT_TRUE(table.transition(0, PageState::kClean).is_ok());
  ASSERT_TRUE(table.transition(1, PageState::kClean).is_ok());
  table.snapshot_twin(1, image, sizeof image);
  ASSERT_TRUE(table.transition(1, PageState::kDirty).is_ok());
  ASSERT_TRUE(table.transition(3, PageState::kClean).is_ok());
  ASSERT_TRUE(table.transition(4, PageState::kDirty).is_ok());

  EXPECT_EQ(table.revoke(1), (std::vector<PageIndex>{0, 1}));
  EXPECT_EQ(table.state(0), PageState::kAllocated);
  EXPECT_EQ(table.state(1), PageState::kAllocated);
  EXPECT_FALSE(table.has_twin(1));
  EXPECT_EQ(table.state(2), PageState::kAllocated);  // never resident
  EXPECT_EQ(table.state(3), PageState::kClean);      // other origin
  EXPECT_EQ(table.state(4), PageState::kDirty);      // alloc page
}

// A fault handler that fills the page with a marker and opens it.
class FillOnFault final : public FaultHandler {
 public:
  explicit FillOnFault(PageArena& arena) : arena_(arena) {}

  bool on_fault(void* addr, FaultAccess access) override {
    last_access_ = access;
    const PageIndex page = arena_.page_of(addr);
    if (page == kInvalidPage) return false;
    if (!arena_.protect(page, PageProtection::kReadWrite).is_ok()) return false;
    std::memset(arena_.page_base(page), 0x5A, arena_.page_size());
    ++faults_;
    return true;
  }

  int faults() const { return faults_; }
  FaultAccess last_access() const { return last_access_; }

 private:
  PageArena& arena_;
  int faults_ = 0;
  FaultAccess last_access_ = FaultAccess::kUnknown;
};

TEST(FaultDispatcher, ResolvesReadFaultAndRestartsInstruction) {
  auto arena_or = PageArena::create(4, 4096);
  ASSERT_TRUE(arena_or.is_ok());
  PageArena arena = std::move(arena_or).value();
  FillOnFault handler(arena);
  ASSERT_TRUE(FaultDispatcher::instance()
                  .register_range(arena.base(), arena.byte_size(), &handler)
                  .is_ok());

  volatile std::uint8_t* p = arena.page_base(2) + 17;
  const std::uint8_t value = *p;  // faults, handler fills page, retry reads
  EXPECT_EQ(value, 0x5A);
  EXPECT_EQ(handler.faults(), 1);
#if defined(__x86_64__)
  EXPECT_EQ(handler.last_access(), FaultAccess::kRead);
#endif

  // Second read: no further fault.
  const std::uint8_t again = *p;
  EXPECT_EQ(again, 0x5A);
  EXPECT_EQ(handler.faults(), 1);

  ASSERT_TRUE(FaultDispatcher::instance().unregister_range(arena.base()).is_ok());
}

TEST(FaultDispatcher, ClassifiesWriteFaults) {
  auto arena_or = PageArena::create(1, 4096);
  ASSERT_TRUE(arena_or.is_ok());
  PageArena arena = std::move(arena_or).value();
  FillOnFault handler(arena);
  ASSERT_TRUE(FaultDispatcher::instance()
                  .register_range(arena.base(), arena.byte_size(), &handler)
                  .is_ok());

  arena.page_base(0)[0] = 1;  // write fault on PROT_NONE
  EXPECT_EQ(handler.faults(), 1);
#if defined(__x86_64__)
  EXPECT_EQ(handler.last_access(), FaultAccess::kWrite);
#endif
  EXPECT_EQ(arena.page_base(0)[0], 1);

  ASSERT_TRUE(FaultDispatcher::instance().unregister_range(arena.base()).is_ok());
}

TEST(FaultDispatcher, TracksRegistrations) {
  auto arena_or = PageArena::create(1, 4096);
  ASSERT_TRUE(arena_or.is_ok());
  PageArena arena = std::move(arena_or).value();
  FillOnFault handler(arena);
  const std::size_t before = FaultDispatcher::instance().range_count();
  ASSERT_TRUE(FaultDispatcher::instance()
                  .register_range(arena.base(), arena.byte_size(), &handler)
                  .is_ok());
  EXPECT_EQ(FaultDispatcher::instance().range_count(), before + 1);
  ASSERT_TRUE(FaultDispatcher::instance().unregister_range(arena.base()).is_ok());
  EXPECT_EQ(FaultDispatcher::instance().range_count(), before);
  EXPECT_FALSE(FaultDispatcher::instance().unregister_range(arena.base()).is_ok());
}

TEST(FaultDispatcher, RejectsBadRegistrations) {
  EXPECT_FALSE(
      FaultDispatcher::instance().register_range(nullptr, 10, nullptr).is_ok());
}

}  // namespace
}  // namespace srpc

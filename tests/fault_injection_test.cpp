// Transport failure injection through the reusable net/fault_transport
// decorator: hard send failures must surface as Status at the initiating
// call site, and duplicated deliveries (replayed requests and replies) must
// be absorbed by request-id dedup — never served twice, never corrupting
// runtime state.
#include <gtest/gtest.h>

#include "core/smart_rpc.hpp"
#include "net/fault_transport.hpp"
#include "workload/list.hpp"

namespace srpc {
namespace {

using workload::ListNode;

// Zero-cost sim wire wrapped in the fault decorator; eager closure off so
// every remote datum travels through an explicit FETCH round trip (the
// interesting path for duplication).
WorldOptions faulty_world() {
  WorldOptions options;
  options.cost = CostModel::zero();
  options.cache.closure_bytes = 0;
  options.fault_injection = true;
  options.timeouts = TimeoutConfig::aggressive();
  return options;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() : world_(faulty_world()) {
    a_ = &world_.create_space("A");
    b_ = &world_.create_space("B");
    workload::register_list_type(world_).status().check();
    b_->bind("sum",
             [](CallContext&, ListNode* head) -> std::int64_t {
               return workload::sum_list(head);
             })
        .check();
    b_->bind("head", [this](CallContext&) -> ListNode* { return remote_head_; })
        .check();
    // A three-node list homed at B for fetch-path tests.
    b_->run([&](Runtime& rt) {
      auto head = workload::build_list(rt, 3, [](std::uint32_t i) {
        return static_cast<std::int64_t>(10 + i);
      });
      head.status().check();
      remote_head_ = head.value();
    });
    fault_ = world_.fault();
  }

  ~FaultInjectionTest() override { fault_->disarm(); }

  World world_;
  AddressSpace* a_ = nullptr;
  AddressSpace* b_ = nullptr;
  FaultTransport* fault_ = nullptr;
  ListNode* remote_head_ = nullptr;
};

// --- whole-peer outage scenarios (partition / heal) -------------------------

TEST_F(FaultInjectionTest, PartitionedCallSurfacesDeadline) {
  a_->run([&](Runtime& rt) {
    fault_->partition(b_->id());  // silent two-way cut around B
    Session session(rt);
    auto sum = typed_call<std::int64_t>(rt, 1, "sum", static_cast<ListNode*>(nullptr));
    ASSERT_FALSE(sum.is_ok());
    // Loss is silent, so the failure surfaces through the retry layer.
    EXPECT_EQ(sum.status().code(), StatusCode::kDeadlineExceeded);
    fault_->heal_all();
    ASSERT_TRUE(session.end().is_ok());
  });
}

TEST_F(FaultInjectionTest, RuntimeRecoversAfterPartitionHeals) {
  a_->run([&](Runtime& rt) {
    auto head = rt.heap().allocate(rt.host_types().find<ListNode>().value());
    head.status().check();
    static_cast<ListNode*>(head.value())->value = 21;

    {
      fault_->partition(b_->id());
      Session session(rt);
      auto sum = typed_call<std::int64_t>(rt, 1, "sum",
                                          static_cast<ListNode*>(head.value()));
      ASSERT_FALSE(sum.is_ok());
      EXPECT_EQ(sum.status().code(), StatusCode::kDeadlineExceeded);
      fault_->heal_all();
      ASSERT_TRUE(session.end().is_ok());
    }
    {
      Session session(rt);
      auto sum = typed_call<std::int64_t>(rt, 1, "sum",
                                          static_cast<ListNode*>(head.value()));
      ASSERT_TRUE(sum.is_ok()) << sum.status().to_string();
      EXPECT_EQ(sum.value(), 21);
      ASSERT_TRUE(session.end().is_ok());
    }
  });
}

TEST_F(FaultInjectionTest, SessionEndFailuresSurfaceToo) {
  a_->run([&](Runtime& rt) {
    auto head = rt.heap().allocate(rt.host_types().find<ListNode>().value());
    head.status().check();
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto sum = typed_call<std::int64_t>(rt, 1, "sum",
                                        static_cast<ListNode*>(head.value()));
    ASSERT_TRUE(sum.is_ok());
    // Cut B away so the invalidation multicast at session end times out.
    fault_->partition(b_->id());
    auto ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
    EXPECT_EQ(ended.code(), StatusCode::kDeadlineExceeded);
    fault_->heal_all();
    // A retried end succeeds once the partition heals.
    ASSERT_TRUE(rt.end_session().is_ok());
  });
}

// A FETCH_REPLY with every byte flipped claims about 2^32 objects. The
// receiver refuses the count as a typed error before sizing anything by
// it, aborts cleanly, and the next session works as if nothing happened.
TEST_F(FaultInjectionTest, CorruptFetchReplyIsATypedErrorNotACrash) {
  a_->run([&](Runtime& rt) {
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto head = typed_call<ListNode*>(rt, 1, "head");
    ASSERT_TRUE(head.is_ok()) << head.status().to_string();
    fault_->corrupt_next(MessageType::kFetchReply, 1);
    const void* roots[] = {head.value()};
    Status fetched = rt.prefetch_many(roots, 1 << 16);
    EXPECT_EQ(fetched.code(), StatusCode::kProtocolError) << fetched.to_string();
    ASSERT_TRUE(rt.abort_session().is_ok());
  });
  EXPECT_EQ(fault_->stats().corrupted, 1u);

  a_->run([&](Runtime& rt) {
    Session session(rt);
    auto head = typed_call<ListNode*>(rt, 1, "head");
    ASSERT_TRUE(head.is_ok()) << head.status().to_string();
    EXPECT_EQ(workload::sum_list(head.value()), 10 + 11 + 12);
    head.value()->value = 40;
    ASSERT_TRUE(session.end().is_ok());
  });
  EXPECT_EQ(b_->run([&](Runtime&) { return remote_head_->value; }), 40);
}

// --- duplicate-delivery scenarios (request-id dedup) ------------------------

TEST_F(FaultInjectionTest, ReplayedFetchRepliesAreAbsorbed) {
  FaultOptions opts;
  opts.duplicate = 1.0;  // every fetch reply delivered twice
  fault_->target({MessageType::kFetchReply});
  fault_->arm(opts);

  a_->run([&](Runtime& rt) {
    Session session(rt);
    auto head = typed_call<ListNode*>(rt, 1, "head");
    ASSERT_TRUE(head.is_ok()) << head.status().to_string();
    // Walking the list faults node by node (closure budget is zero); every
    // FETCH_REPLY arrives twice and the twin must be dropped by seq
    // matching, not filled twice or misread as another reply.
    EXPECT_EQ(workload::sum_list(head.value()), 10 + 11 + 12);
    ASSERT_TRUE(session.end().is_ok());
  });
  fault_->disarm();

  const auto stats = a_->run([](Runtime& rt) { return rt.stats(); });
  EXPECT_GE(stats.stale_replies_absorbed, 3u);
  // The duplicates were injected at the wire, not invented by retransmits.
  EXPECT_GE(fault_->stats().duplicated, 3u);
}

TEST_F(FaultInjectionTest, DuplicatedCallsExecuteAtMostOnce) {
  FaultOptions opts;
  opts.duplicate = 1.0;
  fault_->target({MessageType::kCall});
  fault_->arm(opts);

  a_->run([&](Runtime& rt) {
    Session session(rt);
    auto sum = typed_call<std::int64_t>(rt, 1, "sum", static_cast<ListNode*>(nullptr));
    ASSERT_TRUE(sum.is_ok()) << sum.status().to_string();
    EXPECT_EQ(sum.value(), 0);
    ASSERT_TRUE(session.end().is_ok());
  });
  fault_->disarm();

  const auto stats = b_->run([](Runtime& rt) { return rt.stats(); });
  EXPECT_EQ(stats.calls_served, 1u);
  EXPECT_GE(stats.duplicate_requests_absorbed, 1u);
}

TEST_F(FaultInjectionTest, DuplicatedInvalidationsStayIdempotent) {
  FaultOptions opts;
  opts.duplicate = 1.0;
  fault_->target({MessageType::kInvalidate, MessageType::kInvalidateAck});
  fault_->arm(opts);

  a_->run([&](Runtime& rt) {
    Session session(rt);
    auto head = typed_call<ListNode*>(rt, 1, "head");
    ASSERT_TRUE(head.is_ok());
    ASSERT_TRUE(session.end().is_ok());
    // A second session right behind it proves the duplicated invalidate
    // did not wedge the peer.
    Session again(rt);
    auto sum = typed_call<std::int64_t>(rt, 1, "sum", static_cast<ListNode*>(nullptr));
    ASSERT_TRUE(sum.is_ok()) << sum.status().to_string();
    ASSERT_TRUE(again.end().is_ok());
  });
  fault_->disarm();
}

}  // namespace
}  // namespace srpc

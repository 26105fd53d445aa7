// ClosurePacker unit tests: bounded breadth-first closure over a mock view.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <map>

#include "core/closure.hpp"
#include "types/type_registry.hpp"

namespace srpc {
namespace {

struct Node {
  Node* left;
  Node* right;
  std::int64_t data;
};

// A mock local view: fake addresses map to typed images; some are marked
// unreadable (non-resident cache).
class MockView final : public LocalDataView {
 public:
  struct Datum {
    LongPointer id;
    const void* image;
    bool readable;
  };

  void put(std::uint64_t addr, Datum d) { data_[addr] = d; }

  mutable std::vector<std::uint64_t> looked_up;  // every address asked about

  Result<DatumView> view_local(std::uint64_t addr) const override {
    looked_up.push_back(addr);
    auto it = data_.find(addr);
    if (it == data_.end()) return not_found("unknown address");
    DatumView view;
    view.id = it->second.id;
    view.image = it->second.readable ? it->second.image : nullptr;
    return view;
  }

 private:
  std::map<std::uint64_t, Datum> data_;
};

class ClosureTest : public ::testing::Test {
 protected:
  ClosureTest() : layouts_(registry_), codec_{registry_, layouts_} {
    auto node = registry_.declare_struct("ClNode");
    node.status().check();
    node_ = node.value();
    const TypeId ptr = registry_.pointer_to(node_);
    registry_
        .define_struct(node_, {{"left", ptr},
                               {"right", ptr},
                               {"data", TypeRegistry::scalar_id(ScalarType::kI64)}})
        .check();
  }

  // Builds a complete tree of `n` nodes in `nodes_` and registers each with
  // the view at its own (real) address, homed at `home`.
  Node* build_tree(std::uint32_t n, SpaceId home) {
    nodes_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes_[i] = Node{nullptr, nullptr, static_cast<std::int64_t>(i)};
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      if (2 * i + 1 < n) nodes_[i].left = &nodes_[2 * i + 1];
      if (2 * i + 2 < n) nodes_[i].right = &nodes_[2 * i + 2];
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto addr = reinterpret_cast<std::uint64_t>(&nodes_[i]);
      view_.put(addr, {{home, addr, node_}, &nodes_[i], true});
    }
    return &nodes_[0];
  }

  std::uint64_t addr_of(const Node* n) const {
    return reinterpret_cast<std::uint64_t>(n);
  }

  const Layout& plan() const { return *layouts_.layout_of(host_arch(), node_).value(); }

  TypeRegistry registry_;
  LayoutEngine layouts_;
  ValueCodec codec_;
  MockView view_;
  std::vector<Node> nodes_;
  TypeId node_ = kInvalidTypeId;
};

TEST_F(ClosureTest, PlanPointerLeavesFindEveryPointer) {
  // left and right are one run of two pointer leaves, 8 bytes apart.
  std::vector<LayoutRun> pointers;
  for (const LayoutRun& run : plan().runs) {
    if (run.is_pointer()) pointers.push_back(run);
  }
  ASSERT_EQ(pointers.size(), 1u);
  EXPECT_EQ(pointers[0].offset, offsetof(Node, left));
  EXPECT_EQ(pointers[0].stride, sizeof(Node*));
  EXPECT_EQ(pointers[0].count, 2u);
  EXPECT_EQ(pointers[0].pointee, node_);
  EXPECT_EQ(plan().pointer_ranges, (std::vector<ByteRange>{{0, 2 * sizeof(Node*)}}));

  Node leaf{nullptr, nullptr, 3};
  Node root{&leaf, nullptr, 1};
  std::vector<std::pair<std::uint64_t, TypeId>> seen;
  plan().for_each_pointer(host_arch(), &root, [&](std::uint64_t p, TypeId t) {
    seen.emplace_back(p, t);
  });
  ASSERT_EQ(seen.size(), 1u);  // null right pointer not reported
  EXPECT_EQ(seen[0].first, reinterpret_cast<std::uint64_t>(&leaf));
  EXPECT_EQ(seen[0].second, node_);
}

TEST_F(ClosureTest, PackerNeverFollowsNullPointers) {
  Node leaf{nullptr, nullptr, 3};
  Node root{&leaf, nullptr, 1};
  for (Node* n : {&root, &leaf}) {
    view_.put(addr_of(n), {{1, addr_of(n), node_}, n, true});
  }
  ClosurePacker packer(codec_, host_arch(), view_);
  const std::uint64_t roots[] = {addr_of(&root)};
  auto packed = packer.pack(roots, 1 << 20, false);
  ASSERT_TRUE(packed.is_ok());
  EXPECT_EQ(packed.value().objects, 2u);
  EXPECT_EQ(view_.looked_up, (std::vector<std::uint64_t>{addr_of(&root), addr_of(&leaf)}));
}

TEST_F(ClosureTest, ZeroBudgetPacksNothingWithoutRequireRoots) {
  Node* root = build_tree(7, 1);
  ClosurePacker packer(codec_, host_arch(), view_);
  const std::uint64_t roots[] = {addr_of(root)};
  auto packed = packer.pack(roots, 0, /*require_roots=*/false);
  ASSERT_TRUE(packed.is_ok());
  EXPECT_EQ(packed.value().objects, 0u);
}

TEST_F(ClosureTest, RequireRootsForcesRootsPastBudget) {
  Node* root = build_tree(7, 1);
  ClosurePacker packer(codec_, host_arch(), view_);
  const std::uint64_t roots[] = {addr_of(root)};
  auto packed = packer.pack(roots, 0, /*require_roots=*/true);
  ASSERT_TRUE(packed.is_ok());
  EXPECT_EQ(packed.value().objects, 1u);
}

TEST_F(ClosureTest, BudgetBoundsTheTraversal) {
  Node* root = build_tree(127, 1);
  ClosurePacker packer(codec_, host_arch(), view_);
  const std::uint64_t roots[] = {addr_of(root)};
  const std::uint64_t per_node = graph_object_wire_size(plan());
  auto packed = packer.pack(roots, per_node * 10, false);
  ASSERT_TRUE(packed.is_ok());
  EXPECT_EQ(packed.value().objects, 10u);
  EXPECT_LE(packed.value().estimated_wire_bytes, per_node * 10);
}

TEST_F(ClosureTest, BreadthFirstTakesLevelsBeforeDepth) {
  Node* root = build_tree(15, 1);
  ClosurePacker packer(codec_, host_arch(), view_, TraversalOrder::kBreadthFirst);
  const std::uint64_t roots[] = {addr_of(root)};
  const std::uint64_t per_node = graph_object_wire_size(plan());
  auto packed = packer.pack(roots, per_node * 7, false);
  ASSERT_TRUE(packed.is_ok());
  // BFS over a complete tree: the first 7 packed nodes are exactly the top
  // three levels (indices 0..6).
  const auto& refs = packed.value().groups.at(1);
  ASSERT_EQ(refs.size(), 7u);
  for (const auto& ref : refs) {
    const auto* n = static_cast<const Node*>(ref.src);
    EXPECT_LT(n->data, 7);
  }
}

TEST_F(ClosureTest, DepthFirstDivesDownOneSpine) {
  Node* root = build_tree(15, 1);
  ClosurePacker packer(codec_, host_arch(), view_, TraversalOrder::kDepthFirst);
  const std::uint64_t roots[] = {addr_of(root)};
  const std::uint64_t per_node = graph_object_wire_size(plan());
  auto packed = packer.pack(roots, per_node * 4, false);
  ASSERT_TRUE(packed.is_ok());
  const auto& refs = packed.value().groups.at(1);
  ASSERT_EQ(refs.size(), 4u);
  // Depth-first from the root reaches depth 3 within four nodes; BFS could
  // only reach depth 1. Check the last packed node is at depth 3 (data >= 7).
  const auto* last = static_cast<const Node*>(refs.back().src);
  EXPECT_GE(last->data, 7);
}

TEST_F(ClosureTest, SharedNodesPackOnce) {
  // A diamond: root -> {a, b} -> shared.
  Node shared{nullptr, nullptr, 99};
  Node a{&shared, nullptr, 1};
  Node b{&shared, nullptr, 2};
  Node root{&a, &b, 0};
  for (Node* n : {&root, &a, &b, &shared}) {
    const auto addr = reinterpret_cast<std::uint64_t>(n);
    view_.put(addr, {{1, addr, node_}, n, true});
  }
  ClosurePacker packer(codec_, host_arch(), view_);
  const std::uint64_t roots[] = {reinterpret_cast<std::uint64_t>(&root)};
  auto packed = packer.pack(roots, 1 << 20, false);
  ASSERT_TRUE(packed.is_ok());
  EXPECT_EQ(packed.value().objects, 4u);  // not 5
}

TEST_F(ClosureTest, CyclesTerminate) {
  Node a{nullptr, nullptr, 1};
  Node b{&a, nullptr, 2};
  a.left = &b;
  a.right = &a;  // self loop
  for (Node* n : {&a, &b}) {
    const auto addr = reinterpret_cast<std::uint64_t>(n);
    view_.put(addr, {{1, addr, node_}, n, true});
  }
  ClosurePacker packer(codec_, host_arch(), view_);
  const std::uint64_t roots[] = {reinterpret_cast<std::uint64_t>(&a)};
  auto packed = packer.pack(roots, 1 << 20, false);
  ASSERT_TRUE(packed.is_ok());
  EXPECT_EQ(packed.value().objects, 2u);
}

TEST_F(ClosureTest, UnreadableChildrenStayFrontier) {
  Node* root = build_tree(7, 1);
  // Mark the left subtree unreadable (swizzled but unfetched).
  const auto left_addr = addr_of(root->left);
  view_.put(left_addr, {{1, left_addr, node_}, root->left, false});

  ClosurePacker packer(codec_, host_arch(), view_);
  const std::uint64_t roots[] = {addr_of(root)};
  auto packed = packer.pack(roots, 1 << 20, false);
  ASSERT_TRUE(packed.is_ok());
  // Root + right subtree (3 nodes) only: 4 packed. The unreadable left
  // child AND its children (unreachable through it) stay behind.
  EXPECT_EQ(packed.value().objects, 4u);
}

TEST_F(ClosureTest, GroupsSplitByHomeSpace) {
  // root homed at 1 points to a child homed at 2.
  Node child{nullptr, nullptr, 7};
  Node root{&child, nullptr, 0};
  view_.put(reinterpret_cast<std::uint64_t>(&root),
            {{1, reinterpret_cast<std::uint64_t>(&root), node_}, &root, true});
  view_.put(reinterpret_cast<std::uint64_t>(&child),
            {{2, reinterpret_cast<std::uint64_t>(&child), node_}, &child, true});
  ClosurePacker packer(codec_, host_arch(), view_);
  const std::uint64_t roots[] = {reinterpret_cast<std::uint64_t>(&root)};
  auto packed = packer.pack(roots, 1 << 20, false);
  ASSERT_TRUE(packed.is_ok());
  EXPECT_EQ(packed.value().groups.size(), 2u);
  EXPECT_EQ(packed.value().groups.at(1).size(), 1u);
  EXPECT_EQ(packed.value().groups.at(2).size(), 1u);
}

TEST_F(ClosureTest, UnknownRootFailsOnlyWhenRequired) {
  ClosurePacker packer(codec_, host_arch(), view_);
  const std::uint64_t roots[] = {0xDEAD};
  auto lax = packer.pack(roots, 100, /*require_roots=*/false);
  ASSERT_TRUE(lax.is_ok());
  EXPECT_EQ(lax.value().objects, 0u);
  auto strict = packer.pack(roots, 100, /*require_roots=*/true);
  ASSERT_FALSE(strict.is_ok());
}

}  // namespace
}  // namespace srpc

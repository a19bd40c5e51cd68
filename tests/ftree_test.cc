// f-Tree structure tests: enumeration, counting DP, selection semantics,
// constant-delay property.
#include "executor/ftree.h"

#include <gtest/gtest.h>

#include "executor/flatblock.h"

namespace ges {
namespace {

// Builds the paper's Figure 7 tree:
//   root r: pId = [p1, p2]
//   child u: (comId, comLen) = [(c1,6), (c2,3), (c3,5), (c4,9)],
//            sel = [1,0,1,0], ranges: p1->[0,2), p2->[2,4)
//   child v: (postId, postLen) = [(m1,140), (m2,123), (m3,120)],
//            ranges: p1->[0,1), p2->[1,3)
class Figure7Tree : public ::testing::Test {
 protected:
  void SetUp() override {
    FTreeNode* r = tree_.CreateRoot();
    ValueVector pid(ValueType::kInt64);
    pid.AppendInt(1);
    pid.AppendInt(2);
    r->block.AddColumn("pId", std::move(pid));
    tree_.RegisterColumns(r);

    FTreeNode* u = tree_.AddChild(r);
    ValueVector com_id(ValueType::kInt64);
    ValueVector com_len(ValueType::kInt64);
    for (int i = 1; i <= 4; ++i) com_id.AppendInt(i);
    for (int l : {6, 3, 5, 9}) com_len.AppendInt(l);
    u->block.AddColumn("comId", std::move(com_id));
    u->block.AppendAlignedColumn("comLen", std::move(com_len));
    u->parent_index = {{0, 2}, {2, 4}};
    u->MutableSel() = {1, 0, 1, 0};
    tree_.RegisterColumns(u);

    FTreeNode* v = tree_.AddChild(r);
    ValueVector post_id(ValueType::kInt64);
    ValueVector post_len(ValueType::kInt64);
    for (int i = 1; i <= 3; ++i) post_id.AppendInt(i);
    for (int l : {140, 123, 120}) post_len.AppendInt(l);
    v->block.AddColumn("postId", std::move(post_id));
    v->block.AppendAlignedColumn("postLen", std::move(post_len));
    v->parent_index = {{0, 1}, {1, 3}};
    tree_.RegisterColumns(v);
  }

  FTree tree_;
};

TEST_F(Figure7Tree, CountTuplesMatchesPaper) {
  // R^1_r = {p1} x {c1} x {m1} = 1 tuple
  // R^2_r = {p2} x {c3} x {m2, m3} = 2 tuples
  EXPECT_EQ(tree_.CountTuples(), 3u);
}

TEST_F(Figure7Tree, FlattenProducesPaperTuples) {
  FlatBlock out;
  Schema s;
  for (const char* c : {"pId", "comId", "comLen", "postId", "postLen"}) {
    s.Add(c, ValueType::kInt64);
  }
  out = FlatBlock(s);
  tree_.Flatten({"pId", "comId", "comLen", "postId", "postLen"}, &out);
  ASSERT_EQ(out.NumRows(), 3u);
  // {p1, c1, 6, m1, 140}
  EXPECT_EQ(out.At(0, 0).AsInt(), 1);
  EXPECT_EQ(out.At(0, 1).AsInt(), 1);
  EXPECT_EQ(out.At(0, 2).AsInt(), 6);
  EXPECT_EQ(out.At(0, 3).AsInt(), 1);
  EXPECT_EQ(out.At(0, 4).AsInt(), 140);
  // {p2, c3, 5, m2, 123}
  EXPECT_EQ(out.At(1, 0).AsInt(), 2);
  EXPECT_EQ(out.At(1, 1).AsInt(), 3);
  EXPECT_EQ(out.At(1, 4).AsInt(), 123);
  // {p2, c3, 5, m3, 120}
  EXPECT_EQ(out.At(2, 3).AsInt(), 3);
  EXPECT_EQ(out.At(2, 4).AsInt(), 120);
}

TEST_F(Figure7Tree, FlattenHonorsLimit) {
  Schema s;
  s.Add("pId", ValueType::kInt64);
  FlatBlock out(s);
  tree_.Flatten({"pId"}, &out, 2);
  EXPECT_EQ(out.NumRows(), 2u);
}

TEST_F(Figure7Tree, TupleCountsForLeafNode) {
  // Multiplicities of v's rows: m1 used once (under p1/c1); m2, m3 once
  // each (under p2/c3).
  const FTreeNode* v = tree_.NodeOfColumn("postId");
  std::vector<uint64_t> counts = tree_.TupleCountsForNode(v);
  EXPECT_EQ(counts, (std::vector<uint64_t>{1, 1, 1}));
}

TEST_F(Figure7Tree, TupleCountsForRoot) {
  const FTreeNode* r = tree_.NodeOfColumn("pId");
  std::vector<uint64_t> counts = tree_.TupleCountsForNode(r);
  EXPECT_EQ(counts, (std::vector<uint64_t>{1, 2}));
}

// A pointer-join leaf (lazy segments read straight from adjacency lists)
// under a filtered parent: the shape IC5 counts over. The leaf has no
// selection vector, so the count DP weighs its ranges by their length.
TEST(FTreeEdge, LazyLeafUnderFilteredParentMatchesEnumerator) {
  static const VertexId kPosts[] = {10, 11, 12, 13, 14, 15};
  FTree tree;
  FTreeNode* r = tree.CreateRoot();
  ValueVector pid(ValueType::kInt64);
  pid.AppendInt(1);
  pid.AppendInt(2);
  r->block.AddColumn("p", std::move(pid));
  tree.RegisterColumns(r);

  FTreeNode* forum = tree.AddChild(r);
  ValueVector fid(ValueType::kInt64);
  for (int i = 0; i < 4; ++i) fid.AppendInt(100 + i);
  forum->block.AddColumn("forum", std::move(fid));
  forum->parent_index = {{0, 3}, {3, 4}};
  forum->MutableSel() = {1, 0, 1, 1};
  tree.RegisterColumns(forum);

  // Forum rows 0..3 own 2, 1, 0 and 3 posts.
  FTreeNode* post = tree.AddChild(forum);
  post->block.InitLazy("post");
  post->block.AppendSegment(AdjSpan{kPosts, nullptr, 2});
  post->block.AppendSegment(AdjSpan{kPosts + 2, nullptr, 1});
  post->block.AppendSegment(AdjSpan{kPosts + 3, nullptr, 0});
  post->block.AppendSegment(AdjSpan{kPosts + 3, nullptr, 3});
  post->parent_index = {{0, 2}, {2, 3}, {3, 3}, {3, 6}};
  tree.RegisterColumns(post);

  // Valid tuples: (1, 100, 10..11) and (2, 103, 13..15); forum 101 is
  // filtered out and forum 102 has no post.
  EXPECT_EQ(tree.CountTuples(), 5u);
  EXPECT_EQ(tree.TupleCountsForNode(forum),
            (std::vector<uint64_t>{2, 0, 0, 3}));
  for (const FTreeNode* target : tree.Preorder()) {
    std::vector<uint64_t> observed(target->block.NumRows(), 0);
    uint64_t enumerated = 0;
    TupleEnumerator e(tree);
    while (e.Next()) {
      ++observed[e.RowOf(target)];
      ++enumerated;
    }
    EXPECT_EQ(tree.CountTuples(), enumerated);
    EXPECT_EQ(tree.TupleCountsForNode(target), observed);
  }
}

TEST_F(Figure7Tree, SelectionInvalidatesSubtreeTuples) {
  // Invalidate p2: only the single p1 tuple remains.
  FTreeNode* r = tree_.NodeOfColumn("pId");
  r->MutableSel()[1] = 0;
  EXPECT_EQ(tree_.CountTuples(), 1u);
}

TEST_F(Figure7Tree, EmptyChildRangeDropsParentRow) {
  // Invalidate every comment of p1: p1 has zero tuples (Cartesian product
  // with the empty set), leaving only p2's two tuples.
  FTreeNode* u = tree_.NodeOfColumn("comId");
  u->MutableSel()[0] = 0;
  EXPECT_EQ(tree_.CountTuples(), 2u);
}

TEST_F(Figure7Tree, EnumeratorVisitsEachTupleOnce) {
  TupleEnumerator e(tree_);
  int n = 0;
  while (e.Next()) ++n;
  EXPECT_EQ(n, 3);
  EXPECT_FALSE(e.Next());  // stays exhausted
}

TEST(FTreeEdge, SingleNodeTree) {
  FTree tree;
  FTreeNode* r = tree.CreateRoot();
  ValueVector ids(ValueType::kInt64);
  for (int i = 0; i < 5; ++i) ids.AppendInt(i);
  r->block.AddColumn("x", std::move(ids));
  tree.RegisterColumns(r);
  EXPECT_EQ(tree.CountTuples(), 5u);
  r->MutableSel() = {1, 0, 1, 0, 1};
  EXPECT_EQ(tree.CountTuples(), 3u);
}

TEST(FTreeEdge, EmptyRootEncodesNothing) {
  FTree tree;
  FTreeNode* r = tree.CreateRoot();
  ValueVector ids(ValueType::kInt64);
  r->block.AddColumn("x", std::move(ids));
  tree.RegisterColumns(r);
  EXPECT_EQ(tree.CountTuples(), 0u);
  TupleEnumerator e(tree);
  EXPECT_FALSE(e.Next());
}

TEST(FTreeEdge, DeepChain) {
  // Chain of 4 nodes, each row mapping to 2 child rows: 1*2*2*2 = 8 tuples
  // from a single root row.
  FTree tree;
  FTreeNode* prev = tree.CreateRoot();
  {
    ValueVector ids(ValueType::kInt64);
    ids.AppendInt(0);
    prev->block.AddColumn("c0", std::move(ids));
    tree.RegisterColumns(prev);
  }
  size_t prev_rows = 1;
  for (int depth = 1; depth <= 3; ++depth) {
    FTreeNode* child = tree.AddChild(prev);
    size_t rows = prev_rows * 2;
    ValueVector ids(ValueType::kInt64);
    for (size_t i = 0; i < rows; ++i) ids.AppendInt(static_cast<int>(i));
    child->block.AddColumn("c" + std::to_string(depth), std::move(ids));
    child->parent_index.resize(prev_rows);
    for (size_t i = 0; i < prev_rows; ++i) {
      child->parent_index[i] = IndexRange{2 * i, 2 * i + 2};
    }
    tree.RegisterColumns(child);
    prev = child;
    prev_rows = rows;
  }
  EXPECT_EQ(tree.CountTuples(), 8u);
  TupleEnumerator e(tree);
  int n = 0;
  while (e.Next()) ++n;
  EXPECT_EQ(n, 8);
}

// Constant-delay enumeration (Lemma 4.4): the per-tuple work of Flatten is
// bounded by the schema size, independent of tuple count. We check the
// weaker observable property that flattening N tuples touches exactly N
// rows and visited cells scale linearly.
TEST(FTreeProperty, EnumerationLinearInOutput) {
  for (int width : {2, 8, 32, 128}) {
    FTree tree;
    FTreeNode* r = tree.CreateRoot();
    ValueVector ids(ValueType::kInt64);
    ids.AppendInt(0);
    r->block.AddColumn("root", std::move(ids));
    tree.RegisterColumns(r);
    FTreeNode* child = tree.AddChild(r);
    ValueVector cids(ValueType::kInt64);
    for (int i = 0; i < width; ++i) cids.AppendInt(i);
    child->block.AddColumn("leaf", std::move(cids));
    child->parent_index = {{0, static_cast<uint64_t>(width)}};
    tree.RegisterColumns(child);

    EXPECT_EQ(tree.CountTuples(), static_cast<uint64_t>(width));
    Schema s;
    s.Add("root", ValueType::kInt64);
    s.Add("leaf", ValueType::kInt64);
    FlatBlock out(s);
    tree.Flatten({"root", "leaf"}, &out);
    EXPECT_EQ(out.NumRows(), static_cast<size_t>(width));
  }
}

}  // namespace
}  // namespace ges

// f-Block tests: materialized and lazy (pointer-based join) flavors.
#include "executor/fblock.h"

#include <gtest/gtest.h>

namespace ges {
namespace {

TEST(FBlockTest, MaterializedColumns) {
  FBlock b;
  ValueVector ids(ValueType::kVertex);
  for (VertexId v = 10; v < 15; ++v) ids.AppendVertex(v);
  b.AddColumn("v", std::move(ids));
  ValueVector props(ValueType::kInt64);
  for (int i = 0; i < 5; ++i) props.AppendInt(i * 100);
  b.AppendAlignedColumn("p", std::move(props));

  EXPECT_EQ(b.NumRows(), 5u);
  EXPECT_FALSE(b.lazy());
  EXPECT_EQ(b.schema().IndexOf("v"), 0);
  EXPECT_EQ(b.schema().IndexOf("p"), 1);
  EXPECT_EQ(b.VertexAt(3), 13u);
  EXPECT_EQ(b.GetValue(2, 1), Value::Int(200));
}

class LazyFBlockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two segments over two backing arrays, with stamps on the first.
    block_.InitLazy("n");
    block_.AppendSegment(AdjSpan{arr1_, stamps1_, 3});
    block_.AppendSegment(AdjSpan{arr2_, nullptr, 2});
  }

  VertexId arr1_[3] = {5, 6, 7};
  int64_t stamps1_[3] = {50, 60, 70};
  VertexId arr2_[2] = {8, 9};
  FBlock block_;
};

TEST_F(LazyFBlockTest, LogicalRowsSpanSegments) {
  EXPECT_TRUE(block_.lazy());
  EXPECT_EQ(block_.NumRows(), 5u);
  EXPECT_EQ(block_.NumSegments(), 2u);
  EXPECT_EQ(block_.VertexAt(0), 5u);
  EXPECT_EQ(block_.VertexAt(2), 7u);
  EXPECT_EQ(block_.VertexAt(3), 8u);
  EXPECT_EQ(block_.VertexAt(4), 9u);
  // Random access order (exercises the segment cursor cache).
  EXPECT_EQ(block_.VertexAt(4), 9u);
  EXPECT_EQ(block_.VertexAt(0), 5u);
  EXPECT_EQ(block_.VertexAt(3), 8u);
}

TEST_F(LazyFBlockTest, StampsResolvePerSegment) {
  EXPECT_EQ(block_.StampAt(1), 60);
  EXPECT_EQ(block_.StampAt(3), 0);  // segment without stamps
}

TEST_F(LazyFBlockTest, GetValueOnLazyLeadingColumn) {
  EXPECT_EQ(block_.GetValue(1, 0), Value::Vertex(6));
}

TEST_F(LazyFBlockTest, AlignedColumnsCoexistWithLazyIds) {
  ValueVector extra(ValueType::kInt64);
  for (int i = 0; i < 5; ++i) extra.AppendInt(i);
  block_.AppendAlignedColumn("x", std::move(extra));
  EXPECT_EQ(block_.GetValue(4, 1), Value::Int(4));
  EXPECT_EQ(block_.GetValue(4, 0), Value::Vertex(9));
}

TEST_F(LazyFBlockTest, MaterializeCopiesIdsAndKeepsAlignment) {
  ValueVector extra(ValueType::kInt64);
  for (int i = 0; i < 5; ++i) extra.AppendInt(i * 2);
  block_.AppendAlignedColumn("x", std::move(extra));

  block_.Materialize();
  EXPECT_FALSE(block_.lazy());
  EXPECT_EQ(block_.NumRows(), 5u);
  EXPECT_EQ(block_.VertexAt(3), 8u);
  EXPECT_EQ(block_.GetValue(3, 1), Value::Int(6));
  // Idempotent.
  block_.Materialize();
  EXPECT_EQ(block_.NumRows(), 5u);
}

TEST_F(LazyFBlockTest, MemoryIsSegmentsNotData) {
  // The lazy block's footprint is bounded by segment metadata, far below
  // the materialized id column for large adjacency lists.
  size_t lazy_bytes = block_.MemoryBytes();
  block_.Materialize();
  EXPECT_GE(block_.MemoryBytes(), 5 * sizeof(int64_t));
  EXPECT_LT(lazy_bytes, 1000u);
}

TEST(FBlockEdge, EmptyLazyBlock) {
  FBlock b;
  b.InitLazy("n");
  EXPECT_EQ(b.NumRows(), 0u);
  b.Materialize();
  EXPECT_EQ(b.NumRows(), 0u);
}

}  // namespace
}  // namespace ges

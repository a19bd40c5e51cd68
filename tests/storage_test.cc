// Unit tests for the storage layer: catalog, adjacency arrays, property
// tables, graph bulk load and reads.
#include <gtest/gtest.h>

#include "storage/adjacency.h"
#include "storage/catalog.h"
#include "storage/graph.h"
#include "storage/property_store.h"
#include "tests/test_util.h"

namespace ges {
namespace {

TEST(CatalogTest, LabelsAndPropertiesRoundTrip) {
  Catalog c;
  LabelId person = c.AddVertexLabel("PERSON");
  LabelId post = c.AddVertexLabel("POST");
  LabelId knows = c.AddEdgeLabel("KNOWS");
  EXPECT_EQ(c.VertexLabel("PERSON"), person);
  EXPECT_EQ(c.VertexLabel("POST"), post);
  EXPECT_EQ(c.EdgeLabel("KNOWS"), knows);
  EXPECT_EQ(c.VertexLabel("NOPE"), kInvalidLabel);
  EXPECT_EQ(c.VertexLabelName(person), "PERSON");

  PropertyId name = c.AddProperty(person, "name", ValueType::kString);
  PropertyId age = c.AddProperty(person, "age", ValueType::kInt64);
  // Same property name on another label shares the id but gets its own slot.
  PropertyId name2 = c.AddProperty(post, "name", ValueType::kString);
  EXPECT_EQ(name, name2);
  EXPECT_EQ(c.PropertySlot(person, name), 0);
  EXPECT_EQ(c.PropertySlot(person, age), 1);
  EXPECT_EQ(c.PropertySlot(post, name), 0);
  EXPECT_EQ(c.PropertySlot(post, age), -1);
  EXPECT_EQ(c.PropertyType(person, age), ValueType::kInt64);
}

TEST(CatalogTest, ReregistrationIsIdempotent) {
  Catalog c;
  LabelId a = c.AddVertexLabel("A");
  EXPECT_EQ(c.AddVertexLabel("A"), a);
  PropertyId p = c.AddProperty(a, "x", ValueType::kInt64);
  EXPECT_EQ(c.AddProperty(a, "x", ValueType::kInt64), p);
  EXPECT_EQ(c.LabelProperties(a).size(), 1u);
}

TEST(AdjacencyTest, BulkBuildPacksPerVertex) {
  AdjacencyTable t(RelationKey{0, 0, 0, Direction::kOut}, false);
  t.StageEdge(0, 1);
  t.StageEdge(0, 2);
  t.StageEdge(2, 0);
  t.Finalize(3);
  EXPECT_EQ(t.num_edges(), 3u);
  EXPECT_EQ(t.num_sources(), 2u);
  AdjSpan s0 = t.csr()->NeighborsAt(0);
  ASSERT_EQ(s0.size, 2u);
  EXPECT_EQ(s0.ids[0], 1u);
  EXPECT_EQ(s0.ids[1], 2u);
  EXPECT_EQ(t.csr()->NeighborsAt(1).size, 0u);
  EXPECT_EQ(t.csr()->NeighborsAt(2).size, 1u);
  EXPECT_EQ(t.csr()->NeighborsAt(99).size, 0u);  // out of range: empty
}

TEST(AdjacencyTest, StampsTravelWithNeighbors) {
  AdjacencyTable t(RelationKey{0, 0, 0, Direction::kOut}, true);
  t.StageEdge(0, 5, 111);
  t.StageEdge(0, 6, 222);
  t.Finalize(1);
  AdjSpan s = t.csr()->NeighborsAt(0);
  ASSERT_EQ(s.size, 2u);
  ASSERT_NE(s.stamps, nullptr);
  EXPECT_EQ(s.stamps[0], 111);
  EXPECT_EQ(s.stamps[1], 222);
}

// One label N with `n` bulk vertices and a self relation E, no edges.
struct EmptyGraph {
  Graph g;
  LabelId node, e;
  RelationId out, in;
  std::vector<VertexId> v;

  explicit EmptyGraph(int n) {
    node = g.catalog().AddVertexLabel("N");
    e = g.catalog().AddEdgeLabel("E");
    g.RegisterRelation(node, e, node);
    for (int i = 0; i < n; ++i) v.push_back(g.AddVertexBulk(node, i));
    g.FinalizeBulk();
    out = g.FindRelation(node, e, node, Direction::kOut);
    in = g.FindRelation(node, e, node, Direction::kIn);
  }

  void CommitEdge(VertexId src, VertexId dst) {
    auto txn = g.BeginWrite({src, dst});
    ASSERT_TRUE(txn->AddEdge(e, src, dst).ok());
    ASSERT_NE(txn->Commit(), 0u);
  }
};

// Post-load inserts go to the MVCC overlay, never into the immutable base:
// inserts in scrambled order still read back as one sorted list.
TEST(AdjacencyTest, OverlayInsertsKeepSortedOrder) {
  EmptyGraph eg(101);
  for (int i = 0; i < 100; ++i) {
    eg.CommitEdge(eg.v[0], eg.v[1 + (i * 37) % 100]);
  }
  Version now = eg.g.CurrentVersion();
  AdjSpan s = eg.g.Neighbors(eg.out, eg.v[0], now);
  ASSERT_EQ(s.size, 100u);
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(s.ids[i], eg.v[1 + i]);
  EXPECT_EQ(eg.g.Degree(eg.out, eg.v[0], now), 100u);
  for (int i = 1; i <= 100; ++i) {
    EXPECT_EQ(eg.g.Degree(eg.in, eg.v[i], now), 1u);
  }
  // The bulk snapshot still sees the empty base list.
  EXPECT_EQ(eg.g.Degree(eg.out, eg.v[0], 0), 0u);
}

// A removal publishes a shorter, tombstone-free list; older snapshots keep
// the edge, and removing an absent edge leaves the list unchanged.
TEST(AdjacencyTest, OverlayRemoveDropsEdge) {
  Graph g;
  LabelId node = g.catalog().AddVertexLabel("N");
  LabelId e = g.catalog().AddEdgeLabel("E");
  g.RegisterRelation(node, e, node);
  std::vector<VertexId> v;
  for (int i = 0; i < 10; ++i) v.push_back(g.AddVertexBulk(node, i));
  g.AddEdgeBulk(e, v[0], v[1]);
  g.AddEdgeBulk(e, v[0], v[2]);
  g.FinalizeBulk();
  RelationId out = g.FindRelation(node, e, node, Direction::kOut);

  auto txn = g.BeginWrite({v[0], v[1]});
  ASSERT_TRUE(txn->RemoveEdge(e, v[0], v[1]).ok());
  Version removed = txn->Commit();
  ASSERT_NE(removed, 0u);
  AdjSpan s = g.Neighbors(out, v[0], removed);
  ASSERT_EQ(s.size, 1u);
  EXPECT_EQ(s.ids[0], v[2]);
  EXPECT_EQ(g.Degree(out, v[0], removed), 1u);
  EXPECT_EQ(g.Degree(out, v[0], 0), 2u);

  txn = g.BeginWrite({v[0], v[9]});
  ASSERT_TRUE(txn->RemoveEdge(e, v[0], v[9]).ok());
  Version noop = txn->Commit();
  ASSERT_NE(noop, 0u);
  s = g.Neighbors(out, v[0], noop);
  ASSERT_EQ(s.size, 1u);
  EXPECT_EQ(s.ids[0], v[2]);
}

// A vertex created after bulk load is outside every base CSR; its edges
// live only in the overlay.
TEST(AdjacencyTest, InsertIntoNewVertexAfterFinalize) {
  EmptyGraph eg(2);
  auto txn = eg.g.BeginWrite({eg.v[1]});
  VertexId fresh = txn->CreateVertex(eg.node, 5, {});
  ASSERT_TRUE(txn->AddEdge(eg.e, fresh, eg.v[1]).ok());
  Version now = txn->Commit();
  ASSERT_NE(now, 0u);
  ASSERT_GE(fresh, eg.g.bulk_vertex_count());
  AdjSpan s = eg.g.Neighbors(eg.out, fresh, now);
  ASSERT_EQ(s.size, 1u);
  EXPECT_EQ(s.ids[0], eg.v[1]);
  EXPECT_EQ(eg.g.Degree(eg.in, eg.v[1], now), 1u);
  EXPECT_EQ(eg.g.Neighbors(eg.out, fresh, 0).size, 0u);
}

// Each base table indexes only its source label: its footprint follows
// that label's size plus its edges, not the graph's vertex count.
TEST(AdjacencyTest, MemoryScalesWithSourceLabelNotGraph) {
  constexpr int kBig = 20000, kSmall = 8;
  Graph g;
  LabelId big = g.catalog().AddVertexLabel("BIG");
  LabelId small = g.catalog().AddVertexLabel("SMALL");
  LabelId ring = g.catalog().AddEdgeLabel("RING");
  LabelId to = g.catalog().AddEdgeLabel("TO");
  g.RegisterRelation(small, ring, small);
  g.RegisterRelation(big, to, small);
  std::vector<VertexId> bigs, smalls;
  for (int i = 0; i < kBig; ++i) bigs.push_back(g.AddVertexBulk(big, i));
  for (int i = 0; i < kSmall; ++i) smalls.push_back(g.AddVertexBulk(small, i));
  for (int i = 0; i < kSmall; ++i) {
    g.AddEdgeBulk(ring, smalls[i], smalls[(i + 1) % kSmall]);
  }
  g.AddEdgeBulk(to, bigs[0], smalls[0]);
  g.FinalizeBulk();

  // Neither label has properties, so the label-local offsets cannot come
  // from property rows; every vertex must still find its own list.
  for (int i = 0; i < kSmall; ++i) {
    AdjSpan s = g.Neighbors(g.FindRelation(small, ring, small, Direction::kOut),
                            smalls[i], 0);
    ASSERT_EQ(s.size, 1u) << "small " << i;
    EXPECT_EQ(s.ids[0], smalls[(i + 1) % kSmall]);
  }
  EXPECT_EQ(g.Degree(g.FindRelation(big, to, small, Direction::kOut), bigs[0],
                     0),
            1u);
  EXPECT_EQ(g.Degree(g.FindRelation(big, to, small, Direction::kOut), bigs[1],
                     0),
            0u);

  // (|source label| + 1) u32 offsets plus one neighbor id per edge.
  auto csr_bytes = [](size_t sources, size_t edges) {
    return (sources + 1) * sizeof(uint32_t) + edges * sizeof(VertexId);
  };
  for (Direction d : {Direction::kOut, Direction::kIn}) {
    EXPECT_EQ(g.RelationMemoryBytes(g.FindRelation(small, ring, small, d)),
              csr_bytes(kSmall, kSmall));
  }
  // BIG -> SMALL: the OUT table is indexed by BIG, the IN table by SMALL.
  EXPECT_EQ(g.RelationMemoryBytes(
                g.FindRelation(big, to, small, Direction::kOut)),
            csr_bytes(kBig, 1));
  EXPECT_EQ(g.RelationMemoryBytes(
                g.FindRelation(small, to, big, Direction::kIn)),
            csr_bytes(kSmall, 1));
}

TEST(PropertyTableTest, AppendAndAccess) {
  StringDict dict;
  PropertyTable t({ValueType::kInt64, ValueType::kString}, &dict);
  size_t r0 = t.AppendRow();
  size_t r1 = t.AppendRow();
  EXPECT_EQ(r0, 0u);
  EXPECT_EQ(r1, 1u);
  t.Set(0, 0, Value::Int(10));
  t.Set(0, 1, Value::String("x"));
  t.Set(1, 0, Value::Int(20));
  EXPECT_EQ(t.Get(0, 0), Value::Int(10));
  EXPECT_EQ(t.Get(0, 1), Value::String("x"));
  EXPECT_EQ(t.Get(1, 0), Value::Int(20));
  EXPECT_EQ(t.num_rows(), 2u);
  // String cells are dictionary codes; the unset row decodes to "".
  EXPECT_TRUE(t.Column(1).dict_encoded());
  EXPECT_EQ(t.Column(1).GetCode(0), dict.Find("x"));
  EXPECT_EQ(t.Get(1, 1), Value::String(""));
}

TEST(GraphTest, BulkLoadAndSnapshotReads) {
  testutil::TinyGraph tiny;
  Graph& g = *tiny.graph;
  Version v = g.CurrentVersion();
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(g.NumVertices(tiny.person, v), 4u);
  EXPECT_EQ(g.NumVertices(tiny.message, v), 6u);

  // p0 knows p1, p2.
  AdjSpan s = g.Neighbors(tiny.knows_out, tiny.persons[0], v);
  ASSERT_EQ(s.size, 2u);
  EXPECT_EQ(s.ids[0], tiny.persons[1]);
  EXPECT_EQ(s.ids[1], tiny.persons[2]);

  // p3 created m3, m4, m5 (via IN table).
  AdjSpan msgs = g.Neighbors(tiny.person_messages, tiny.persons[3], v);
  EXPECT_EQ(msgs.size, 3u);

  EXPECT_EQ(g.GetProperty(tiny.messages[0], tiny.len, v), Value::Int(140));
  EXPECT_EQ(g.LabelOf(tiny.messages[0], v), tiny.message);
  EXPECT_EQ(g.FindByExtId(tiny.person, 2, v), tiny.persons[2]);
  EXPECT_EQ(g.FindByExtId(tiny.person, 99, v), kInvalidVertex);
}

TEST(GraphTest, ScanLabel) {
  testutil::TinyGraph tiny;
  std::vector<VertexId> out;
  tiny.graph->ScanLabel(tiny.person, 0, &out);
  EXPECT_EQ(out, tiny.persons);
}

TEST(GraphTest, RelationResolution) {
  testutil::TinyGraph tiny;
  // Both directions resolvable; mismatched labels are not.
  EXPECT_NE(tiny.graph->FindRelation(tiny.person, tiny.knows, tiny.person,
                                     Direction::kOut),
            kInvalidRelation);
  EXPECT_NE(tiny.graph->FindRelation(tiny.person, tiny.knows, tiny.person,
                                     Direction::kIn),
            kInvalidRelation);
  EXPECT_EQ(tiny.graph->FindRelation(tiny.message, tiny.knows, tiny.person,
                                     Direction::kOut),
            kInvalidRelation);
}

TEST(GraphTest, EdgeCountReportsLogicalEdges) {
  testutil::TinyGraph tiny;
  // 6 has_creator + 8 knows (4 symmetric pairs) = 14 logical edges.
  EXPECT_EQ(tiny.graph->NumEdgesTotal(), 14u);
}

// The label check in the base lookup: a vertex of another label has the
// same dense offset as some source-label vertex, and must not read its list;
// a post-bulk vertex has no offset at all.
TEST(GraphTest, BaseNeighborsEmptyForOtherLabelAndNewVertex) {
  testutil::TinyGraph tiny;
  Graph& g = *tiny.graph;
  // messages[0] sits at offset 0 of MESSAGE, like persons[0] of PERSON,
  // and persons[0] has KNOWS edges; messages[1] created nothing.
  ASSERT_GT(g.Neighbors(tiny.knows_out, tiny.persons[0], 0).size, 0u);
  EXPECT_EQ(g.Neighbors(tiny.knows_out, tiny.messages[0], 0).size, 0u);
  EXPECT_EQ(g.Degree(tiny.knows_out, tiny.messages[0], 0), 0u);
  ASSERT_GT(g.Neighbors(tiny.msg_creator, tiny.messages[1], 0).size, 0u);
  EXPECT_EQ(g.Neighbors(tiny.msg_creator, tiny.persons[1], 0).size, 0u);

  auto txn = g.BeginWrite({});
  VertexId fresh = txn->CreateVertex(tiny.person, 100, {});
  Version now = txn->Commit();
  ASSERT_NE(now, 0u);
  EXPECT_EQ(g.Neighbors(tiny.knows_out, fresh, now).size, 0u);
  EXPECT_EQ(g.Degree(tiny.knows_out, fresh, now), 0u);
  EXPECT_EQ(g.Neighbors(tiny.msg_creator, fresh, now).size, 0u);
}

TEST(GraphTest, MemoryAccountingNonZero) {
  testutil::TinyGraph tiny;
  EXPECT_GT(tiny.graph->MemoryBytes(), 0u);
}

}  // namespace
}  // namespace ges

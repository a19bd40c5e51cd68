// Binary snapshot tests: save/load round trips, including committed MVCC
// state and query-level equivalence on the reloaded graph.
#include "storage/serialization.h"

#include <gtest/gtest.h>

#include <string>

#include "executor/executor.h"
#include "queries/ldbc.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::SortedRows;
using testutil::TinyGraph;

std::string Save(const Graph& g) {
  std::string image;
  Status s = SaveGraph(g, &image);
  EXPECT_TRUE(s.ok()) << s.message();
  return image;
}

TEST(SerializationTest, RoundTripTinyGraph) {
  TinyGraph tiny;
  Graph loaded;
  Status s = LoadGraph(Save(*tiny.graph), &loaded);
  ASSERT_TRUE(s.ok()) << s.message();

  EXPECT_EQ(loaded.NumVerticesTotal(), tiny.graph->NumVerticesTotal());
  EXPECT_EQ(loaded.NumEdgesTotal(), tiny.graph->NumEdgesTotal());
  // Catalog round-tripped.
  EXPECT_EQ(loaded.catalog().VertexLabel("PERSON"), tiny.person);
  EXPECT_EQ(loaded.catalog().EdgeLabel("KNOWS"), tiny.knows);
  // Properties preserved.
  Version v = loaded.CurrentVersion();
  VertexId m0 = loaded.FindByExtId(loaded.catalog().VertexLabel("MESSAGE"),
                                   0, v);
  ASSERT_NE(m0, kInvalidVertex);
  EXPECT_EQ(loaded.GetProperty(m0, loaded.catalog().Property("len"), v),
            Value::Int(140));
  // Adjacency with stamps preserved.
  RelationId knows = loaded.FindRelation(tiny.person, tiny.knows,
                                         tiny.person, Direction::kOut);
  VertexId p0 = loaded.FindByExtId(tiny.person, 0, v);
  AdjSpan span = loaded.Neighbors(knows, p0, v);
  ASSERT_EQ(span.size, 2u);
  ASSERT_NE(span.stamps, nullptr);
  EXPECT_EQ(span.stamps[0], 101);
}

TEST(SerializationTest, CapturesCommittedMvccState) {
  TinyGraph tiny;
  {
    auto txn = tiny.graph->BeginWrite({tiny.persons[0], tiny.persons[3]});
    ASSERT_TRUE(
        txn->AddEdge(tiny.knows, tiny.persons[0], tiny.persons[3], 777).ok());
    txn->SetProperty(tiny.messages[0], tiny.len, Value::Int(555));
    ASSERT_NE(txn->Commit(), 0u);
  }
  Graph loaded;
  ASSERT_TRUE(LoadGraph(Save(*tiny.graph), &loaded).ok());

  // The commit version is restored along with the state it produced.
  Version v = loaded.CurrentVersion();
  EXPECT_EQ(v, 1u);
  RelationId knows = loaded.FindRelation(tiny.person, tiny.knows,
                                         tiny.person, Direction::kOut);
  VertexId p0 = loaded.FindByExtId(tiny.person, 0, v);
  EXPECT_EQ(loaded.Degree(knows, p0, v), 3u);
  VertexId m0 = loaded.FindByExtId(loaded.catalog().VertexLabel("MESSAGE"),
                                   0, v);
  EXPECT_EQ(loaded.GetProperty(m0, loaded.catalog().Property("len"), v),
            Value::Int(555));
}

TEST(SerializationTest, LoadedGraphAnswersQueriesIdentically) {
  testutil::SnbFixture fx(0.01, 5);
  Graph loaded;
  Status s = LoadGraph(Save(fx.graph), &loaded);
  ASSERT_TRUE(s.ok()) << s.message();

  // Schema ids are reconstructed in the same order, so the same context
  // resolves against both graphs.
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  LdbcContext ctx2 = LdbcContext::Resolve(loaded, fx.data.schema);
  ParamGen gen(&fx.graph, &fx.data, 9);
  Executor exec(ExecMode::kFactorizedFused);
  for (int k : {1, 2, 5, 9}) {
    LdbcParams p = gen.Next();
    auto original =
        SortedRows(exec.Run(BuildIC(k, ctx, p), GraphView(&fx.graph)).table);
    auto reloaded =
        SortedRows(exec.Run(BuildIC(k, ctx2, p), GraphView(&loaded)).table);
    EXPECT_EQ(original, reloaded) << "IC" << k;
  }
}

TEST(SerializationTest, V2RoundTripsStringProperties) {
  // String values survive the dictionary-coded encoding (the subtags
  // GESSNAP2 introduced and GESSNAP4 keeps), including values written
  // through the MVCC overlay after finalize (inline subtag).
  Graph g;
  Catalog& c = g.catalog();
  LabelId node = c.AddVertexLabel("NODE");
  PropertyId id = c.AddProperty(node, "id", ValueType::kInt64);
  PropertyId name = c.AddProperty(node, "name", ValueType::kString);
  std::vector<VertexId> vs;
  for (int i = 0; i < 8; ++i) {
    VertexId v = g.AddVertexBulk(node, i);
    g.SetPropertyBulk(v, id, Value::Int(i));
    g.SetPropertyBulkString(v, name, i % 2 == 0 ? "even" : "odd");
    vs.push_back(v);
  }
  g.FinalizeBulk();
  {
    auto txn = g.BeginWrite({vs[0]});
    txn->SetProperty(vs[0], name, Value::String("overlay-only"));
    txn->Commit();
  }

  Graph loaded;
  Status s = LoadGraph(Save(g), &loaded);
  ASSERT_TRUE(s.ok()) << s.message();
  Version v = loaded.CurrentVersion();
  EXPECT_EQ(loaded.GetProperty(loaded.FindByExtId(node, 0, v), name, v),
            Value::String("overlay-only"));
  EXPECT_EQ(loaded.GetProperty(loaded.FindByExtId(node, 1, v), name, v),
            Value::String("odd"));
  EXPECT_EQ(loaded.GetProperty(loaded.FindByExtId(node, 2, v), name, v),
            Value::String("even"));
}

TEST(SerializationTest, RejectsGarbage) {
  Graph g;
  EXPECT_FALSE(LoadGraph("definitely not a snapshot", &g).ok());
}

TEST(SerializationTest, RejectsTruncatedSnapshot) {
  TinyGraph tiny;
  std::string bytes = Save(*tiny.graph);
  Graph g;
  EXPECT_FALSE(LoadGraph(bytes.substr(0, bytes.size() / 2), &g).ok());
}

TEST(SerializationTest, RejectsUnfinalizedGraph) {
  Graph g;
  g.catalog().AddVertexLabel("X");
  std::string image;
  EXPECT_FALSE(SaveGraph(g, &image).ok());
}

}  // namespace
}  // namespace ges

// Property-based storage tests: random bulk graphs round-trip through the
// adjacency tables; incremental inserts/removes through write transactions
// preserve invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/adjacency.h"
#include "storage/graph.h"

namespace ges {
namespace {

class AdjacencyRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(AdjacencyRandomTest, BulkBuildMatchesEdgeList) {
  Rng rng(GetParam() * 2654435761u + 1);
  size_t n = 1 + rng.Uniform(200);
  size_t m = rng.Uniform(1000);
  AdjacencyTable table(RelationKey{0, 0, 0, Direction::kOut},
                       /*has_stamp=*/true);
  // Source offsets are label-local; this table's label has `n` vertices.
  std::multimap<VertexId, std::pair<VertexId, int64_t>> expected;
  for (size_t e = 0; e < m; ++e) {
    VertexId src = rng.Uniform(n);
    VertexId dst = rng.Uniform(n);
    int64_t stamp = static_cast<int64_t>(rng.Uniform(1u << 20));
    table.StageEdge(src, dst, stamp);
    expected.emplace(src, std::make_pair(dst, stamp));
  }
  table.Finalize(n);
  EXPECT_EQ(table.num_edges(), m);

  // Every vertex's span reproduces its staged edges, sorted by neighbor id
  // (the sorted-adjacency invariant) with stamps stably reordered alongside.
  for (VertexId v = 0; v < n; ++v) {
    AdjSpan span = table.csr()->NeighborsAt(v);
    auto [lo, hi] = expected.equal_range(v);
    size_t count = static_cast<size_t>(std::distance(lo, hi));
    ASSERT_EQ(span.size, count) << "vertex " << v;
    // Staged pairs stably sorted by dst = what Finalize must produce.
    std::vector<std::pair<VertexId, int64_t>> want;
    for (auto it = lo; it != hi; ++it) want.push_back(it->second);
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(span.ids[i], want[i].first);
      EXPECT_EQ(span.stamps[i], want[i].second);
    }
  }
}

// Post-load updates take the production path — WriteTxn commits publish
// copy-on-write overlay lists — and Graph::Neighbors must keep the live
// multiset, the sorted order, the degree and the edge count in step.
TEST_P(AdjacencyRandomTest, IncrementalInsertsAndRemoves) {
  Rng rng(GetParam() * 40503 + 7);
  Graph g;
  LabelId node = g.catalog().AddVertexLabel("N");
  LabelId e = g.catalog().AddEdgeLabel("E");
  g.RegisterRelation(node, e, node);
  std::vector<VertexId> v;
  for (int i = 0; i < 64; ++i) v.push_back(g.AddVertexBulk(node, i));
  g.FinalizeBulk();
  RelationId out = g.FindRelation(node, e, node, Direction::kOut);
  RelationId in = g.FindRelation(node, e, node, Direction::kIn);

  const VertexId src = v[3];
  std::multiset<VertexId> live;
  for (int step = 0; step < 400; ++step) {
    const bool insert = live.empty() || rng.Bernoulli(0.7);
    const VertexId dst = insert ? v[rng.Uniform(64)] : *live.begin();
    auto txn = g.BeginWrite({src, dst});
    ASSERT_TRUE((insert ? txn->AddEdge(e, src, dst)
                        : txn->RemoveEdge(e, src, dst))
                    .ok());
    Version now = txn->Commit();
    ASSERT_NE(now, 0u);
    if (insert) {
      live.insert(dst);
    } else {
      live.erase(live.begin());
    }
    ASSERT_EQ(g.Degree(out, src, now), live.size());
  }
  Version now = g.CurrentVersion();
  // The span is exactly the live multiset, as a plain sorted array (the
  // galloping primitives depend on this).
  AdjSpan span = g.Neighbors(out, src, now);
  EXPECT_TRUE(std::is_sorted(span.ids, span.ids + span.size));
  EXPECT_EQ(std::multiset<VertexId>(span.ids, span.ids + span.size), live);
  // Edge count: the reverse direction holds the same edges.
  size_t in_edges = 0;
  for (VertexId w : v) {
    AdjSpan back = g.Neighbors(in, w, now);
    for (uint32_t i = 0; i < back.size; ++i) {
      EXPECT_EQ(back.ids[i], src);
      ++in_edges;
    }
  }
  EXPECT_EQ(in_edges, live.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdjacencyRandomTest, ::testing::Range(0, 10));

// Random MV2PL write batches keep per-snapshot degree history consistent.
TEST(MvccPropertyTest, DegreeHistoryPerSnapshot) {
  Graph g;
  LabelId node = g.catalog().AddVertexLabel("N");
  LabelId e = g.catalog().AddEdgeLabel("E");
  g.catalog().AddProperty(node, "id", ValueType::kInt64);
  g.RegisterRelation(node, e, node);
  std::vector<VertexId> v;
  for (int i = 0; i < 10; ++i) v.push_back(g.AddVertexBulk(node, i));
  g.FinalizeBulk();
  RelationId rel = g.FindRelation(node, e, node, Direction::kOut);

  Rng rng(99);
  // history[k] = expected degree of v[0] at version k.
  std::vector<uint32_t> history{0};
  uint32_t degree = 0;
  for (int step = 0; step < 60; ++step) {
    bool remove = degree > 0 && rng.Bernoulli(0.3);
    if (remove) {
      // Pick an existing neighbor from the latest snapshot, then remove it.
      AdjSpan span = g.Neighbors(rel, v[0], g.CurrentVersion());
      ASSERT_GT(span.size, 0u);
      const VertexId target = span.ids[span.size - 1];
      auto txn = g.BeginWrite({v[0], target});
      ASSERT_TRUE(txn->RemoveEdge(e, v[0], target).ok());
      txn->Commit();
      --degree;
    } else {
      VertexId other = v[1 + rng.Uniform(9)];
      auto txn = g.BeginWrite({v[0], other});
      ASSERT_TRUE(txn->AddEdge(e, v[0], other).ok());
      txn->Commit();
      ++degree;
    }
    history.push_back(degree);
  }
  // Every historical snapshot still answers with its own degree.
  for (Version ver = 0; ver < history.size(); ++ver) {
    EXPECT_EQ(g.Degree(rel, v[0], ver), history[ver]) << "version " << ver;
  }
}

}  // namespace
}  // namespace ges

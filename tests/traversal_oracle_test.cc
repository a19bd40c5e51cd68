// Reference tests for the traversals that run on per-thread BFS state:
// CollectNeighbors (every engine's multi-hop Expand) against a naive BFS,
// and the IC13/IC14 procedures against the hash-map procedures they
// replaced, on the SNB fixtures and on a hand-built graph whose shortest
// paths outnumber IC14's cap.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"
#include "executor/executor.h"
#include "queries/ldbc.h"
#include "runtime/scheduler.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::SnbFixture;

// ---------------------------------------------------------------------------
// CollectNeighbors
// ---------------------------------------------------------------------------

struct Neighbors {
  std::vector<std::pair<VertexId, int>> out;
  std::vector<int64_t> stamps;
  bool operator==(const Neighbors& o) const {
    return out == o.out && stamps == o.stamps;
  }
};

// FIFO BFS over std containers: the output order CollectNeighbors must
// keep (adjacency order for 1-hop non-distinct, discovery order else).
Neighbors NaiveCollect(const GraphView& view,
                       const std::vector<RelationId>& rels, VertexId src,
                       int min_hops, int max_hops, bool distinct,
                       bool exclude_start) {
  Neighbors n;
  AdjScratch adj;  // each span is consumed before the next fetch
  auto emit = [&](const AdjSpan& span, uint32_t i, int d) {
    n.out.emplace_back(span.ids[i], d);
    n.stamps.push_back(span.stamps == nullptr ? 0 : span.stamps[i]);
  };
  if (max_hops == 1 && !distinct) {
    for (RelationId rel : rels) {
      AdjSpan span = view.Neighbors(rel, src, &adj);
      for (uint32_t i = 0; i < span.size; ++i) {
        if (!(exclude_start && span.ids[i] == src)) emit(span, i, 1);
      }
    }
    return n;
  }
  std::set<VertexId> seen{src};
  std::deque<std::pair<VertexId, int>> queue{{src, 0}};
  while (!queue.empty()) {
    auto [v, d] = queue.front();
    queue.pop_front();
    if (d == max_hops) continue;
    for (RelationId rel : rels) {
      AdjSpan span = view.Neighbors(rel, v, &adj);
      for (uint32_t i = 0; i < span.size; ++i) {
        if (!seen.insert(span.ids[i]).second) continue;
        if (d + 1 >= min_hops) emit(span, i, d + 1);
        queue.emplace_back(span.ids[i], d + 1);
      }
    }
  }
  return n;
}

Neighbors Collect(const GraphView& view, const std::vector<RelationId>& rels,
                  VertexId src, int min_hops, int max_hops, bool distinct,
                  bool exclude_start) {
  Neighbors n;
  CollectNeighbors(view, rels, src, min_hops, max_hops, distinct,
                   exclude_start, &n.out, &n.stamps);
  return n;
}

struct Shape {
  int min_hops, max_hops;
  bool distinct, exclude_start;
};

// Mixed relations: friends and liked posts out of a person, creators out
// of a post. A relation whose source label does not match yields nothing.
std::vector<std::vector<RelationId>> RelationSets(const LdbcContext& c) {
  return {{c.knows},
          {c.knows, c.person_likes_post, c.post_has_creator},
          {c.person_posts, c.post_has_creator, c.knows_in}};
}

constexpr Shape kShapes[] = {
    {1, 1, false, false}, {1, 1, false, true}, {1, 1, true, true},
    {1, 2, true, true},   {2, 2, true, true},  {1, 3, true, true},
    {2, 3, true, false},
};

TEST(CollectNeighborsTest, MatchesNaiveBfsBackToBack) {
  SnbFixture& fx = SnbFixture::Shared();
  LdbcContext c = LdbcContext::Resolve(fx.graph, fx.data.schema);
  GraphView view(&fx.graph);
  Rng rng(7);
  int nonempty = 0;
  for (int i = 0; i < 60; ++i) {
    VertexId src = fx.data.persons[rng.Uniform(fx.data.persons.size())];
    for (const auto& rels : RelationSets(c)) {
      for (const Shape& s : kShapes) {
        Neighbors want = NaiveCollect(view, rels, src, s.min_hops,
                                      s.max_hops, s.distinct,
                                      s.exclude_start);
        ASSERT_EQ(Collect(view, rels, src, s.min_hops, s.max_hops,
                          s.distinct, s.exclude_start),
                  want)
            << "src " << src << " hops " << s.min_hops << ".."
            << s.max_hops;
        nonempty += want.out.empty() ? 0 : 1;
      }
    }
  }
  EXPECT_GT(nonempty, 0);
}

TEST(CollectNeighborsTest, MatchesNaiveBfsOnMutatedGraph) {
  SnbFixture& fx = testutil::MutatedSnbFixture();
  LdbcContext c = LdbcContext::Resolve(fx.graph, fx.data.schema);
  GraphView view(&fx.graph);
  // Post-bulk persons too: ids from the tail of the id space.
  std::vector<VertexId> persons;
  view.ScanLabel(c.s.person, &persons);
  ASSERT_GT(persons.back(), fx.graph.bulk_vertex_count());
  Rng rng(8);
  for (int i = 0; i < 60; ++i) {
    VertexId src = i % 4 == 0 ? persons[persons.size() - 1 - i]
                              : persons[rng.Uniform(persons.size())];
    for (const auto& rels : RelationSets(c)) {
      for (const Shape& s : kShapes) {
        ASSERT_EQ(Collect(view, rels, src, s.min_hops, s.max_hops,
                          s.distinct, s.exclude_start),
                  NaiveCollect(view, rels, src, s.min_hops, s.max_hops,
                               s.distinct, s.exclude_start))
            << "src " << src;
      }
    }
  }
}

// Sources expanded inside one ParallelFor: every worker reuses its own
// state morsel after morsel, so a bit left set by one source would drop
// a vertex from a later one.
TEST(CollectNeighborsTest, MatchesNaiveBfsInsideParallelFor) {
  SnbFixture& fx = SnbFixture::Shared();
  LdbcContext c = LdbcContext::Resolve(fx.graph, fx.data.schema);
  GraphView view(&fx.graph);
  const std::vector<RelationId> rels = {c.knows, c.person_likes_post,
                                        c.post_has_creator};
  const size_t n = std::min<size_t>(fx.data.persons.size(), 400);
  std::vector<Neighbors> got(n);
  TaskScheduler::Global().ParallelFor(0, n, 8, 4, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      got[i] = Collect(view, rels, fx.data.persons[i], 1, 2, true, true);
    }
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], NaiveCollect(view, rels, fx.data.persons[i], 1, 2,
                                   true, true))
        << "source #" << i;
  }
}

// A thread sizes its bitmap on its first BFS; vertices committed after
// that have ids past it, and the next BFS must still see them.
TEST(CollectNeighborsTest, ReachesVerticesCreatedAfterFirstSizing) {
  SnbFixture fx(0.01, 5);
  LdbcContext c = LdbcContext::Resolve(fx.graph, fx.data.schema);
  const VertexId hub = fx.data.persons[0];
  std::thread worker([&] {
    GraphView before(&fx.graph);
    ASSERT_EQ(Collect(before, {c.knows}, hub, 1, 3, true, true),
              NaiveCollect(before, {c.knows}, hub, 1, 3, true, true));
    // A chain hub -> n0 -> n1 -> ... of 300 new persons: far more ids
    // than the slack in the last bitmap word.
    auto txn = fx.graph.BeginWrite({hub});
    VertexId prev = hub;
    for (int i = 0; i < 300; ++i) {
      VertexId v = txn->CreateVertex(c.s.person,
                                     fx.data.next_person_ext + i, {});
      ASSERT_TRUE(txn->AddEdge(c.s.knows, prev, v, 1).ok());
      ASSERT_TRUE(txn->AddEdge(c.s.knows, v, prev, 1).ok());
      prev = v;
    }
    ASSERT_NE(txn->Commit(), 0u);
    GraphView after(&fx.graph);
    for (int hops : {3, 300}) {
      Neighbors want = NaiveCollect(after, {c.knows}, hub, 1, hops, true,
                                    true);
      ASSERT_EQ(Collect(after, {c.knows}, hub, 1, hops, true, true), want);
      EXPECT_TRUE(std::count(want.out.begin(), want.out.end(),
                             std::make_pair(prev, hops)) == (hops == 300));
    }
    // Starting inside the new chain: source and all of hop 1 are new.
    EXPECT_EQ(Collect(after, {c.knows}, prev, 2, 4, true, true),
              NaiveCollect(after, {c.knows}, prev, 2, 4, true, true));
  });
  worker.join();
}

// ---------------------------------------------------------------------------
// IC13 / IC14 against the hash-map procedures they replaced
// ---------------------------------------------------------------------------

FlatBlock RefIC13(const GraphView& view, const LdbcContext& ctx, int64_t p1,
                  int64_t p2) {
  Schema s;
  s.Add("length", ValueType::kInt64);
  FlatBlock out(s);
  VertexId a = view.FindByExtId(ctx.s.person, p1);
  VertexId b = view.FindByExtId(ctx.s.person, p2);
  int d = -1;
  if (a == b && a != kInvalidVertex) {
    d = 0;
  } else if (a != kInvalidVertex && b != kInvalidVertex) {
    AdjScratch adj;
    std::unordered_set<VertexId> seen = {a};
    std::deque<std::pair<VertexId, int>> queue{{a, 0}};
    while (!queue.empty() && d < 0) {
      auto [v, dv] = queue.front();
      queue.pop_front();
      AdjSpan span = view.Neighbors(ctx.knows, v, &adj);
      for (uint32_t i = 0; i < span.size; ++i) {
        VertexId w = span.ids[i];
        if (!seen.insert(w).second) continue;
        if (w == b) {
          d = dv + 1;
          break;
        }
        queue.emplace_back(w, dv + 1);
      }
    }
  }
  out.AppendRow({Value::Int(d)});
  return out;
}

FlatBlock RefIC14(const GraphView& view, const LdbcContext& ctx, int64_t p1,
                  int64_t p2) {
  constexpr size_t kMaxPaths = 100;
  Schema s;
  s.Add("weight", ValueType::kDouble);
  s.Add("length", ValueType::kInt64);
  FlatBlock out(s);
  VertexId src = view.FindByExtId(ctx.s.person, p1);
  VertexId dst = view.FindByExtId(ctx.s.person, p2);
  if (src == kInvalidVertex || dst == kInvalidVertex) return out;

  std::unordered_map<VertexId, int> dist;
  std::unordered_map<VertexId, std::vector<VertexId>> preds;
  std::deque<VertexId> queue{src};
  dist[src] = 0;
  int found_at = -1;
  AdjScratch adj;
  while (!queue.empty()) {
    VertexId v = queue.front();
    queue.pop_front();
    int d = dist[v];
    if (found_at >= 0 && d >= found_at) break;
    AdjSpan span = view.Neighbors(ctx.knows, v, &adj);
    for (uint32_t i = 0; i < span.size; ++i) {
      VertexId w = span.ids[i];
      auto it = dist.find(w);
      if (it == dist.end()) {
        dist[w] = d + 1;
        preds[w].push_back(v);
        if (w == dst) found_at = d + 1;
        queue.push_back(w);
      } else if (it->second == d + 1) {
        preds[w].push_back(v);
      }
    }
  }
  if (dist.count(dst) == 0) return out;

  std::vector<std::vector<VertexId>> paths;
  std::vector<VertexId> cur{dst};
  std::function<void(VertexId)> walk = [&](VertexId v) {
    if (paths.size() >= kMaxPaths) return;
    if (v == src) {
      paths.emplace_back(cur.rbegin(), cur.rend());
      return;
    }
    for (VertexId u : preds[v]) {
      cur.push_back(u);
      walk(u);
      cur.pop_back();
    }
  };
  walk(dst);

  std::unordered_map<uint64_t, double> pair_weight;
  auto weight_of = [&](VertexId a, VertexId b) {
    uint64_t key = a < b ? (a << 32 | b) : (b << 32 | a);
    auto it = pair_weight.find(key);
    if (it != pair_weight.end()) return it->second;
    double w = 0;
    for (auto [x, y] : {std::pair<VertexId, VertexId>{a, b},
                        std::pair<VertexId, VertexId>{b, a}}) {
      AdjScratch a1, a2, a3;
      AdjSpan comments = view.Neighbors(ctx.person_comments, x, &a1);
      for (uint32_t i = 0; i < comments.size; ++i) {
        AdjSpan rp =
            view.Neighbors(ctx.comment_reply_of_post, comments.ids[i], &a2);
        for (uint32_t j = 0; j < rp.size; ++j) {
          AdjSpan creator =
              view.Neighbors(ctx.post_has_creator, rp.ids[j], &a3);
          for (uint32_t k = 0; k < creator.size; ++k) {
            if (creator.ids[k] == y) w += 1.0;
          }
        }
        AdjSpan rc =
            view.Neighbors(ctx.comment_reply_of_comment, comments.ids[i], &a2);
        for (uint32_t j = 0; j < rc.size; ++j) {
          AdjSpan creator =
              view.Neighbors(ctx.comment_has_creator, rc.ids[j], &a3);
          for (uint32_t k = 0; k < creator.size; ++k) {
            if (creator.ids[k] == y) w += 0.5;
          }
        }
      }
    }
    pair_weight[key] = w;
    return w;
  };

  std::vector<std::pair<double, int64_t>> rows;
  for (const auto& path : paths) {
    double w = 0;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      w += weight_of(path[i], path[i + 1]);
    }
    rows.emplace_back(w, static_cast<int64_t>(path.size() - 1));
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [w, len] : rows) {
    out.AppendRow({Value::Double(w), Value::Int(len)});
  }
  return out;
}

// Runs IC13 and IC14 for (p1, p2) and compares their rows, in order and
// exactly, with the reference procedures. Returns IC14's row count.
size_t ExpectPathQueriesMatch(const Graph& graph, const LdbcContext& ctx,
                              int64_t p1, int64_t p2) {
  GraphView view(&graph);
  LdbcParams p{};
  p.person = p1;
  p.person2 = p2;
  Executor exec(ExecMode::kFactorizedFused);
  FlatBlock ic13 = exec.Run(BuildIC(13, ctx, p), view).table;
  FlatBlock ic14 = exec.Run(BuildIC(14, ctx, p), view).table;
  FlatBlock ref13 = RefIC13(view, ctx, p1, p2);
  FlatBlock ref14 = RefIC14(view, ctx, p1, p2);
  EXPECT_EQ(ic13.rows(), ref13.rows()) << "IC13 " << p1 << " -> " << p2;
  EXPECT_EQ(ic14.rows(), ref14.rows())
      << "IC14 " << p1 << " -> " << p2 << ": got "
      << ::testing::PrintToString(testutil::OrderedRows(ic14)) << " want "
      << ::testing::PrintToString(testutil::OrderedRows(ref14));
  return ref14.NumRows();
}

// 200 pairs of ext ids drawn from [0, num_ext_ids); at least
// `min_reachable` of them must be connected for IC14's paths to count.
void ExpectSeededPairsMatch(SnbFixture& fx, int64_t num_ext_ids,
                            uint64_t seed, size_t min_reachable) {
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  Rng rng(seed);
  size_t reachable = 0;
  for (int i = 0; i < 200; ++i) {
    int64_t p1 = static_cast<int64_t>(rng.Uniform(num_ext_ids));
    int64_t p2 = static_cast<int64_t>(rng.Uniform(num_ext_ids));
    reachable += ExpectPathQueriesMatch(fx.graph, ctx, p1, p2) > 0;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GE(reachable, min_reachable);
}

TEST(PathQueryOracleTest, SnbFixtureMatchesReference) {
  SnbFixture& fx = SnbFixture::Shared();
  ExpectSeededPairsMatch(fx, static_cast<int64_t>(fx.data.persons.size()),
                         11, 100);
}

TEST(PathQueryOracleTest, MutatedSnbFixtureMatchesReference) {
  // `knows` is compacted there; ext ids past the bulk persons name the
  // persons IU1 created (none has a friend), and a few ids past those
  // name nobody.
  SnbFixture& fx = testutil::MutatedSnbFixture();
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  std::vector<VertexId> persons;
  GraphView(&fx.graph).ScanLabel(ctx.s.person, &persons);
  ASSERT_GT(persons.size(), fx.data.persons.size());
  ExpectSeededPairsMatch(fx, static_cast<int64_t>(persons.size()) + 5, 12,
                         20);
}

// S, twelve A persons, twelve B persons and T, with S-A, A-B, B-T
// friendships: more than 100 shortest S-T paths, each with its own weight
// (A_i replies i times to a post of S, B_j 12*j times to a post of T, and
// T once to a comment of every odd B_j). A_0 knows only B_6..B_11, so
// BFS rank order is not id order. N, created by a write transaction after
// the bulk load, knows S and every B and replies to a comment of S: it
// sits on twelve more shortest paths.
class HandBuiltPathsTest : public ::testing::Test {
 protected:
  static constexpr int kSide = 12;

  HandBuiltPathsTest() {
    schema_ = SnbSchema::Define(&graph_);
    const SnbSchema& s = schema_;
    int64_t person_ext = 0, post_ext = 0, comment_ext = 0;
    auto person = [&] {
      VertexId v = graph_.AddVertexBulk(s.person, person_ext);
      graph_.SetPropertyBulk(v, s.id, Value::Int(person_ext++));
      return v;
    };
    auto post_of = [&](VertexId creator) {
      VertexId m = graph_.AddVertexBulk(s.post, post_ext++);
      graph_.AddEdgeBulk(s.has_creator, m, creator);
      return m;
    };
    auto reply = [&](VertexId creator, VertexId parent) {
      VertexId m = graph_.AddVertexBulk(s.comment, comment_ext++);
      graph_.AddEdgeBulk(s.has_creator, m, creator);
      graph_.AddEdgeBulk(s.reply_of, m, parent);
      return m;
    };
    auto know = [&](VertexId a, VertexId b) {
      graph_.AddEdgeBulk(s.knows, a, b, 1);
      graph_.AddEdgeBulk(s.knows, b, a, 1);
    };
    src_ = person();
    std::vector<VertexId> a, b;
    for (int i = 0; i < kSide; ++i) a.push_back(person());
    for (int j = 0; j < kSide; ++j) b.push_back(person());
    dst_ = person();
    const VertexId src_post = post_of(src_);
    const VertexId dst_post = post_of(dst_);
    src_comment_ = reply(src_, src_post);
    for (int i = 0; i < kSide; ++i) {
      know(src_, a[i]);
      for (int k = 0; k < i; ++k) reply(a[i], src_post);
      for (int j = i == 0 ? kSide / 2 : 0; j < kSide; ++j) know(a[i], b[j]);
    }
    for (int j = 0; j < kSide; ++j) {
      know(b[j], dst_);
      VertexId first = kInvalidVertex;
      for (int k = 0; k < kSide * j; ++k) {
        VertexId m = reply(b[j], dst_post);
        if (first == kInvalidVertex) first = m;
      }
      if (j % 2 == 1) reply(dst_, first);
    }
    graph_.FinalizeBulk();
    b_ = b;
    ctx_ = LdbcContext::Resolve(graph_, schema_);
  }

  // Adds N (ext id `ext`) through a write transaction.
  void AddPostBulkPerson(int64_t ext) {
    const SnbSchema& s = schema_;
    std::vector<VertexId> touched = b_;
    touched.push_back(src_);
    touched.push_back(src_comment_);
    auto txn = graph_.BeginWrite(touched);
    VertexId n = txn->CreateVertex(s.person, ext, {{s.id, Value::Int(ext)}});
    for (VertexId v : touched) {
      if (v == src_comment_) continue;
      ASSERT_TRUE(txn->AddEdge(s.knows, n, v, 2).ok());
      ASSERT_TRUE(txn->AddEdge(s.knows, v, n, 2).ok());
    }
    VertexId m = txn->CreateVertex(s.comment, 1 << 20, {});
    ASSERT_TRUE(txn->AddEdge(s.has_creator, m, n).ok());
    ASSERT_TRUE(txn->AddEdge(s.reply_of, m, src_comment_).ok());
    ASSERT_NE(txn->Commit(), 0u);
  }

  Graph graph_;
  SnbSchema schema_;
  LdbcContext ctx_;
  VertexId src_ = kInvalidVertex, dst_ = kInvalidVertex;
  VertexId src_comment_ = kInvalidVertex;
  std::vector<VertexId> b_;
};

TEST_F(HandBuiltPathsTest, CapKeepsTheReferencePaths) {
  const int64_t t = 2 * kSide + 1;  // ext id of T
  ASSERT_EQ(ExpectPathQueriesMatch(graph_, ctx_, 0, t), 100u);
  // Every ordered pair, S and T included.
  for (int64_t p1 = 0; p1 <= t; ++p1) {
    for (int64_t p2 = 0; p2 <= t; ++p2) {
      ExpectPathQueriesMatch(graph_, ctx_, p1, p2);
    }
  }
}

TEST_F(HandBuiltPathsTest, PostBulkPersonOnShortestPaths) {
  const int64_t t = 2 * kSide + 1, n = t + 1;
  AddPostBulkPerson(n);
  GraphView view(&graph_);
  LdbcParams p{};
  p.person = 0;
  p.person2 = n;
  EXPECT_EQ(Executor(ExecMode::kFactorizedFused)
                .Run(BuildIC(13, ctx_, p), view)
                .table.At(0, 0)
                .AsInt(),
            1);
  ASSERT_EQ(ExpectPathQueriesMatch(graph_, ctx_, 0, t), 100u);
  for (int64_t p1 = 0; p1 <= n; ++p1) {
    for (int64_t p2 = 0; p2 <= n; ++p2) {
      ExpectPathQueriesMatch(graph_, ctx_, p1, p2);
    }
  }
}

}  // namespace
}  // namespace ges

// Worst-case-optimal intersection tier (DESIGN.md §12), end to end:
//
//  - planted-cycle datagen closed forms vs the analytics kernels
//    (merge-join oracle vs leapfrog intersection);
//  - differential censuses: binary Expand+ExpandInto plans vs hand-built
//    IntersectExpand plans vs the optimizer rewrite, across all four
//    ExecModes and intra-query thread counts {1, 2, 7};
//  - pinned MVCC snapshots stay byte-identical while concurrent write
//    transactions add/remove edges (overlay galloping paths);
//  - the optimizer rewrite itself: orientation handling, deferred filters,
//    the cost gate and the ablation flag;
//  - intersection counters through EXPLAIN ANALYZE and ServiceStats, and
//    the BI wire kind end to end.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analytics/algorithms.h"
#include "datagen/cyclic_generator.h"
#include "executor/executor.h"
#include "executor/explain.h"
#include "executor/optimizer.h"
#include "queries/ldbc.h"
#include "service/client.h"
#include "service/server.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using E = Expr;
using testutil::SnbFixture;
using testutil::SortedRows;

// One shared planted graph (default config: 16 communities of 8-cliques
// chained by bridges). All closed forms below are exact.
struct CyclicFixture {
  Graph graph;
  CyclicData data;

  CyclicFixture() { data = GenerateCyclic(CyclicConfig{}, &graph); }

  static CyclicFixture& Shared() {
    static CyclicFixture* f = new CyclicFixture();
    return *f;
  }
};

int64_t CountOf(const QueryResult& r) {
  if (r.table.NumRows() != 1) return -1;
  return r.table.rows()[0][0].AsInt();
}

Plan CountTail(PlanBuilder* b) {
  b->Aggregate({}, {AggSpec{AggSpec::kCount, "", "cnt"}}).Output({"cnt"});
  return b->Build();
}

// Ordered triangle census (6x per triangle), binary form: the shape the
// fused engine's WCOJ rule rewrites.
Plan TriangleBinary(const CyclicData& d) {
  PlanBuilder b("tri_binary");
  b.ScanByLabel("a", d.node)
      .Expand("a", "b", {d.rel})
      .Expand("b", "t", {d.rel})
      .ExpandInto("t", "a", {d.rel}, /*anti=*/false);
  return CountTail(&b);
}

// The same census with an explicit IntersectExpand (runs in ALL engines,
// not just fused — the operator is part of the common Plan language).
Plan TriangleManual(const CyclicData& d) {
  PlanBuilder b("tri_manual");
  b.ScanByLabel("a", d.node)
      .Expand("a", "b", {d.rel})
      .IntersectExpand("b", "t", {d.rel}, {"a"}, {{d.rel}});
  return CountTail(&b);
}

// Diamond census (4x per diamond; see bi_queries.cc for the multiplicity).
Plan DiamondBinary(const CyclicData& d) {
  PlanBuilder b("dia_binary");
  b.ScanByLabel("a", d.node)
      .Expand("a", "b", {d.rel})
      .Expand("b", "c", {d.rel})
      .ExpandInto("c", "a", {d.rel}, /*anti=*/false)
      .Expand("b", "d", {d.rel})
      .ExpandInto("d", "a", {d.rel}, /*anti=*/false)
      .Filter(E::Ne(E::Col("c"), E::Col("d")));
  return CountTail(&b);
}

Plan DiamondManual(const CyclicData& d) {
  PlanBuilder b("dia_manual");
  b.ScanByLabel("a", d.node)
      .Expand("a", "b", {d.rel})
      .IntersectExpand("b", "c", {d.rel}, {"a"}, {{d.rel}})
      .IntersectExpand("b", "d", {d.rel}, {"a"}, {{d.rel}})
      .Filter(E::Ne(E::Col("c"), E::Col("d")));
  return CountTail(&b);
}

// Quadrilateral census (8x per 4-cycle).
Plan FourCycleBinary(const CyclicData& d) {
  PlanBuilder b("quad_binary");
  b.ScanByLabel("a", d.node)
      .Expand("a", "b", {d.rel})
      .Expand("b", "c", {d.rel})
      .Filter(E::Ne(E::Col("a"), E::Col("c")))
      .Expand("c", "d", {d.rel})
      .ExpandInto("d", "a", {d.rel}, /*anti=*/false)
      .Filter(E::Ne(E::Col("b"), E::Col("d")));
  return CountTail(&b);
}

// Ordered K4 census (24x per K4): the 2-probe intersection — candidate d
// must be adjacent to BOTH ancestors a and b.
Plan K4Binary(const CyclicData& d) {
  PlanBuilder b("k4_binary");
  b.ScanByLabel("a", d.node)
      .Expand("a", "b", {d.rel})
      .Expand("b", "c", {d.rel})
      .ExpandInto("c", "a", {d.rel}, /*anti=*/false)
      .Expand("c", "d", {d.rel})
      .ExpandInto("d", "a", {d.rel}, /*anti=*/false)
      .ExpandInto("d", "b", {d.rel}, /*anti=*/false);
  return CountTail(&b);
}

Plan K4Manual(const CyclicData& d) {
  PlanBuilder b("k4_manual");
  b.ScanByLabel("a", d.node)
      .Expand("a", "b", {d.rel})
      .IntersectExpand("b", "c", {d.rel}, {"a"}, {{d.rel}})
      .IntersectExpand("c", "d", {d.rel}, {"a", "b"}, {{d.rel}, {d.rel}});
  return CountTail(&b);
}

// Runs `plan` under every ExecMode x thread-count combination plus the
// fused-engine WCOJ ablation, requiring the exact closed-form count.
void ExpectCountEverywhere(const Plan& plan, const GraphView& view,
                           int64_t want, const std::string& label) {
  for (ExecMode mode : {ExecMode::kFlat, ExecMode::kVolcano,
                        ExecMode::kFactorized, ExecMode::kFactorizedFused}) {
    for (int threads : {1, 2, 7}) {
      ExecOptions o;
      o.intra_query_threads = threads;
      QueryResult r = Executor(mode, o).Run(plan, view);
      EXPECT_EQ(CountOf(r), want)
          << label << " mode=" << ExecModeName(mode) << " threads=" << threads;
    }
  }
  ExecOptions no_wcoj;
  no_wcoj.intersect_expand = false;
  QueryResult r = Executor(ExecMode::kFactorizedFused, no_wcoj).Run(plan, view);
  EXPECT_EQ(CountOf(r), want) << label << " fused, rewrite ablated";
}

// --- datagen + analytics closed forms ----------------------------------

TEST(WcojDatagenTest, DefaultConfigClosedForms) {
  CyclicFixture& fx = CyclicFixture::Shared();
  // 16 * C(8,3) / 16 * C(8,2) * C(6,2) / 16 * 3 * C(8,4).
  EXPECT_EQ(fx.data.triangles, 896u);
  EXPECT_EQ(fx.data.diamonds, 6720u);
  EXPECT_EQ(fx.data.four_cycles, 3360u);
  EXPECT_EQ(fx.data.vertices.size(), 128u);
}

TEST(WcojDatagenTest, AnalyticsMatchClosedFormsAndOracle) {
  CyclicFixture& fx = CyclicFixture::Shared();
  GraphView view(&fx.graph);
  uint64_t oracle = CountTriangles(view, fx.data.node, fx.data.rel);
  EXPECT_EQ(oracle, fx.data.triangles);

  IntersectOpStats tri_stats;
  EXPECT_EQ(CountTrianglesIntersect(view, fx.data.node, fx.data.rel,
                                    &tri_stats),
            fx.data.triangles);
  EXPECT_GT(tri_stats.probes, 0u);
  EXPECT_GT(tri_stats.emitted, 0u);

  IntersectOpStats dia_stats;
  EXPECT_EQ(CountDiamonds(view, fx.data.node, fx.data.rel, &dia_stats),
            fx.data.diamonds);
  EXPECT_GT(dia_stats.probes, 0u);

  EXPECT_EQ(CountFourCycles(view, fx.data.node, fx.data.rel),
            fx.data.four_cycles);
}

TEST(WcojDatagenTest, SmallConfigClosedForms) {
  Graph graph;
  CyclicConfig config;
  config.num_communities = 3;
  config.community_size = 5;
  config.seed = 91;
  CyclicData d = GenerateCyclic(config, &graph);
  EXPECT_EQ(d.triangles, 30u);    // 3 * C(5,3)
  EXPECT_EQ(d.diamonds, 90u);     // 3 * C(5,2) * C(3,2)
  EXPECT_EQ(d.four_cycles, 45u);  // 3 * 3 * C(5,4)
  GraphView view(&graph);
  EXPECT_EQ(CountTriangles(view, d.node, d.rel), d.triangles);
  EXPECT_EQ(CountTrianglesIntersect(view, d.node, d.rel), d.triangles);
  EXPECT_EQ(CountDiamonds(view, d.node, d.rel), d.diamonds);
  EXPECT_EQ(CountFourCycles(view, d.node, d.rel), d.four_cycles);
}

// Pendant chaff leaves lie on no cycle: the closed forms must not move,
// while the censuses still agree everywhere (the selective regime the
// benchmark measures is exercised here at test size).
TEST(WcojDatagenTest, ChaffLeavesPreserveClosedForms) {
  Graph graph;
  CyclicConfig config;
  config.num_communities = 3;
  config.community_size = 5;
  config.chaff_per_vertex = 7;
  config.seed = 92;
  CyclicData d = GenerateCyclic(config, &graph);
  EXPECT_EQ(d.triangles, 30u);  // identical to the chaff-free 3x5 config
  EXPECT_EQ(d.diamonds, 90u);
  EXPECT_EQ(d.four_cycles, 45u);
  GraphView view(&graph);
  EXPECT_EQ(CountTriangles(view, d.node, d.rel), d.triangles);
  EXPECT_EQ(CountTrianglesIntersect(view, d.node, d.rel), d.triangles);
  EXPECT_EQ(CountDiamonds(view, d.node, d.rel), d.diamonds);
  EXPECT_EQ(CountFourCycles(view, d.node, d.rel), d.four_cycles);
  int64_t want = static_cast<int64_t>(6 * d.triangles);
  ExpectCountEverywhere(TriangleBinary(d), view, want, "chaff_tri_binary");
  ExpectCountEverywhere(TriangleManual(d), view, want, "chaff_tri_manual");
}

// --- differential censuses across engines and thread counts -------------

TEST(WcojDifferentialTest, TriangleCensus) {
  CyclicFixture& fx = CyclicFixture::Shared();
  GraphView view(&fx.graph);
  int64_t want = static_cast<int64_t>(6 * fx.data.triangles);
  ExpectCountEverywhere(TriangleBinary(fx.data), view, want, "tri_binary");
  ExpectCountEverywhere(TriangleManual(fx.data), view, want, "tri_manual");
}

TEST(WcojDifferentialTest, DiamondCensus) {
  CyclicFixture& fx = CyclicFixture::Shared();
  GraphView view(&fx.graph);
  int64_t want = static_cast<int64_t>(4 * fx.data.diamonds);
  ExpectCountEverywhere(DiamondBinary(fx.data), view, want, "dia_binary");
  ExpectCountEverywhere(DiamondManual(fx.data), view, want, "dia_manual");
}

TEST(WcojDifferentialTest, FourCycleCensus) {
  CyclicFixture& fx = CyclicFixture::Shared();
  GraphView view(&fx.graph);
  int64_t want = static_cast<int64_t>(8 * fx.data.four_cycles);
  ExpectCountEverywhere(FourCycleBinary(fx.data), view, want, "quad_binary");
}

TEST(WcojDifferentialTest, K4CensusTwoProbeIntersection) {
  CyclicFixture& fx = CyclicFixture::Shared();
  GraphView view(&fx.graph);
  // 16 communities * C(8,4) K4s * 24 ordered tuples.
  int64_t want = 16 * 70 * 24;
  ExpectCountEverywhere(K4Binary(fx.data), view, want, "k4_binary");
  ExpectCountEverywhere(K4Manual(fx.data), view, want, "k4_manual");
}

TEST(WcojDifferentialTest, IntersectStatsCountEmissions) {
  CyclicFixture& fx = CyclicFixture::Shared();
  GraphView view(&fx.graph);
  Plan plan = TriangleManual(fx.data);
  for (ExecMode mode : {ExecMode::kFlat, ExecMode::kVolcano,
                        ExecMode::kFactorized, ExecMode::kFactorizedFused}) {
    QueryResult r = Executor(mode).Run(plan, view);
    EXPECT_EQ(r.stats.intersect.emitted, 6 * fx.data.triangles)
        << ExecModeName(mode);
    EXPECT_GT(r.stats.intersect.probes, 0u) << ExecModeName(mode);
  }
  // Query-wide counters survive collect_stats=false (the service relies on
  // this to aggregate ServiceStats from throughput-mode runs).
  ExecOptions o;
  o.collect_stats = false;
  QueryResult r = Executor(ExecMode::kFactorizedFused, o).Run(plan, view);
  EXPECT_EQ(r.stats.intersect.emitted, 6 * fx.data.triangles);
}

// --- MVCC: pinned snapshots under concurrent updates --------------------

TEST(WcojSnapshotTest, PinnedSnapshotByteIdenticalUnderUpdates) {
  // Private graph: this test mutates it.
  Graph graph;
  CyclicData d = GenerateCyclic(CyclicConfig{}, &graph);
  const size_t s = d.config.community_size;

  SnapshotHandle pin = graph.PinSnapshot();
  GraphView pinned(&graph, pin.version());
  Plan plan = TriangleBinary(d);
  Plan manual = TriangleManual(d);

  int64_t before = static_cast<int64_t>(6 * d.triangles);
  std::vector<std::string> pinned_rows[4];
  int m = 0;
  for (ExecMode mode : {ExecMode::kFlat, ExecMode::kVolcano,
                        ExecMode::kFactorized, ExecMode::kFactorizedFused}) {
    QueryResult r = Executor(mode).Run(plan, pinned);
    EXPECT_EQ(CountOf(r), before) << ExecModeName(mode);
    pinned_rows[m++] = SortedRows(r.table);
  }

  // Close the bridge chain into a triangle: communities 0-1-2 are chained
  // c0[0]-c1[0], c1[0]-c2[0]; adding c0[0]-c2[0] creates exactly one new
  // triangle (bridge endpoints share no other neighbors).
  VertexId u = d.vertices[0];
  VertexId w = d.vertices[2 * s];
  {
    auto txn = graph.BeginWrite({u, w});
    ASSERT_TRUE(txn->AddEdge(d.link, u, w).ok());
    ASSERT_TRUE(txn->AddEdge(d.link, w, u).ok());
    ASSERT_NE(txn->Commit(), 0u);
  }
  // Remove one in-clique edge {v0, v1}: kills the s-2 triangles through
  // the other clique members (bridge neighbors are not shared).
  VertexId x = d.vertices[0];
  VertexId y = d.vertices[1];
  {
    auto txn = graph.BeginWrite({x, y});
    ASSERT_TRUE(txn->RemoveEdge(d.link, x, y).ok());
    ASSERT_TRUE(txn->RemoveEdge(d.link, y, x).ok());
    ASSERT_NE(txn->Commit(), 0u);
  }

  int64_t after = before + 6 * (1 - static_cast<int64_t>(s - 2));
  GraphView current(&graph);
  for (ExecMode mode : {ExecMode::kFlat, ExecMode::kVolcano,
                        ExecMode::kFactorized, ExecMode::kFactorizedFused}) {
    EXPECT_EQ(CountOf(Executor(mode).Run(plan, current)), after)
        << "current " << ExecModeName(mode);
    EXPECT_EQ(CountOf(Executor(mode).Run(manual, current)), after)
        << "current manual " << ExecModeName(mode);
  }
  // Analytics kernels see the same post-update graph (overlay
  // galloping paths agree with the merge-join oracle).
  uint64_t now_tri = d.triangles + 1 - (s - 2);
  EXPECT_EQ(CountTriangles(current, d.node, d.rel), now_tri);
  EXPECT_EQ(CountTrianglesIntersect(current, d.node, d.rel), now_tri);

  // The pinned snapshot still answers byte-identically in every engine.
  m = 0;
  for (ExecMode mode : {ExecMode::kFlat, ExecMode::kVolcano,
                        ExecMode::kFactorized, ExecMode::kFactorizedFused}) {
    QueryResult r = Executor(mode).Run(plan, pinned);
    EXPECT_EQ(SortedRows(r.table), pinned_rows[m++])
        << "pinned " << ExecModeName(mode);
    QueryResult rm = Executor(mode).Run(manual, pinned);
    EXPECT_EQ(CountOf(rm), before) << "pinned manual " << ExecModeName(mode);
  }
  EXPECT_EQ(CountTrianglesIntersect(pinned, d.node, d.rel), d.triangles);
}

// --- the optimizer rewrite ----------------------------------------------

size_t CountOps(const Plan& p, OpType t) {
  size_t n = 0;
  for (const PlanOp& op : p.ops) n += op.type == t;
  return n;
}

TEST(WcojOptimizerTest, RewritesExpandIntoChain) {
  CyclicFixture& fx = CyclicFixture::Shared();
  GraphView view(&fx.graph);
  Plan fused = OptimizePlan(K4Binary(fx.data), ExecOptions{}, &view);
  EXPECT_EQ(CountOps(fused, OpType::kIntersectExpand), 2u);
  EXPECT_EQ(CountOps(fused, OpType::kExpandInto), 0u);
  // The second fused op carries both probes.
  for (const PlanOp& op : fused.ops) {
    if (op.type == OpType::kIntersectExpand && op.out_column == "d") {
      EXPECT_EQ(op.probe_columns.size(), 2u);
    }
  }
}

TEST(WcojOptimizerTest, DefersInterleavedFilters) {
  CyclicFixture& fx = CyclicFixture::Shared();
  GraphView view(&fx.graph);
  Plan fused = OptimizePlan(DiamondBinary(fx.data), ExecOptions{}, &view);
  EXPECT_EQ(CountOps(fused, OpType::kIntersectExpand), 2u);
  EXPECT_EQ(CountOps(fused, OpType::kExpandInto), 0u);
  // The Ne(c, d) filter survives, re-emitted after the intersection it was
  // interleaved with (selections commute).
  EXPECT_EQ(CountOps(fused, OpType::kFilter), 1u);
  bool filter_after_intersect = false;
  bool seen_intersect = false;
  for (const PlanOp& op : fused.ops) {
    if (op.type == OpType::kIntersectExpand) seen_intersect = true;
    if (op.type == OpType::kFilter) filter_after_intersect = seen_intersect;
  }
  EXPECT_TRUE(filter_after_intersect);
}

TEST(WcojOptimizerTest, ReverseOrientationNeedsCatalog) {
  CyclicFixture& fx = CyclicFixture::Shared();
  GraphView view(&fx.graph);
  // ExpandInto("t", "a") checks the edge t->a, i.e. the REVERSE relation of
  // probe column a: without a view the matcher cannot resolve it and must
  // leave the binary plan intact.
  Plan plan = TriangleBinary(fx.data);
  Plan no_view = OptimizePlan(plan, ExecOptions{});
  EXPECT_EQ(CountOps(no_view, OpType::kIntersectExpand), 0u);
  EXPECT_EQ(CountOps(no_view, OpType::kExpandInto), 1u);
  Plan with_view = OptimizePlan(plan, ExecOptions{}, &view);
  EXPECT_EQ(CountOps(with_view, OpType::kIntersectExpand), 1u);

  // The forward orientation ExpandInto("a", "t") — membership of t in
  // N(a) as-is — fuses even without statistics.
  PlanBuilder b("tri_fwd");
  b.ScanByLabel("a", fx.data.node)
      .Expand("a", "b", {fx.data.rel})
      .Expand("b", "t", {fx.data.rel})
      .ExpandInto("a", "t", {fx.data.rel}, /*anti=*/false);
  Plan fwd = CountTail(&b);
  Plan fwd_no_view = OptimizePlan(fwd, ExecOptions{});
  EXPECT_EQ(CountOps(fwd_no_view, OpType::kIntersectExpand), 1u);
}

TEST(WcojOptimizerTest, AblationFlagKeepsBinaryPlan) {
  CyclicFixture& fx = CyclicFixture::Shared();
  GraphView view(&fx.graph);
  ExecOptions off;
  off.intersect_expand = false;
  Plan plan = OptimizePlan(TriangleBinary(fx.data), off, &view);
  EXPECT_EQ(CountOps(plan, OpType::kIntersectExpand), 0u);
  EXPECT_EQ(CountOps(plan, OpType::kExpandInto), 1u);
}

TEST(WcojOptimizerTest, ZeroDegreeStatsUseDefaultCardinality) {
  // A relation with no sampled edges used to make both sides of the cost
  // model collapse to 0, silently disabling the rewrite. The gate now
  // substitutes kDefaultDegree, under which the intersection is strictly
  // cheaper (it is never asymptotically worse), so the rewrite applies —
  // same as the rule-based no-view path.
  Graph graph;
  Catalog& c = graph.catalog();
  LabelId node = c.AddVertexLabel("N");
  LabelId link = c.AddEdgeLabel("E");
  graph.RegisterRelation(node, link, node);
  graph.AddVertexBulk(node, 0);
  graph.FinalizeBulk();
  RelationId rel = graph.FindRelation(node, link, node, Direction::kOut);
  ASSERT_NE(rel, kInvalidRelation);
  GraphView view(&graph);

  PlanBuilder b("empty_rel");
  b.ScanByLabel("a", node)
      .Expand("a", "b", {rel})
      .ExpandInto("a", "b", {rel}, /*anti=*/false);
  Plan plan = CountTail(&b);
  Plan opt = OptimizePlan(plan, ExecOptions{}, &view);
  EXPECT_EQ(CountOps(opt, OpType::kIntersectExpand), 1u);
  EXPECT_EQ(CountOps(opt, OpType::kExpandInto), 0u);
}

// --- EXPLAIN ANALYZE ----------------------------------------------------

TEST(WcojExplainTest, AnalyzeRendersIntersectCounters) {
  CyclicFixture& fx = CyclicFixture::Shared();
  GraphView view(&fx.graph);
  Plan plan = TriangleManual(fx.data);
  QueryResult r = Executor(ExecMode::kFlat).Run(plan, view);
  std::string text = ExplainAnalyze(plan, r);
  EXPECT_NE(text.find("IntersectExpand"), std::string::npos) << text;
  EXPECT_NE(text.find("probes="), std::string::npos) << text;
  EXPECT_NE(text.find("gallops="), std::string::npos) << text;
  EXPECT_NE(text.find("emitted="), std::string::npos) << text;
}

// --- the BI wire kind + ServiceStats ------------------------------------

TEST(WcojServiceTest, BiQueriesOverTheWire) {
  SnbFixture& fx = SnbFixture::Shared();
  auto server =
      std::make_unique<service::Server>(&fx.graph, &fx.data,
                                        service::ServiceConfig{});
  std::string error;
  ASSERT_TRUE(server->Start(&error)) << error;
  service::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()))
      << client.last_error();

  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  GraphView view(&fx.graph, client.snapshot());
  Executor fused(ExecMode::kFactorizedFused);
  for (int k = 1; k <= 3; ++k) {
    service::QueryResponse resp;
    ASSERT_TRUE(client.RunBI(k, &resp)) << client.last_error();
    ASSERT_EQ(resp.status, service::WireStatus::kOk) << resp.message;
    QueryResult direct = fused.Run(BuildBI(k, ctx, LdbcParams{}), view);
    EXPECT_EQ(SortedRows(resp.table), SortedRows(direct.table)) << "BI" << k;
  }

  service::QueryResponse bad;
  ASSERT_TRUE(client.RunBI(9, &bad)) << client.last_error();
  EXPECT_EQ(bad.status, service::WireStatus::kInvalidArgument);

  // The fused BI runs push intersection counters into the service stats.
  const service::ServiceStats& st = server->stats();
  EXPECT_GT(st.intersect_probes.load(), 0u);
  EXPECT_NE(server->StatsReport().find("intersect:"), std::string::npos);

  client.Close();
  server->Drain();
}

}  // namespace
}  // namespace ges

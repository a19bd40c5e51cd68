// Fusion-rewrite tests: the optimizer's pattern matching, rule gating, and
// semantic preservation.
#include "executor/optimizer.h"

#include <gtest/gtest.h>

#include <limits>

#include "queries/ldbc.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::TinyGraph;

Plan ExpandPropFilterPlan(const TinyGraph& tiny) {
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny.person, 3)
      .Expand("p", "m", {tiny.person_messages})
      .GetProperty("m", tiny.len, ValueType::kInt64, "len")
      .Filter(Expr::Gt(Expr::Col("len"), Expr::Lit(Value::Int(110))))
      .Output({"m", "len"});
  return b.Build();
}

TEST(OptimizerTest, FusesExpandGetPropertyFilter) {
  TinyGraph tiny;
  Plan plan = ExpandPropFilterPlan(tiny);
  Plan fused = OptimizePlan(plan, ExecOptions{});
  ASSERT_EQ(fused.ops.size(), 2u);
  EXPECT_EQ(fused.ops[1].type, OpType::kExpandFiltered);
  EXPECT_EQ(fused.ops[1].out_column, "m");
  EXPECT_EQ(fused.ops[1].other_column, "len");
  EXPECT_EQ(fused.ops[1].property, tiny.len);
}

TEST(OptimizerTest, FilterFusionDisabledByOption) {
  TinyGraph tiny;
  ExecOptions opt;
  opt.fuse_filter_into_expand = false;
  Plan fused = OptimizePlan(ExpandPropFilterPlan(tiny), opt);
  ASSERT_EQ(fused.ops.size(), 4u);
  EXPECT_EQ(fused.ops[1].type, OpType::kExpand);
}

TEST(OptimizerTest, NoFilterFusionWhenPredicateSpansColumns) {
  TinyGraph tiny;
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny.person, 3)
      .GetProperty("p", tiny.id, ValueType::kInt64, "pid")
      .Expand("p", "m", {tiny.person_messages})
      .GetProperty("m", tiny.len, ValueType::kInt64, "len")
      .Filter(Expr::Gt(Expr::Col("len"), Expr::Col("pid")))
      .Output({"m"});
  Plan fused = OptimizePlan(b.Build(), ExecOptions{});
  for (const PlanOp& op : fused.ops) {
    EXPECT_NE(op.type, OpType::kExpandFiltered);
  }
}

TEST(OptimizerTest, NoFilterFusionForMultiHopExpand) {
  TinyGraph tiny;
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny.person, 0)
      .Expand("p", "f", {tiny.knows_out}, 1, 2, true, true)
      .GetProperty("f", tiny.id, ValueType::kInt64, "fid")
      .Filter(Expr::Gt(Expr::Col("fid"), Expr::Lit(Value::Int(0))))
      .Output({"fid"});
  Plan fused = OptimizePlan(b.Build(), ExecOptions{});
  for (const PlanOp& op : fused.ops) {
    EXPECT_NE(op.type, OpType::kExpandFiltered);
  }
}

TEST(OptimizerTest, OrderByWithLimitBecomesTopK) {
  TinyGraph tiny;
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny.message)
      .GetProperty("m", tiny.len, ValueType::kInt64, "len")
      .OrderBy({{"len", false}}, 3)
      .Output({"len"});
  Plan fused = OptimizePlan(b.Build(), ExecOptions{});
  EXPECT_EQ(fused.ops.back().type, OpType::kTopK);
}

TEST(OptimizerTest, OrderByWithoutLimitStays) {
  TinyGraph tiny;
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny.message)
      .GetProperty("m", tiny.len, ValueType::kInt64, "len")
      .OrderBy({{"len", false}})
      .Output({"len"});
  Plan fused = OptimizePlan(b.Build(), ExecOptions{});
  EXPECT_EQ(fused.ops.back().type, OpType::kOrderBy);
}

TEST(OptimizerTest, AggregateProjectOrderByFusesToAggProjectTop) {
  TinyGraph tiny;
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny.message)
      .Expand("m", "c", {tiny.msg_creator})
      .GetProperty("c", tiny.id, ValueType::kInt64, "cid")
      .Aggregate({"cid"}, {AggSpec{AggSpec::kCount, "", "cnt"}})
      .Project({}, {ComputedColumn{Expr::Mul(Expr::Col("cnt"),
                                             Expr::Lit(Value::Int(2))),
                                   "cnt2", ValueType::kInt64}})
      .OrderBy({{"cnt2", false}}, 2)
      .Output({"cid", "cnt2"});
  Plan fused = OptimizePlan(b.Build(), ExecOptions{});
  ASSERT_EQ(fused.ops.back().type, OpType::kAggProjectTop);
  const PlanOp& op = fused.ops.back();
  EXPECT_EQ(op.group_by, std::vector<std::string>{"cid"});
  EXPECT_EQ(op.aggs.size(), 1u);
  EXPECT_EQ(op.computed.size(), 1u);
  EXPECT_EQ(op.limit, 2u);
}

// A bare Aggregate (no OrderBy+LIMIT after it) becomes an AggProjectTop
// with no sort keys and no limit, so GES_f* aggregates on the f-Tree:
// every mode returns the same rows, and GES_f*, which never de-factors the
// two-node tree, peaks below GES_f, which flattens it first.
TEST(OptimizerTest, AggregateWithoutOrderByStaysOnTree) {
  TinyGraph tiny;
  GraphView view(tiny.graph.get());
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny.message)
      .Expand("m", "c", {tiny.msg_creator})
      .GetProperty("c", tiny.id, ValueType::kInt64, "cid")
      .Aggregate({"cid"}, {AggSpec{AggSpec::kCount, "", "cnt"}})
      .Output({"cid", "cnt"});
  Plan plan = b.Build();
  Plan fused = OptimizePlan(plan, ExecOptions{});
  ASSERT_EQ(fused.ops.back().type, OpType::kAggProjectTop);
  EXPECT_TRUE(fused.ops.back().sort_keys.empty());
  EXPECT_EQ(fused.ops.back().limit, std::numeric_limits<uint64_t>::max());

  auto baseline =
      testutil::SortedRows(Executor(ExecMode::kFlat).Run(plan, view).table);
  EXPECT_EQ(baseline.size(), 3u);
  for (ExecMode mode : {ExecMode::kVolcano, ExecMode::kFlat,
                        ExecMode::kFactorized, ExecMode::kFactorizedFused}) {
    auto rows =
        testutil::SortedRows(Executor(mode).Run(plan, view).table);
    EXPECT_EQ(rows, baseline) << ExecModeName(mode);
  }
  size_t ges_f = Executor(ExecMode::kFactorized)
                     .Run(plan, view)
                     .stats.peak_intermediate_bytes;
  size_t ges_f_star = Executor(ExecMode::kFactorizedFused)
                          .Run(plan, view)
                          .stats.peak_intermediate_bytes;
  EXPECT_LT(ges_f_star, ges_f);
}

TEST(OptimizerTest, FilterPushdownMovesFilterBeforeLaterExpands) {
  TinyGraph tiny;
  // Filter on a first-hop property written AFTER a second expand: the RBO
  // pass must move it between the two expands.
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny.person, 0)
      .Expand("p", "f", {tiny.knows_out})
      .GetProperty("f", tiny.id, ValueType::kInt64, "fid")
      .Expand("f", "m", {tiny.person_messages})
      .Filter(Expr::Gt(Expr::Col("fid"), Expr::Lit(Value::Int(1))))
      .Output({"fid", "m"});
  Plan plan = b.Build();
  Plan fused = OptimizePlan(plan, ExecOptions{});
  // Pushdown places the filter right behind its GetProperty, which then
  // fuses with the first Expand: Seek, ExpandFiltered, Expand.
  ASSERT_EQ(fused.ops.size(), 3u);
  EXPECT_EQ(fused.ops[1].type, OpType::kExpandFiltered);
  EXPECT_EQ(fused.ops[2].type, OpType::kExpand);

  // With the fusion rule disabled the filter still moves ahead of the
  // second expand.
  ExecOptions no_fuse;
  no_fuse.fuse_filter_into_expand = false;
  Plan moved = OptimizePlan(plan, no_fuse);
  ASSERT_EQ(moved.ops.size(), 5u);
  EXPECT_EQ(moved.ops[3].type, OpType::kFilter);
  EXPECT_EQ(moved.ops[4].type, OpType::kExpand);
}

TEST(OptimizerTest, FilterPushdownStopsAtBarriers) {
  TinyGraph tiny;
  // An aggregation between the producer and the filter is a barrier: the
  // filter consumes the aggregate's output and must stay put.
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny.message)
      .Expand("m", "c", {tiny.msg_creator})
      .GetProperty("c", tiny.id, ValueType::kInt64, "cid")
      .Aggregate({"cid"}, {AggSpec{AggSpec::kCount, "", "cnt"}})
      .Filter(Expr::Gt(Expr::Col("cnt"), Expr::Lit(Value::Int(1))))
      .Output({"cid", "cnt"});
  Plan fused = OptimizePlan(b.Build(), ExecOptions{});
  EXPECT_EQ(fused.ops.back().type, OpType::kFilter);
}

TEST(OptimizerTest, FilterPushdownPreservesResults) {
  TinyGraph tiny;
  GraphView view(tiny.graph.get());
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny.person, 0)
      .Expand("p", "f", {tiny.knows_out})
      .GetProperty("f", tiny.id, ValueType::kInt64, "fid")
      .Expand("f", "m", {tiny.person_messages})
      .GetProperty("m", tiny.len, ValueType::kInt64, "len")
      .Filter(Expr::Gt(Expr::Col("fid"), Expr::Lit(Value::Int(1))))
      .Filter(Expr::Lt(Expr::Col("len"), Expr::Lit(Value::Int(130))))
      .OrderBy({{"len", true}, {"fid", true}})
      .Output({"fid", "len"});
  Plan plan = b.Build();
  auto baseline =
      testutil::OrderedRows(Executor(ExecMode::kFlat).Run(plan, view).table);
  auto fused = testutil::OrderedRows(
      Executor(ExecMode::kFactorizedFused).Run(plan, view).table);
  EXPECT_EQ(fused, baseline);
  EXPECT_GT(baseline.size(), 0u);
}

TEST(OptimizerTest, EachRuleIndividuallyPreservesResults) {
  TinyGraph tiny;
  GraphView view(tiny.graph.get());
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny.person, 3)
      .Expand("p", "m", {tiny.person_messages})
      .GetProperty("m", tiny.len, ValueType::kInt64, "len")
      .Filter(Expr::Gt(Expr::Col("len"), Expr::Lit(Value::Int(100))))
      .GetProperty("m", tiny.id, ValueType::kInt64, "mid")
      .Aggregate({"mid"}, {AggSpec{AggSpec::kCount, "", "cnt"}})
      .OrderBy({{"mid", true}}, 10)
      .Output({"mid", "cnt"});
  Plan plan = b.Build();

  auto baseline =
      testutil::OrderedRows(Executor(ExecMode::kFlat).Run(plan, view).table);
  for (int rule = 0; rule < 3; ++rule) {
    ExecOptions opt;
    opt.fuse_filter_into_expand = rule == 0;
    opt.fuse_topk = rule == 1;
    opt.fuse_agg_project_top = rule == 2;
    Executor exec(ExecMode::kFactorizedFused, opt);
    auto rows = testutil::OrderedRows(exec.Run(plan, view).table);
    EXPECT_EQ(rows, baseline) << "rule " << rule;
  }
}

// Index of the first op of `plan` that produces `column`.
size_t OpProducing(const Plan& plan, const std::string& column) {
  size_t i = 0;
  while (i < plan.ops.size() && plan.ops[i].out_column != column) ++i;
  return i;
}

// IC5 groups by forum id and counts posts: its AggProjectTop aggregates by
// the forum vertex, and the post count and the id read before it are
// deferred to it. Nothing else is deferred.
TEST(VertexKeyedAggregateTest, Ic5DefersPostCountAndForumId) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  ParamGen gen(&fx.graph, &fx.data, 1);
  GraphView view(&fx.graph);
  Plan plan = OptimizePlan(BuildIC(5, ctx, gen.Next()), ExecOptions{}, &view);
  ASSERT_EQ(plan.ops.back().type, OpType::kAggProjectTop);
  EXPECT_EQ(plan.ops.back().group_vertex, "forum");
  const size_t posts = OpProducing(plan, "post");
  const size_t forum_id = OpProducing(plan, "forum_id");
  ASSERT_LT(posts, plan.ops.size());
  ASSERT_LT(forum_id, plan.ops.size());
  EXPECT_TRUE(plan.ops[posts].counted);
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    EXPECT_EQ(plan.ops[i].deferred, i == posts || i == forum_id)
        << "op " << i << " " << OpTypeName(plan.ops[i].type);
  }
}

// A GetProperty whose output a Filter reads before the aggregate stays on
// the tree; the counted Expand after the Filter is still deferred. Every
// engine returns the same rows.
TEST(VertexKeyedAggregateTest, KeyReadByLaterOpIsNotDeferred) {
  TinyGraph tiny;
  GraphView view(tiny.graph.get());
  PlanBuilder b("t");
  b.ScanByLabel("p", tiny.person)
      .GetProperty("p", tiny.id, ValueType::kInt64, "pid")
      .Filter(Expr::Ge(Expr::Col("pid"), Expr::Lit(Value::Int(2))))
      .Expand("p", "m", {tiny.person_messages})
      .Aggregate({"pid"}, {AggSpec{AggSpec::kCount, "", "cnt"}})
      .Output({"pid", "cnt"});
  Plan plan = b.Build();
  Plan fused = OptimizePlan(plan, ExecOptions{});
  ASSERT_EQ(fused.ops.size(), 5u);
  EXPECT_EQ(fused.ops[4].group_vertex, "p");
  EXPECT_FALSE(fused.ops[1].deferred);  // GetProperty pid, read by the Filter
  EXPECT_FALSE(fused.ops[2].deferred);
  EXPECT_TRUE(fused.ops[3].counted);
  EXPECT_TRUE(fused.ops[3].deferred);

  auto baseline =
      testutil::SortedRows(Executor(ExecMode::kFlat).Run(plan, view).table);
  EXPECT_EQ(baseline.size(), 2u);  // persons 2 and 3 created messages
  for (ExecMode mode : {ExecMode::kVolcano, ExecMode::kFactorized,
                        ExecMode::kFactorizedFused}) {
    EXPECT_EQ(testutil::SortedRows(Executor(mode).Run(plan, view).table),
              baseline)
        << ExecModeName(mode);
  }
}

// An edge stamp is a function of the edge, not of one vertex: grouping by
// it marks nothing. Neither does a key of another vertex than an input's.
TEST(VertexKeyedAggregateTest, StampOrMixedVertexKeysAreNotMarked) {
  TinyGraph tiny;
  PlanBuilder stamp("t");
  stamp.NodeByIdSeek("p", tiny.person, 0)
      .ExpandEx("p", "f", {tiny.knows_out}, 1, 1, false, false, "", "since")
      .Expand("f", "m", {tiny.person_messages})
      .Aggregate({"since"}, {AggSpec{AggSpec::kCount, "", "cnt"}})
      .Output({"since", "cnt"});
  PlanBuilder mixed("t");
  mixed.NodeByIdSeek("p", tiny.person, 0)
      .Expand("p", "f", {tiny.knows_out})
      .GetProperty("f", tiny.id, ValueType::kInt64, "fid")
      .Expand("f", "m", {tiny.person_messages})
      .Aggregate({"fid"}, {AggSpec{AggSpec::kCount, "", "cnt"},
                           AggSpec{AggSpec::kMin, "m", "first"}})
      .Output({"fid", "cnt", "first"});
  for (PlanBuilder* b : {&stamp, &mixed}) {
    Plan fused = OptimizePlan(b->Build(), ExecOptions{});
    ASSERT_EQ(fused.ops.back().type, OpType::kAggProjectTop);
    EXPECT_TRUE(fused.ops.back().group_vertex.empty());
    for (const PlanOp& op : fused.ops) EXPECT_FALSE(op.deferred);
  }
}

}  // namespace
}  // namespace ges

// EXPLAIN / plan-validation tests, including validation of every workload
// query (fused and unfused).
#include "executor/explain.h"

#include <gtest/gtest.h>

#include "executor/ftree.h"
#include "executor/optimizer.h"
#include "queries/ldbc.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::TinyGraph;

Plan SimplePlan(const TinyGraph& tiny) {
  PlanBuilder b("sample");
  b.NodeByIdSeek("p", tiny.person, 0)
      .Expand("p", "f", {tiny.knows_out}, 1, 2, true, true)
      .GetProperty("f", tiny.id, ValueType::kInt64, "fid")
      .Filter(Expr::Gt(Expr::Col("fid"), Expr::Lit(Value::Int(0))))
      .OrderBy({{"fid", true}}, 5)
      .Output({"fid"});
  return b.Build();
}

TEST(ExplainTest, RendersEveryOperator) {
  TinyGraph tiny;
  std::string text = ExplainPlan(SimplePlan(tiny));
  EXPECT_NE(text.find("NodeByIdSeek"), std::string::npos);
  EXPECT_NE(text.find("Expand"), std::string::npos);
  EXPECT_NE(text.find("(*1..2)"), std::string::npos);
  EXPECT_NE(text.find("GetProperty"), std::string::npos);
  EXPECT_NE(text.find("OrderBy"), std::string::npos);
  EXPECT_NE(text.find("limit=5"), std::string::npos);
  EXPECT_NE(text.find("output: [fid]"), std::string::npos);
  EXPECT_NE(text.find("[sample]"), std::string::npos);
}

TEST(ExplainTest, ShowsFusedOperators) {
  TinyGraph tiny;
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny.person, 3)
      .Expand("p", "m", {tiny.person_messages})
      .GetProperty("m", tiny.len, ValueType::kInt64, "len")
      .Filter(Expr::Gt(Expr::Col("len"), Expr::Lit(Value::Int(100))))
      .OrderBy({{"len", false}}, 3)
      .Output({"m", "len"});
  Plan fused = OptimizePlan(b.Build(), ExecOptions{});
  std::string text = ExplainPlan(fused);
  EXPECT_NE(text.find("ExpandFiltered"), std::string::npos);
  EXPECT_NE(text.find("TopK"), std::string::npos);
}

// A fused top-k aggregate shows what it orders by: IC5's AggProjectTop
// prints its sort keys and limit after the group keys and aggregates.
TEST(ExplainTest, AggProjectTopShowsSortKeys) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  ParamGen gen(&fx.graph, &fx.data, 1);
  std::string text =
      ExplainPlan(OptimizePlan(BuildIC(5, ctx, gen.Next()), ExecOptions{}));
  EXPECT_NE(text.find("AggProjectTop group=[forum_id] aggs=[cnt] "
                      "keys=[cnt desc, forum_id asc] limit=20"),
            std::string::npos)
      << text;
}

// IC5 only counts the posts of each forum: the optimizer marks that Expand
// counted, EXPLAIN shows it, and EXPLAIN ANALYZE charges it no more than
// the one index range per forum row that it adds to the f-Tree.
TEST(ExplainTest, CountedExpandShowsMarkAndAddsOnlyRanges) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  ParamGen gen(&fx.graph, &fx.data, 1);
  GraphView view(&fx.graph);
  Plan plan = OptimizePlan(BuildIC(5, ctx, gen.Next()), ExecOptions{}, &view);
  std::string text = ExplainPlan(plan);
  EXPECT_NE(text.find("-> post counted"), std::string::npos) << text;
  EXPECT_EQ(text.find("-> forum counted"), std::string::npos) << text;

  QueryResult result = Executor(ExecMode::kFactorizedFused).Run(plan, view);
  ASSERT_EQ(result.stats.ops.size(), plan.ops.size());
  size_t posts = 0;
  while (posts < plan.ops.size() && !plan.ops[posts].counted) ++posts;
  ASSERT_LT(posts, plan.ops.size());
  ASSERT_EQ(plan.ops[posts].in_column, "forum");
  // The forum node holds one row per (friend, forum) tuple the expansion
  // into it produced; the Filter in between only deselects rows.
  size_t forum = 0;
  while (plan.ops[forum].out_column != "forum") ++forum;
  const uint64_t forum_rows = result.stats.ops[forum].rows;
  ASSERT_GT(forum_rows, 0u);
  const size_t before = result.stats.ops[posts - 1].intermediate_bytes;
  const size_t after = result.stats.ops[posts].intermediate_bytes;
  EXPECT_LE(after - before, forum_rows * sizeof(IndexRange))
      << ExplainAnalyze(plan, result);
}

// IC5's AggProjectTop aggregates by the forum vertex, to which the post
// count and the forum id read are deferred: EXPLAIN prints both marks, and
// EXPLAIN ANALYZE shows that the deferred ops add nothing to the f-Tree.
TEST(ExplainTest, VertexKeyedAggregateShowsDeferredAndByVertex) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  ParamGen gen(&fx.graph, &fx.data, 1);
  GraphView view(&fx.graph);
  Plan plan = OptimizePlan(BuildIC(5, ctx, gen.Next()), ExecOptions{}, &view);
  std::string text = ExplainPlan(plan);
  EXPECT_NE(text.find("-> post counted deferred"), std::string::npos) << text;
  EXPECT_NE(text.find("-> forum_id deferred"), std::string::npos) << text;
  EXPECT_NE(text.find("limit=20 by-vertex forum"), std::string::npos) << text;

  QueryResult result = Executor(ExecMode::kFactorizedFused).Run(plan, view);
  ASSERT_EQ(result.stats.ops.size(), plan.ops.size());
  size_t before = 0;
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    if (plan.ops[i].deferred) {
      EXPECT_EQ(result.stats.ops[i].intermediate_bytes, before)
          << ExplainAnalyze(plan, result);
    }
    before = result.stats.ops[i].intermediate_bytes;
  }
}

// Computed columns of a fused aggregate print as `name = expression`.
TEST(ExplainTest, AggProjectTopShowsComputedColumns) {
  TinyGraph tiny;
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny.message)
      .GetProperty("m", tiny.len, ValueType::kInt64, "len")
      .Aggregate({}, {AggSpec{AggSpec::kSum, "len", "total"}})
      .Project({{"total", "total"}},
               {ComputedColumn{Expr::Add(Expr::Col("total"),
                                         Expr::Lit(Value::Int(1))),
                               "plus_one", ValueType::kInt64}})
      .OrderBy({{"plus_one", false}}, 3)
      .Output({"plus_one"});
  std::string text = ExplainPlan(OptimizePlan(b.Build(), ExecOptions{}));
  EXPECT_NE(text.find("AggProjectTop"), std::string::npos) << text;
  EXPECT_NE(text.find("computed=[plus_one = "), std::string::npos) << text;
  EXPECT_NE(text.find("keys=[plus_one desc] limit=3"), std::string::npos)
      << text;
}

TEST(ValidateTest, AcceptsWellFormedPlan) {
  TinyGraph tiny;
  Status s = ValidatePlan(SimplePlan(tiny));
  EXPECT_TRUE(s.ok()) << s.message();
}

TEST(ValidateTest, RejectsEmptyPlan) {
  EXPECT_FALSE(ValidatePlan(Plan{}).ok());
}

TEST(ValidateTest, RejectsNonLeafFirstOp) {
  Plan plan;
  PlanOp op;
  op.type = OpType::kFilter;
  op.predicate = Expr::Lit(Value::Bool(true));
  plan.ops.push_back(std::move(op));
  EXPECT_FALSE(ValidatePlan(plan).ok());
}

TEST(ValidateTest, RejectsUnknownConsumedColumn) {
  TinyGraph tiny;
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny.person, 0)
      .Expand("nope", "f", {tiny.knows_out})
      .Output({"f"});
  Status s = ValidatePlan(b.Build());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("nope"), std::string::npos);
}

TEST(ValidateTest, RejectsDuplicateColumn) {
  TinyGraph tiny;
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny.person, 0)
      .Expand("p", "p", {tiny.knows_out})  // shadows the seek column
      .Output({"p"});
  EXPECT_FALSE(ValidatePlan(b.Build()).ok());
}

TEST(ValidateTest, RejectsUnknownOutputColumn) {
  TinyGraph tiny;
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny.person, 0).Output({"ghost"});
  EXPECT_FALSE(ValidatePlan(b.Build()).ok());
}

TEST(ValidateTest, RejectsUnknownSortKey) {
  TinyGraph tiny;
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny.person, 0).OrderBy({{"ghost", true}}).Output({"p"});
  EXPECT_FALSE(ValidatePlan(b.Build()).ok());
}

TEST(ValidateTest, AggregationReplacesLiveColumns) {
  TinyGraph tiny;
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny.message)
      .GetProperty("m", tiny.len, ValueType::kInt64, "len")
      .Aggregate({"len"}, {AggSpec{AggSpec::kCount, "", "cnt"}})
      // "m" is gone after aggregation:
      .Filter(Expr::Gt(Expr::Col("m"), Expr::Lit(Value::Int(0))))
      .Output({"len"});
  EXPECT_FALSE(ValidatePlan(b.Build()).ok());
}

// Every workload query must validate, both raw and after fusion.
TEST(ValidateTest, AllWorkloadQueriesValidate) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  ParamGen gen(&fx.graph, &fx.data, 1);
  LdbcParams p = gen.Next();
  for (int k = 1; k <= 14; ++k) {
    Plan plan = BuildIC(k, ctx, p);
    Status s = ValidatePlan(plan);
    EXPECT_TRUE(s.ok()) << "IC" << k << ": " << s.message();
    Status sf = ValidatePlan(OptimizePlan(plan, ExecOptions{}));
    EXPECT_TRUE(sf.ok()) << "IC" << k << " fused: " << sf.message();
  }
  for (int k = 1; k <= 7; ++k) {
    Plan plan = BuildIS(k, ctx, p);
    Status s = ValidatePlan(plan);
    EXPECT_TRUE(s.ok()) << "IS" << k << ": " << s.message();
  }
}

}  // namespace
}  // namespace ges

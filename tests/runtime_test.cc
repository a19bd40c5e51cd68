// Runtime-component tests: intra-query parallel expansion and the
// vectorized filter kernel must be exact optimizations (identical results).
#include <gtest/gtest.h>

#include "executor/executor.h"
#include "queries/ldbc.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::OrderedRows;
using testutil::SnbFixture;

TEST(IntraQueryParallelTest, ParallelExpandMatchesSequential) {
  SnbFixture& fx = SnbFixture::Shared();
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  GraphView view(&fx.graph);
  // A multi-hop expansion over many source rows (the parallelized path).
  PlanBuilder b("t");
  b.ScanByLabel("p", ctx.s.person)
      .Expand("p", "f", {ctx.knows}, 1, 2, /*distinct=*/true,
              /*exclude_start=*/true)
      .GetProperty("p", ctx.p_id, ValueType::kInt64, "pid")
      .GetProperty("f", ctx.p_id, ValueType::kInt64, "fid")
      .Aggregate({"pid"}, {AggSpec{AggSpec::kCount, "", "nf"}})
      .OrderBy({{"pid", true}})
      .Output({"pid", "nf"});
  Plan plan = b.Build();

  ExecOptions seq;
  seq.intra_query_threads = 1;
  ExecOptions par;
  par.intra_query_threads = 4;
  for (ExecMode mode :
       {ExecMode::kFactorized, ExecMode::kFactorizedFused}) {
    auto a = OrderedRows(Executor(mode, seq).Run(plan, view).table);
    auto c = OrderedRows(Executor(mode, par).Run(plan, view).table);
    EXPECT_EQ(a, c) << ExecModeName(mode);
    EXPECT_GT(a.size(), 0u);
  }
}

TEST(IntraQueryParallelTest, WorkloadQueriesUnchanged) {
  SnbFixture& fx = SnbFixture::Shared();
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  ParamGen gen(&fx.graph, &fx.data, 404);
  GraphView view(&fx.graph);
  ExecOptions par;
  par.intra_query_threads = 4;
  for (int k : {1, 5, 9, 10}) {
    LdbcParams p = gen.Next();
    Plan plan = BuildIC(k, ctx, p);
    auto a = OrderedRows(
        Executor(ExecMode::kFactorizedFused).Run(plan, view).table);
    auto c = OrderedRows(
        Executor(ExecMode::kFactorizedFused, par).Run(plan, view).table);
    EXPECT_EQ(a, c) << "IC" << k;
  }
}

TEST(VectorizedFilterTest, KernelMatchesGenericEvaluation) {
  SnbFixture& fx = SnbFixture::Shared();
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  GraphView view(&fx.graph);
  // One plan per comparison operator over an int64 property.
  for (ExprOp op : {ExprOp::kEq, ExprOp::kNe, ExprOp::kLt, ExprOp::kLe,
                    ExprOp::kGt, ExprOp::kGe}) {
    PlanBuilder b("t");
    b.ScanByLabel("m", ctx.s.post)
        .GetProperty("m", ctx.p_length, ValueType::kInt64, "len")
        .Filter(Expr::Cmp(op, Expr::Col("len"), Expr::Lit(Value::Int(120))))
        .GetProperty("m", ctx.p_id, ValueType::kInt64, "mid")
        .OrderBy({{"mid", true}})
        .Output({"mid", "len"});
    Plan plan = b.Build();
    // kFlat evaluates the predicate through the interpreted BoundExpr.
    auto a = OrderedRows(
        Executor(ExecMode::kFactorized).Run(plan, view).table);
    auto c = OrderedRows(Executor(ExecMode::kFlat).Run(plan, view).table);
    EXPECT_EQ(a, c) << "op " << static_cast<int>(op);
    EXPECT_GT(a.size(), 0u);
  }
}

TEST(VectorizedFilterTest, DateColumnAgainstIntLiteral) {
  // Regression: DATE-typed columns must compare numerically with integer
  // literals in both the generic and the vectorized paths.
  SnbFixture& fx = SnbFixture::Shared();
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  GraphView view(&fx.graph);
  PlanBuilder b("t");
  b.ScanByLabel("m", ctx.s.post)
      .GetProperty("m", ctx.p_creation, ValueType::kDate, "d")
      .Filter(Expr::Lt(Expr::Col("d"), Expr::Lit(Value::Int(kSimEnd))))
      .Aggregate({}, {AggSpec{AggSpec::kCount, "", "n"}})
      .Output({"n"});
  Plan plan = b.Build();
  for (ExecMode mode : {ExecMode::kVolcano, ExecMode::kFlat,
                        ExecMode::kFactorized, ExecMode::kFactorizedFused}) {
    QueryResult r = Executor(mode).Run(plan, view);
    EXPECT_EQ(r.table.At(0, 0).AsInt(),
              static_cast<int64_t>(fx.data.posts.size()))
        << ExecModeName(mode);
  }
}

}  // namespace
}  // namespace ges

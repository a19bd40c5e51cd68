// Parallel determinism: for every engine variant and every LDBC query,
// intra-query parallel execution must be bit-identical to sequential
// execution, regardless of the thread bound. The morsel runtime guarantees
// this by construction (chunk boundaries and output slots do not depend on
// the worker count); this test pins the contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "executor/executor.h"
#include "queries/ldbc.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::OrderedRows;
using testutil::SnbFixture;

constexpr ExecMode kModes[] = {ExecMode::kVolcano, ExecMode::kFlat,
                               ExecMode::kFactorized,
                               ExecMode::kFactorizedFused};

const char* ModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kVolcano:
      return "volcano";
    case ExecMode::kFlat:
      return "flat";
    case ExecMode::kFactorized:
      return "factorized";
    case ExecMode::kFactorizedFused:
      return "fused";
  }
  return "?";
}

void ExpectThreadCountInvariant(const Plan& plan, const GraphView& view,
                                const std::string& label) {
  for (ExecMode mode : kModes) {
    ExecOptions seq_opts;
    seq_opts.intra_query_threads = 1;
    Executor sequential(mode, seq_opts);
    std::vector<std::string> expect = OrderedRows(sequential.Run(plan, view).table);
    for (int threads : {2, 7}) {
      ExecOptions opts;
      opts.intra_query_threads = threads;
      Executor parallel(mode, opts);
      std::vector<std::string> got = OrderedRows(parallel.Run(plan, view).table);
      EXPECT_EQ(got, expect) << label << " mode=" << ModeName(mode)
                             << " threads=" << threads;
    }
  }
}

class IcDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(IcDeterminismTest, ParallelMatchesSequential) {
  int k = GetParam();
  SnbFixture& fx = SnbFixture::Shared();
  ParamGen gen(&fx.graph, &fx.data, /*seed=*/7000 + k);
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  GraphView view(&fx.graph);
  for (int i = 0; i < 3; ++i) {
    LdbcParams p = gen.Next();
    Plan plan = BuildIC(k, ctx, p);
    ExpectThreadCountInvariant(
        plan, view, "IC" + std::to_string(k) + " params#" + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(AllIC, IcDeterminismTest, ::testing::Range(1, 15),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "IC" + std::to_string(info.param);
                         });

class IsDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(IsDeterminismTest, ParallelMatchesSequential) {
  int k = GetParam();
  SnbFixture& fx = SnbFixture::Shared();
  ParamGen gen(&fx.graph, &fx.data, /*seed=*/8000 + k);
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  GraphView view(&fx.graph);
  for (int i = 0; i < 3; ++i) {
    LdbcParams p = gen.Next();
    Plan plan = BuildIS(k, ctx, p);
    ExpectThreadCountInvariant(
        plan, view, "IS" + std::to_string(k) + " params#" + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(AllIS, IsDeterminismTest, ::testing::Range(1, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "IS" + std::to_string(info.param);
                         });

// The same contract on updated storage (overlay entries, varint levels,
// post-bulk vertices; see testutil::MutatedSnbFixture), where IC5's counted
// Expand reads degrees through every layer.
class MutatedIcDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(MutatedIcDeterminismTest, ParallelMatchesSequential) {
  int k = GetParam();
  SnbFixture& fx = testutil::MutatedSnbFixture();
  ParamGen gen(&fx.graph, &fx.data, /*seed=*/9000 + k);
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  GraphView view(&fx.graph);
  for (int i = 0; i < 2; ++i) {
    LdbcParams p = gen.Next();
    Plan plan = BuildIC(k, ctx, p);
    ExpectThreadCountInvariant(
        plan, view, "IC" + std::to_string(k) + " params#" + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(AllIC, MutatedIcDeterminismTest,
                         ::testing::Range(1, 15),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "IC" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ges

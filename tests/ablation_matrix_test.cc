// Exhaustive ablation-matrix equivalence: every IC query must produce the
// same result under every combination of the executor's optimization
// options — pointer join, each fusion rule, and intra-query parallelism.
// Optimizations must be exact.
#include <gtest/gtest.h>

#include "executor/executor.h"
#include "queries/ldbc.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::OrderedRows;
using testutil::SnbFixture;

struct OptionCombo {
  const char* name;
  ExecOptions options;
};

std::vector<OptionCombo> Combos() {
  std::vector<OptionCombo> combos;
  combos.push_back({"all_on", ExecOptions{}});
  {
    ExecOptions o;
    o.pointer_join = false;
    combos.push_back({"no_pointer_join", o});
  }
  {
    ExecOptions o;
    o.fuse_filter_into_expand = false;
    combos.push_back({"no_filter_fusion", o});
  }
  {
    ExecOptions o;
    o.fuse_topk = false;
    combos.push_back({"no_topk", o});
  }
  {
    ExecOptions o;
    o.fuse_agg_project_top = false;
    combos.push_back({"no_agg_fusion", o});
  }
  {
    ExecOptions o;
    o.fuse_filter_into_expand = false;
    o.fuse_topk = false;
    o.fuse_agg_project_top = false;
    combos.push_back({"no_fusion_at_all", o});
  }
  {
    ExecOptions o;
    o.intra_query_threads = 4;
    combos.push_back({"intra_parallel", o});
  }
  {
    ExecOptions o;
    o.pointer_join = false;
    o.fuse_filter_into_expand = false;
    o.fuse_topk = false;
    o.fuse_agg_project_top = false;
    combos.push_back({"all_off", o});
  }
  return combos;
}

class AblationMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(AblationMatrixTest, AllOptionCombosAgree) {
  int k = GetParam();
  SnbFixture& fx = SnbFixture::Shared();
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  ParamGen gen(&fx.graph, &fx.data, 7700 + k);
  GraphView view(&fx.graph);
  for (int i = 0; i < 3; ++i) {
    LdbcParams p = gen.Next();
    Plan plan = BuildIC(k, ctx, p);
    // Baseline: flat engine (no optimizations by construction).
    auto baseline =
        OrderedRows(Executor(ExecMode::kFlat).Run(plan, view).table);
    for (const OptionCombo& combo : Combos()) {
      for (ExecMode mode :
           {ExecMode::kFactorized, ExecMode::kFactorizedFused}) {
        Executor exec(mode, combo.options);
        auto rows = OrderedRows(exec.Run(plan, view).table);
        EXPECT_EQ(rows, baseline)
            << "IC" << k << " combo=" << combo.name
            << " mode=" << ExecModeName(mode) << " params#" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIC, AblationMatrixTest, ::testing::Range(1, 15),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "IC" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ges

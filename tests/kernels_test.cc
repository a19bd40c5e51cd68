// Differential tests for the compiled expression kernels: random expression
// trees over random typed columns must match the interpreted BoundExpr
// oracle row-by-row — both as selection-vector filters and as computed
// projections — and whole plans must return in every ExecMode the relation
// the interpreted kFlat engine returns.
#include "executor/vector_expr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/string_dict.h"
#include "common/value.h"
#include "executor/executor.h"
#include "executor/expression.h"
#include "executor/fblock.h"
#include "executor/schema.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::SortedRows;

constexpr size_t kRows = 512;

const std::vector<std::string>& StringPool() {
  static const std::vector<std::string> pool = {
      "", "a", "ab", "alpha", "beta", "gamma", "delta", "zzz", "Alpha", "b"};
  return pool;
}

// A block of random typed columns. One string column stays
// dictionary-encoded, one decays to owned strings, so both kernel paths
// (code compare / decoded compare) are exercised. A `lazy` block leads with
// a pointer-join vertex column "v" whose ids live in adjacency-like
// segments of random sizes, some empty.
struct ColumnSet {
  StringDict dict;
  std::vector<std::vector<VertexId>> segments;
  FBlock block;

  explicit ColumnSet(std::mt19937& rng, bool lazy = false) {
    int base = 0;
    if (lazy) {
      block.InitLazy("v");
      std::uniform_int_distribution<size_t> len(0, 40);
      std::uniform_int_distribution<VertexId> id(0, 999);
      for (size_t rows = 0; rows < kRows;) {
        segments.emplace_back(std::min(len(rng), kRows - rows));
        for (VertexId& v : segments.back()) v = id(rng);
        rows += segments.back().size();
      }
      for (const std::vector<VertexId>& seg : segments) {
        block.AppendSegment(AdjSpan{seg.data(), nullptr,
                                    static_cast<uint32_t>(seg.size())});
      }
      base = 1;
    }
    auto add = [&](const std::string& name, ValueType t, bool use_dict) {
      ValueVector col(t);
      if (t == ValueType::kString && use_dict) col.InitDict(&dict);
      std::uniform_int_distribution<int> ints(-1000, 1000);
      std::uniform_int_distribution<size_t> strs(0, StringPool().size() - 1);
      std::uniform_real_distribution<double> dbls(-100.0, 100.0);
      for (size_t r = 0; r < kRows; ++r) {
        switch (t) {
          case ValueType::kString:
            col.AppendString(StringPool()[strs(rng)]);
            break;
          case ValueType::kDouble:
            // One row in 32 is NaN: comparisons must stay NaN-tolerant.
            col.AppendDouble(ints(rng) % 32 == 0
                                 ? std::numeric_limits<double>::quiet_NaN()
                                 : dbls(rng));
            break;
          case ValueType::kBool:
            col.AppendValue(Value::Bool(ints(rng) % 2 == 0));
            break;
          default:
            col.AppendInt(ints(rng));
            break;
        }
      }
      block.AddColumn(name, std::move(col));
    };
    // Pool strings are interned up front so the dict column never decays.
    for (const std::string& s : StringPool()) dict.Intern(s);
    add("i0", ValueType::kInt64, false);
    add("i1", ValueType::kInt64, false);
    add("d0", ValueType::kDouble, false);
    add("s0", ValueType::kString, true);   // dictionary codes
    add("s1", ValueType::kString, false);  // owned strings
    add("t0", ValueType::kDate, false);
    add("b0", ValueType::kBool, false);
    EXPECT_EQ(block.NumRows(), kRows);
    EXPECT_TRUE(block.Column(base + 3).dict_encoded());
    EXPECT_FALSE(block.Column(base + 4).dict_encoded());
  }
};

// Random expression generator. Magnitudes are bounded so arithmetic cannot
// overflow int64 (UB under UBSan): |const| <= 1000, arith depth <= 2.
struct ExprGen {
  std::mt19937& rng;
  const Schema& schema;

  int Pick(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  }

  Value RandConst() {
    switch (Pick(6)) {
      case 0:
        return Value::Int(Pick(2001) - 1000);
      case 1:
        return Value::Double(Pick(4) == 0
                                 ? std::numeric_limits<double>::quiet_NaN()
                                 : (Pick(2001) - 1000) / 7.0);
      case 2:
        return Value::String(StringPool()[Pick(
            static_cast<int>(StringPool().size()))]);
      case 3:
        return Value::Bool(Pick(2) == 0);
      case 4:
        return Value::Date(Pick(2001) - 1000);
      default:
        return Value::Null();
    }
  }

  ExprPtr Val(int depth) {
    int c = Pick(depth > 0 ? 4 : 2);
    if (c == 0) return Expr::Lit(RandConst());
    if (c == 1) {
      return Expr::Col(
          schema[Pick(static_cast<int>(schema.size()))].name);
    }
    ExprPtr a = Val(depth - 1);
    ExprPtr b = Val(depth - 1);
    switch (Pick(3)) {
      case 0:
        return Expr::Add(a, b);
      case 1:
        return Expr::Sub(a, b);
      default:
        return Expr::Mul(a, b);
    }
  }

  ExprPtr Bool(int depth) {
    int c = Pick(depth > 0 ? 8 : 5);
    switch (c) {
      case 0: {  // comparison
        static const ExprOp kOps[] = {ExprOp::kEq, ExprOp::kNe, ExprOp::kLt,
                                      ExprOp::kLe, ExprOp::kGt, ExprOp::kGe};
        return Expr::Cmp(kOps[Pick(6)], Val(2), Val(2));
      }
      case 1: {  // IN
        std::vector<Value> list;
        int n = 1 + Pick(4);
        for (int i = 0; i < n; ++i) list.push_back(RandConst());
        return Expr::In(Val(1), std::move(list));
      }
      case 2:
        return Expr::IsNull(Val(1));
      case 3:
        return Expr::StartsWith(
            Val(1), StringPool()[Pick(static_cast<int>(StringPool().size()))]);
      case 4:  // raw value in bool position
        return Val(1);
      case 5:
        return Expr::Not(Bool(depth - 1));
      case 6:
        return Expr::And(Bool(depth - 1), Bool(depth - 1));
      default:
        return Expr::Or(Bool(depth - 1), Bool(depth - 1));
    }
  }
};

// The oracle: interpreted evaluation against the same columns.
Value OracleValue(const BoundExpr& e, const FBlock& block, size_t r) {
  return e.Eval([&](int i) -> Value { return block.GetValue(r, i); });
}
bool OracleRow(const BoundExpr& pred, const FBlock& block, size_t r) {
  return OracleValue(pred, block, r).AsBool();
}

// Kernel values against interpreted ones; NaN != NaN under
// Value::operator==, so doubles compare bit patterns.
void ExpectSameValue(const Value& got, const Value& want,
                     const std::string& what) {
  if (got.type() == ValueType::kDouble && want.type() == ValueType::kDouble) {
    EXPECT_EQ(got.AsInt(), want.AsInt()) << what;
  } else {
    EXPECT_EQ(got, want) << what;
  }
}

class KernelDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelDifferentialTest, FilterMatchesInterpreterRowByRow) {
  std::mt19937 rng(1234 + GetParam());
  ColumnSet cs(rng);
  ExprGen gen{rng, cs.block.schema()};

  for (int trial = 0; trial < 150; ++trial) {
    ExprPtr e = gen.Bool(3);
    std::unique_ptr<CompiledExpr> kernel =
        CompiledExpr::CompileFilter(*e, cs.block);
    ASSERT_NE(kernel, nullptr) << e->ToString();

    std::vector<uint8_t> sel(kRows, 1);
    kernel->EvalFilter(sel.data(), 0, kRows);
    BoundExpr pred = BoundExpr::Bind(*e, cs.block.schema());
    for (size_t r = 0; r < kRows; ++r) {
      bool expect = OracleRow(pred, cs.block, r);
      ASSERT_EQ(sel[r] != 0, expect)
          << "row " << r << " of " << e->ToString();
    }
  }
}

TEST_P(KernelDifferentialTest, FilterOnlyRefinesItsRange) {
  std::mt19937 rng(4321 + GetParam());
  ColumnSet cs(rng);
  ExprGen gen{rng, cs.block.schema()};

  for (int trial = 0; trial < 40; ++trial) {
    ExprPtr e = gen.Bool(2);
    std::unique_ptr<CompiledExpr> kernel =
        CompiledExpr::CompileFilter(*e, cs.block);
    ASSERT_NE(kernel, nullptr);

    // Pre-zeroed rows must stay zero; rows outside [lo, hi) untouched.
    std::vector<uint8_t> sel(kRows);
    for (size_t r = 0; r < kRows; ++r) sel[r] = (r % 3 != 0) ? 1 : 0;
    std::vector<uint8_t> before = sel;
    size_t lo = kRows / 4, hi = 3 * kRows / 4;
    kernel->EvalFilter(sel.data(), lo, hi);

    BoundExpr pred = BoundExpr::Bind(*e, cs.block.schema());
    for (size_t r = 0; r < kRows; ++r) {
      if (r < lo || r >= hi) {
        ASSERT_EQ(sel[r], before[r]) << "row " << r << " outside range";
      } else if (before[r] == 0) {
        ASSERT_EQ(sel[r], 0) << "zero row revived at " << r;
      } else {
        ASSERT_EQ(sel[r] != 0, OracleRow(pred, cs.block, r))
            << "row " << r << " of " << e->ToString();
      }
    }
  }
}

TEST_P(KernelDifferentialTest, ProjectMatchesInterpreterRowByRow) {
  std::mt19937 rng(9876 + GetParam());
  ColumnSet cs(rng);
  ExprGen gen{rng, cs.block.schema()};

  for (int trial = 0; trial < 80; ++trial) {
    // Mix of value expressions and predicates-as-values (BoolWrap path).
    ExprPtr e = trial % 3 == 0 ? gen.Bool(2) : gen.Val(2);
    std::unique_ptr<CompiledExpr> kernel =
        CompiledExpr::CompileProject(*e, cs.block);
    ASSERT_NE(kernel, nullptr) << e->ToString();

    ValueVector got(kernel->result_type());
    kernel->EvalProject(0, kRows, &got);
    ASSERT_EQ(got.size(), kRows);

    ValueVector want(kernel->result_type());
    BoundExpr be = BoundExpr::Bind(*e, cs.block.schema());
    for (size_t r = 0; r < kRows; ++r) {
      want.AppendValue(OracleValue(be, cs.block, r));
    }
    for (size_t r = 0; r < kRows; ++r) {
      ExpectSameValue(got.GetValue(r), want.GetValue(r),
                      "row " + std::to_string(r) + " of " + e->ToString());
    }
  }
}

TEST_P(KernelDifferentialTest, DictColumnProjectAdoptsDictionary) {
  std::mt19937 rng(555 + GetParam());
  ColumnSet cs(rng);
  ExprPtr e = Expr::Col("s0");
  std::unique_ptr<CompiledExpr> kernel =
      CompiledExpr::CompileProject(*e, cs.block);
  ASSERT_NE(kernel, nullptr);
  ASSERT_EQ(kernel->result_type(), ValueType::kString);
  ValueVector out(ValueType::kString);
  kernel->EvalProject(0, kRows, &out);
  EXPECT_TRUE(out.dict_encoded());  // code copy, not string copy
  for (size_t r = 0; r < kRows; ++r) {
    ASSERT_EQ(out.GetString(r), cs.block.Column(3).GetString(r))
        << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferentialTest,
                         ::testing::Range(0, 8));

// The head column of a lazy (pointer-join) block has no vector: its kernel
// reads the ids from the block's segments one row range at a time. Filters
// and projections that read it compile and match the interpreter row by
// row, also when a range starts or ends inside a segment.
TEST(LazyHeadKernelTest, CompilesAndMatchesInterpreterRowByRow) {
  constexpr size_t kMorsel = 37;  // ranges that split segments
  for (int seed = 0; seed < 4; ++seed) {
    std::mt19937 rng(777 + seed);
    ColumnSet cs(rng, /*lazy=*/true);
    ExprGen gen{rng, cs.block.schema()};
    ExprPtr v = Expr::Col("v");
    std::vector<ExprPtr> filters = {
        Expr::Lt(v, Expr::Lit(Value::Vertex(500))),
        Expr::Ge(v, Expr::Lit(Value::Vertex(250))),
        Expr::Ne(v, Expr::Lit(Value::Vertex(cs.segments.back().back()))),
        Expr::In(v, {Value::Vertex(cs.segments[0][0]), Value::Int(7)}),
        Expr::Gt(v, Expr::Col("i0"))};
    for (int t = 0; t < 60; ++t) filters.push_back(gen.Bool(3));
    for (const ExprPtr& e : filters) {
      std::unique_ptr<CompiledExpr> kernel =
          CompiledExpr::CompileFilter(*e, cs.block);
      ASSERT_NE(kernel, nullptr) << e->ToString();
      std::vector<uint8_t> sel(kRows, 1);
      for (size_t lo = 0; lo < kRows; lo += kMorsel) {
        kernel->EvalFilter(sel.data(), lo, std::min(kRows, lo + kMorsel));
      }
      BoundExpr pred = BoundExpr::Bind(*e, cs.block.schema());
      for (size_t r = 0; r < kRows; ++r) {
        ASSERT_EQ(sel[r] != 0, OracleRow(pred, cs.block, r))
            << "row " << r << " of " << e->ToString();
      }
    }
    std::vector<ExprPtr> values = {
        v, Expr::Add(v, Expr::Col("d0")),
        Expr::Mul(v, Expr::Lit(Value::Int(3)))};
    for (int t = 0; t < 40; ++t) {
      values.push_back(t % 3 == 0 ? gen.Bool(2) : gen.Val(2));
    }
    for (const ExprPtr& e : values) {
      std::unique_ptr<CompiledExpr> kernel =
          CompiledExpr::CompileProject(*e, cs.block);
      ASSERT_NE(kernel, nullptr) << e->ToString();
      ValueVector got(kernel->result_type());
      for (size_t lo = 0; lo < kRows; lo += kMorsel) {
        kernel->EvalProject(lo, std::min(kRows, lo + kMorsel), &got);
      }
      ValueVector want(kernel->result_type());
      BoundExpr be = BoundExpr::Bind(*e, cs.block.schema());
      for (size_t r = 0; r < kRows; ++r) {
        want.AppendValue(OracleValue(be, cs.block, r));
      }
      ASSERT_EQ(got.size(), kRows);
      for (size_t r = 0; r < kRows; ++r) {
        ExpectSameValue(got.GetValue(r), want.GetValue(r),
                        "row " + std::to_string(r) + " of " + e->ToString());
      }
    }
  }
}

// --- end-to-end: every ExecMode against the interpreted kFlat engine -----

// A graph whose single label carries int, double, string (dictionary),
// and date properties — enough surface for the random predicates above.
struct PropGraph {
  Graph graph;
  LabelId node = kInvalidLabel;
  LabelId link = kInvalidLabel;
  PropertyId id, age, score, name, day;
  RelationId out_rel = kInvalidRelation;

  explicit PropGraph(uint32_t seed) {
    std::mt19937 rng(seed);
    Catalog& c = graph.catalog();
    node = c.AddVertexLabel("NODE");
    link = c.AddEdgeLabel("LINK");
    id = c.AddProperty(node, "id", ValueType::kInt64);
    age = c.AddProperty(node, "age", ValueType::kInt64);
    score = c.AddProperty(node, "score", ValueType::kDouble);
    name = c.AddProperty(node, "name", ValueType::kString);
    day = c.AddProperty(node, "day", ValueType::kDate);
    graph.RegisterRelation(node, link, node);

    std::uniform_int_distribution<int> ints(-1000, 1000);
    std::uniform_real_distribution<double> dbls(-100.0, 100.0);
    std::uniform_int_distribution<size_t> strs(0, StringPool().size() - 1);
    constexpr int kN = 400;
    std::vector<VertexId> vs;
    for (int i = 0; i < kN; ++i) {
      VertexId v = graph.AddVertexBulk(node, i);
      graph.SetPropertyBulk(v, id, Value::Int(i));
      graph.SetPropertyBulk(v, age, Value::Int(ints(rng)));
      graph.SetPropertyBulk(v, score, Value::Double(dbls(rng)));
      graph.SetPropertyBulkString(v, name, StringPool()[strs(rng)]);
      graph.SetPropertyBulk(v, day, Value::Date(ints(rng)));
      vs.push_back(v);
    }
    for (int i = 0; i < kN; ++i) {
      for (int e = 0; e < 3; ++e) {
        graph.AddEdgeBulk(link, vs[i], vs[(i * 7 + e * 13 + 1) % kN], 0);
      }
    }
    graph.FinalizeBulk();
    out_rel = graph.FindRelation(node, link, node, Direction::kOut);
  }
};

TEST(KernelEngineEquivalenceTest, AllModesAgreeWithFlat) {
  PropGraph pg(99);
  GraphView view(&pg.graph);
  std::mt19937 rng(2024);

  Schema pred_schema;
  pred_schema.Add("age", ValueType::kInt64);
  pred_schema.Add("score", ValueType::kDouble);
  pred_schema.Add("name", ValueType::kString);
  pred_schema.Add("day", ValueType::kDate);
  ExprGen gen{rng, pred_schema};

  for (int trial = 0; trial < 25; ++trial) {
    Plan plan;
    plan.name = "kernels_e2e";
    {
      PlanOp scan;
      scan.type = OpType::kScanByLabel;
      scan.out_column = "n";
      scan.label = pg.node;
      plan.ops.push_back(std::move(scan));
    }
    auto get = [&](const char* col, PropertyId p, ValueType t) {
      PlanOp op;
      op.type = OpType::kGetProperty;
      op.in_column = "n";
      op.out_column = col;
      op.property = p;
      op.property_type = t;
      plan.ops.push_back(std::move(op));
    };
    get("age", pg.age, ValueType::kInt64);
    get("score", pg.score, ValueType::kDouble);
    get("name", pg.name, ValueType::kString);
    get("day", pg.day, ValueType::kDate);
    {
      PlanOp f;
      f.type = OpType::kFilter;
      f.predicate = gen.Bool(3);
      plan.ops.push_back(std::move(f));
    }
    {
      PlanOp pr;
      pr.type = OpType::kProject;
      pr.computed.push_back(
          ComputedColumn{Expr::Add(Expr::Col("age"), Expr::Lit(Value::Int(1))),
                         "age1", ValueType::kInt64});
      plan.ops.push_back(std::move(pr));
    }
    plan.output = {"n", "age", "score", "name", "day", "age1"};

    std::vector<std::string> baseline =
        SortedRows(Executor(ExecMode::kFlat).Run(plan, view).table);
    for (ExecMode mode : {ExecMode::kVolcano, ExecMode::kFlat,
                          ExecMode::kFactorized, ExecMode::kFactorizedFused}) {
      auto rows = SortedRows(Executor(mode).Run(plan, view).table);
      EXPECT_EQ(rows, baseline)
          << "mode=" << ExecModeName(mode) << " trial=" << trial;
    }
  }
}

// The fused expand-filter path: predicates over a neighbor property, with
// and without keeping the property column, against kFlat's stepwise
// expand, fetch and filter.
TEST(KernelEngineEquivalenceTest, FusedExpandFilterAgrees) {
  PropGraph pg(7);
  GraphView view(&pg.graph);
  std::mt19937 rng(31);

  for (int trial = 0; trial < 20; ++trial) {
    std::uniform_int_distribution<int> ints(-1000, 1000);
    // Like FilterPushDown's fused ops, each predicate reads only the fused
    // property column (m_age for the age trials, m_name otherwise).
    ExprPtr pred;
    switch (trial % 4) {
      case 0:
        pred = Expr::Gt(Expr::Col("m_age"), Expr::Lit(Value::Int(ints(rng))));
        break;
      case 1:
        pred = Expr::Eq(Expr::Col("m_name"),
                        Expr::Lit(Value::String(
                            StringPool()[trial % StringPool().size()])));
        break;
      case 2:
        pred = Expr::StartsWith(Expr::Col("m_name"), "a");
        break;
      default:
        pred = Expr::And(
            Expr::Ge(Expr::Col("m_name"), Expr::Lit(Value::String("alpha"))),
            Expr::Ne(Expr::Col("m_name"), Expr::Lit(Value::String("zzz"))));
        break;
    }
    Plan plan;
    plan.name = "fused_expand_filter";
    {
      PlanOp scan;
      scan.type = OpType::kScanByLabel;
      scan.out_column = "n";
      scan.label = pg.node;
      plan.ops.push_back(std::move(scan));
    }
    {
      PlanOp ex;
      ex.type = OpType::kExpandFiltered;
      ex.in_column = "n";
      ex.out_column = "m";
      ex.rels = {pg.out_rel};
      ex.property = trial % 4 == 0 ? pg.age : pg.name;
      ex.property_type =
          trial % 4 == 0 ? ValueType::kInt64 : ValueType::kString;
      // The fused property column the predicate reads (FusedPropertyColumn).
      ex.other_column = trial % 4 == 0 ? "m_age" : "m_name";
      ex.keep_property = trial % 2 == 0;
      ex.predicate = pred;
      plan.ops.push_back(std::move(ex));
    }
    plan.output = {"n", "m"};

    std::vector<std::string> baseline =
        SortedRows(Executor(ExecMode::kFlat).Run(plan, view).table);
    for (ExecMode mode : {ExecMode::kFactorized, ExecMode::kFactorizedFused}) {
      for (int threads : {1, 4}) {
        ExecOptions o;
        o.intra_query_threads = threads;
        auto rows = SortedRows(Executor(mode, o).Run(plan, view).table);
        EXPECT_EQ(rows, baseline)
            << "mode=" << ExecModeName(mode) << " threads=" << threads
            << " trial=" << trial;
      }
    }
  }
}

// A Filter and a computed Project that read the head column of a lazy
// Expand leaf, which has no vector: both run as kernels over the leaf's
// adjacency segments and agree with kFlat.
TEST(KernelEngineEquivalenceTest, LazyHeadPredicateRunsAsKernel) {
  PropGraph pg(11);
  GraphView view(&pg.graph);
  for (int64_t cut : {-200, 0, 300}) {
    PlanBuilder b("lazy_head_filter");
    b.ScanByLabel("n", pg.node)
        .Expand("n", "m", {pg.out_rel})
        .GetProperty("m", pg.age, ValueType::kInt64, "m_age")
        .Filter(Expr::And(
            Expr::Gt(Expr::Col("m_age"), Expr::Lit(Value::Int(cut))),
            Expr::Lt(Expr::Col("m"), Expr::Lit(Value::Vertex(150)))))
        .Project({}, {ComputedColumn{Expr::Add(Expr::Col("m"),
                                               Expr::Col("m_age")),
                                     "m_sum", ValueType::kInt64},
                      ComputedColumn{Expr::Col("m"), "m_copy",
                                     ValueType::kVertex}})
        .Output({"n", "m", "m_age", "m_sum", "m_copy"});
    Plan plan = b.Build();
    std::vector<std::string> baseline =
        SortedRows(Executor(ExecMode::kFlat).Run(plan, view).table);
    ASSERT_FALSE(baseline.empty()) << "cut=" << cut;
    for (ExecMode mode : {ExecMode::kFactorized, ExecMode::kFactorizedFused}) {
      for (int threads : {1, 4}) {
        ExecOptions o;
        o.intra_query_threads = threads;
        auto rows = SortedRows(Executor(mode, o).Run(plan, view).table);
        EXPECT_EQ(rows, baseline)
            << "mode=" << ExecModeName(mode) << " threads=" << threads
            << " cut=" << cut;
      }
    }
  }
}

}  // namespace
}  // namespace ges

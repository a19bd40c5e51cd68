// Filter-kernel selectivity sweep: interpreted BoundExpr row loop vs the
// compiled vectorized kernels (executor/vector_expr.h) on int and
// dictionary-encoded string columns, across selectivities from 1% to 99%.
//
// Shape to reproduce: the kernel wins at every selectivity, and the gap is
// widest on string equality — the interpreted path decodes and compares
// whole strings per row while the kernel compares uint32 dictionary codes
// (>= 2x required; typically far more).
//
// Env knobs: GES_ROWS (default 200000), GES_ITERS (default 10 — set 1 for
// sanitizer smoke runs).
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_dict.h"
#include "common/timer.h"
#include "executor/expression.h"
#include "executor/vector_expr.h"

using namespace ges;
using namespace ges::bench;

namespace {

constexpr int kSelectivities[] = {1, 5, 10, 25, 50, 75, 90, 99};

// Millis for `iters` passes of the interpreted filter loop: a BoundExpr
// evaluated row by row over boxed Values, as the flat engine filters.
double RunInterpreted(const Expr& e, const FBlock& block,
                      std::vector<uint8_t>* sel, int iters) {
  BoundExpr pred = BoundExpr::Bind(e, block.schema());
  const ValueVector& col = block.Column(0);
  size_t rows = col.size();
  Timer t;
  for (int it = 0; it < iters; ++it) {
    std::memset(sel->data(), 1, rows);
    for (size_t r = 0; r < rows; ++r) {
      auto getter = [&](int) -> Value { return col.GetValue(r); };
      if (!pred.Eval(getter).AsBool()) (*sel)[r] = 0;
    }
  }
  return t.ElapsedMillis();
}

double RunKernel(const Expr& e, const FBlock& block, std::vector<uint8_t>* sel,
                 int iters) {
  std::unique_ptr<CompiledExpr> kernel = CompiledExpr::CompileFilter(e, block);
  size_t rows = block.NumRows();
  Timer t;
  for (int it = 0; it < iters; ++it) {
    std::memset(sel->data(), 1, rows);
    kernel->EvalFilter(sel->data(), 0, rows);
  }
  return t.ElapsedMillis();
}

size_t CountSel(const std::vector<uint8_t>& sel) {
  size_t n = 0;
  for (uint8_t b : sel) n += b != 0;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Filter selectivity sweep: interpreted vs compiled kernels "
              "(int compare / dictionary string equality) ==\n");
  size_t rows = static_cast<size_t>(EnvInt("GES_ROWS", 200'000));
  int iters = EnvInt("GES_ITERS", 10);
  std::printf("# rows=%zu iters=%d\n", rows, iters);

  std::mt19937 rng(42);
  std::uniform_int_distribution<int> pct(0, 99);

  // Int column: uniform [0, 100), so `age < s` selects s%.
  FBlock int_block;
  {
    ValueVector age(ValueType::kInt64);
    age.Reserve(rows);
    for (size_t r = 0; r < rows; ++r) age.AppendInt(pct(rng));
    int_block.AddColumn("age", std::move(age));
  }

  // String pool for the non-matching rows of the string sweeps.
  const char* kPool[] = {"alpha", "beta", "gamma", "delta", "epsilon",
                         "zeta",  "eta",  "theta", "iota",  "kappa"};

  BenchJsonReport json("filter_selectivity");
  json.AddScalar("rows", static_cast<double>(rows));
  json.AddScalar("iters", iters);
  TextTable table({"sel%", "int interp", "int kernel", "int x", "str interp",
                   "str kernel", "str x"});

  bool speedup_ok = true;
  for (int s : kSelectivities) {
    // Dictionary string column: `name == "hit"` selects ~s%.
    StringDict dict;
    ValueVector name(ValueType::kString);
    name.InitDict(&dict);
    dict.Intern("hit");
    for (const char* p : kPool) dict.Intern(p);
    name.Reserve(rows);
    std::mt19937 col_rng(1000 + s);
    std::uniform_int_distribution<int> roll(0, 99);
    std::uniform_int_distribution<size_t> pick(0, std::size(kPool) - 1);
    for (size_t r = 0; r < rows; ++r) {
      name.AppendString(roll(col_rng) < s ? "hit" : kPool[pick(col_rng)]);
    }
    FBlock str_block;
    str_block.AddColumn("name", std::move(name));

    ExprPtr int_pred =
        Expr::Lt(Expr::Col("age"), Expr::Lit(Value::Int(s)));
    ExprPtr str_pred =
        Expr::Eq(Expr::Col("name"), Expr::Lit(Value::String("hit")));

    std::vector<uint8_t> sel(rows, 1);
    double int_interp = RunInterpreted(*int_pred, int_block, &sel, iters);
    size_t int_hits_interp = CountSel(sel);
    double int_kernel = RunKernel(*int_pred, int_block, &sel, iters);
    if (CountSel(sel) != int_hits_interp) {
      std::fprintf(stderr, "int kernel/interp disagree at s=%d\n", s);
      return 1;
    }
    double str_interp = RunInterpreted(*str_pred, str_block, &sel, iters);
    size_t str_hits_interp = CountSel(sel);
    double str_kernel = RunKernel(*str_pred, str_block, &sel, iters);
    if (CountSel(sel) != str_hits_interp) {
      std::fprintf(stderr, "string kernel/interp disagree at s=%d\n", s);
      return 1;
    }

    double ix = int_kernel > 0 ? int_interp / int_kernel : 0;
    double sx = str_kernel > 0 ? str_interp / str_kernel : 0;
    char ixs[32], sxs[32];
    std::snprintf(ixs, sizeof(ixs), "%.1fx", ix);
    std::snprintf(sxs, sizeof(sxs), "%.1fx", sx);
    table.AddRow({std::to_string(s), HumanMillis(int_interp),
                  HumanMillis(int_kernel), ixs, HumanMillis(str_interp),
                  HumanMillis(str_kernel), sxs});

    std::string sec = "s";
    sec += std::to_string(s);
    json.AddSectionScalar(sec, "int_interpreted_ms", int_interp);
    json.AddSectionScalar(sec, "int_kernel_ms", int_kernel);
    json.AddSectionScalar(sec, "int_speedup", ix);
    json.AddSectionScalar(sec, "str_interpreted_ms", str_interp);
    json.AddSectionScalar(sec, "str_kernel_ms", str_kernel);
    json.AddSectionScalar(sec, "str_speedup", sx);
    if (sx < 2.0) speedup_ok = false;
  }
  table.Print();
  std::printf("\nPaper shape check: kernel wins everywhere; string equality "
              "via dictionary codes is the largest gap (>= 2x required: "
              "%s).\n",
              speedup_ok ? "PASS" : "FAIL");
  MaybeWriteJson(argc, argv, json);
  return 0;
}

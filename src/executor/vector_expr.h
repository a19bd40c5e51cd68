// Compiled, type-specialized column kernels for scalar expressions — the
// vectorized execution path of Section 4.3/5. A BoundExpr-equivalent is
// compiled once against the physical columns of an f-Block; evaluation then
// runs tight per-type loops over raw column arrays and a shared byte
// selection vector instead of walking the expression tree per row and
// boxing every cell into a Value.
//
// Kernel shapes:
//  * comparisons / IN / StartsWith — branch-free (or skip-aware) loops over
//    int64/double arrays, dictionary codes, or decoded strings;
//  * AND — in-place selection-vector refinement, conjuncts ordered by
//    ascending estimated selectivity (cheapest-to-kill-rows first);
//  * OR — disjuncts ordered by descending estimated selectivity; rows
//    already decided true are skipped for later disjuncts;
//  * arithmetic — typed column math with the interpreter's promotion rules.
//
// Compilation is total: every expression bound against a block's schema
// has a kernel, including one that reads the head column of a lazy
// (pointer-join) block, whose ids are copied from the adjacency segments a
// row range at a time. Filters and projections on the f-Tree therefore
// have no interpreted route; the interpreted BoundExpr (kFlat, Volcano)
// stays the semantic oracle (see tests/kernels_test.cc). Kernel results
// match BoundExpr::Eval bit-for-bit, including the Value union semantics
// (AsBool/AsInt of a double reinterprets bits, AsString of a non-string is
// "") and NaN-tolerant double comparisons.
#ifndef GES_EXECUTOR_VECTOR_EXPR_H_
#define GES_EXECUTOR_VECTOR_EXPR_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "common/value.h"
#include "executor/expression.h"
#include "executor/fblock.h"
#include "executor/schema.h"

namespace ges {

namespace vexpr {
struct BoolNode;
struct ValNode;
}  // namespace vexpr

class CompiledExpr {
 public:
  // Compiles `expr` as a predicate over the rows of `block`, which must
  // outlive the result. Every column `expr` names must be in the block's
  // schema (asserted, as BoundExpr::Bind does). `column_stats`, when
  // provided, replaces the static per-op selectivity guesses with
  // NDV/min-max estimates for the AND/OR conjunct ordering.
  static std::unique_ptr<CompiledExpr> CompileFilter(
      const Expr& expr, const FBlock& block,
      const std::unordered_map<std::string, ColumnStat>* column_stats =
          nullptr);

  // Compiles `expr` as a value producer (computed projections).
  static std::unique_ptr<CompiledExpr> CompileProject(const Expr& expr,
                                                      const FBlock& block);

  ~CompiledExpr();

  // Selection-vector refinement over rows [lo, hi): sel[r] &= predicate(r).
  // Rows already 0 may be skipped. Safe to call concurrently on disjoint
  // ranges (morsel parallelism): all scratch state is call-local.
  void EvalFilter(uint8_t* sel, size_t lo, size_t hi) const;

  // Appends the expression value of rows [lo, hi) to `out`, converting to
  // out->type() with the same semantics as AppendValue(Eval(row)). When the
  // expression is a plain reference to a dict-encoded string column and
  // `out` is a fresh string column, `out` adopts the dictionary and the
  // append is a code copy.
  void EvalProject(size_t lo, size_t hi, ValueVector* out) const;

  // Static type of the compiled value expression (CompileProject only).
  ValueType result_type() const;

 private:
  CompiledExpr(std::unique_ptr<vexpr::BoolNode> b,
               std::unique_ptr<vexpr::ValNode> v);

  std::unique_ptr<vexpr::BoolNode> bool_root_;
  std::unique_ptr<vexpr::ValNode> val_root_;
};

}  // namespace ges

#endif  // GES_EXECUTOR_VECTOR_EXPR_H_

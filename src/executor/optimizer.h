// Operator-fusion plan rewrites (Section 4.3, "Operator Fusion") and the
// statistics-driven cost model (DESIGN.md §14).
#ifndef GES_EXECUTOR_OPTIMIZER_H_
#define GES_EXECUTOR_OPTIMIZER_H_

#include <string>
#include <unordered_map>

#include "executor/executor.h"
#include "executor/plan.h"

namespace ges {

// Applies the heuristic fusion rules enabled in `options` and returns the
// rewritten plan:
//
//  * FilterPushDown — Expand ; GetProperty ; Filter  =>  ExpandFiltered
//    (the predicate is evaluated while neighbors are generated, so unused
//    neighbors and their properties are never listed);
//  * AggregateProjectTop — Aggregate ; [Project] ; OrderBy+Limit  =>
//    one fused operator that aggregates directly on the f-Tree (or streams
//    tuples through group states) and keeps only the top-k rows; a bare
//    Aggregate becomes the same operator with no sort keys and no limit;
//  * TopK — OrderBy with a small LIMIT  =>  bounded-heap de-factoring;
//  * IntersectExpand — Expand ; ExpandInto+ over the new column  =>  one
//    worst-case-optimal multiway intersection (DESIGN.md §12). When `view`
//    is provided, the rewrite is gated by a cost model over the per-label
//    average degrees from the adjacency metadata; without a view it is
//    applied rule-based (the intersection is never asymptotically worse).
//  * Counted Expand — a 1-hop Expand whose out and stamp columns nothing
//    after it reads (not even the plan output) is marked PlanOp::counted:
//    the factorized engine stores only each source row's degree.
//  * Vertex-keyed aggregation — an AggProjectTop whose group keys and
//    aggregate inputs are all functions of one vertex column gets
//    PlanOp::group_vertex, and the counted Expands and GetPropertys from
//    that vertex just before it are marked PlanOp::deferred: the
//    factorized engine applies them once per distinct vertex.
//
// Rewrites preserve result semantics; the equivalence tests run every
// query through fused and unfused plans. The returned plan has
// Plan::optimized set.
Plan OptimizePlan(const Plan& plan, const ExecOptions& options,
                  const GraphView* view = nullptr);

// Maps every intermediate column of `plan` to its statistics: vertex
// columns get their label's vertex count as NDV, property columns their
// (label, property) NDV/min-max from the catalog-owned GraphStats. Empty
// when statistics have not been built yet. The result feeds
// ExecOptions::column_stats (vectorized conjunct ordering) and is cached
// alongside prepared-plan templates.
std::unordered_map<std::string, ColumnStat> CollectPlanColumnStats(
    const Plan& plan, const Graph& graph);

// Estimated fraction of rows surviving `pred` (0..1), using `stats` for
// equality (1/NDV) and range (fraction of [min, max]) predicates and the
// static per-operator guesses otherwise. Parameter placeholders are
// estimated through their first-seen literal hint.
double EstimateSelectivity(
    const Expr& pred,
    const std::unordered_map<std::string, ColumnStat>& stats);

// Fills PlanOp::est_rows for every operator from the degree histograms and
// column statistics (-1 stays where no estimate is possible). Called by
// OptimizePlan when a view is available; exposed for EXPLAIN on non-fused
// plans and for tests.
void AnnotateCardinalities(
    Plan* plan, const Graph& graph,
    const std::unordered_map<std::string, ColumnStat>& column_stats);

}  // namespace ges

#endif  // GES_EXECUTOR_OPTIMIZER_H_

// The GES query executor: one Plan interpreter with four engine variants.
//
//   kVolcano         — tuple-at-a-time row engine (conventional-GDBMS proxy
//                      used in the system-comparison experiments);
//   kFlat            — block-based flat executor: every operator fully
//                      materializes row-oriented intermediate results
//                      (the paper's "GES" baseline);
//   kFactorized      — the factorized executor: operators run natively on
//                      the f-Tree, de-factoring only when required
//                      (the paper's "GES_f");
//   kFactorizedFused — the same factorized executor running the plan
//                      OptimizePlan rewrites (FilterPushDown into Expand,
//                      TopK during de-factoring, AggregateProjectTop,
//                      IntersectExpand); the paper's "GES_f*". GES_f* differs
//                      from GES_f only by the plan it runs.
//
// All variants interpret the same Plan and must produce identical result
// relations (up to row order before the final OrderBy), which the test
// suite verifies — our stand-in for the LDBC audit. kVolcano and kFlat
// evaluate expressions through the interpreted expression walk and serve as
// the reference for the factorized engines, whose filters and computed
// projections on the f-Tree run compiled column kernels (vector_expr.h).
#ifndef GES_EXECUTOR_EXECUTOR_H_
#define GES_EXECUTOR_EXECUTOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "executor/flatblock.h"
#include "executor/graph_view.h"
#include "executor/plan.h"
#include "executor/schema.h"
#include "runtime/query_context.h"

namespace ges {

enum class ExecMode : uint8_t {
  kVolcano,
  kFlat,
  kFactorized,
  kFactorizedFused,
};

const char* ExecModeName(ExecMode mode);

struct ExecOptions {
  // Pointer-based join: Expand stores (ptr, len) into adjacency arrays
  // instead of copying neighbor ids (factorized modes only).
  bool pointer_join = true;
  // Maximum concurrent workers for intra-query parallelism (the Runtime
  // component of Figure 1). <= 1 = sequential. Operators whose f-Tree
  // locality makes them embarrassingly parallel — Expand over source rows,
  // the vectorized filter kernel, and the Lemma 4.4 de-factor loop — run
  // as morsels on the process-wide TaskScheduler (runtime/scheduler.h),
  // the same pool the driver uses for inter-query parallelism. Results are
  // bit-identical for every setting.
  int intra_query_threads = 1;
  // Individual fusion rules, read by OptimizePlan (which kFactorizedFused
  // runs on plans not yet optimized).
  bool fuse_filter_into_expand = true;
  bool fuse_topk = true;
  bool fuse_agg_project_top = true;
  // Worst-case-optimal rewrite (DESIGN.md §12): a 1-hop Expand followed by
  // an ExpandInto chain over its output column becomes one IntersectExpand
  // (leapfrog multiway intersection), gated by the degree-based cost model
  // when adjacency statistics are available. Disable to ablate against the
  // binary Expand + ExpandInto plan.
  bool intersect_expand = true;
  // Per-operator memory/row accounting (Figure 3, Table 2). Disable for
  // pure-throughput runs to avoid measurement overhead.
  bool collect_stats = true;
  // Deadline/cancellation context (service layer). Not owned; may be null
  // (direct engine use). When set, operators poll it at morsel boundaries
  // and Run() reports interruption via QueryResult::interrupted instead of
  // finishing the query.
  QueryContext* context = nullptr;
  // Per-column statistics (CollectPlanColumnStats, optimizer.h) consumed by
  // the vectorized compiler so conjunct ordering uses real NDV / min-max
  // instead of static guesses. Not owned; may be null.
  const std::unordered_map<std::string, ColumnStat>* column_stats = nullptr;
};

struct OpStats {
  std::string op;
  double millis = 0;
  // Size of the live intermediate representation after the operator.
  size_t intermediate_bytes = 0;
  uint64_t rows = 0;  // encoded tuples after the operator
  // Optimizer estimate for this operator (PlanOp::est_rows); -1 when the
  // plan was built without statistics. EXPLAIN ANALYZE prints est vs rows.
  double est_rows = -1;
  // Intersection counters (kIntersectExpand / membership probes); all-zero
  // for operators that never gallop. Shown by ExplainAnalyze.
  IntersectOpStats intersect;
};

struct QueryStats {
  double total_millis = 0;
  // Peak intermediate-result footprint across the pipeline (Table 2).
  size_t peak_intermediate_bytes = 0;
  // Peak bytes charged to the query's MemoryBudget (resource governor,
  // DESIGN.md §15); collected even with collect_stats off. Zero when no
  // budget was attached (direct engine use without a context).
  size_t peak_memory_bytes = 0;
  std::vector<OpStats> ops;
  // Query-wide intersection counters, collected even when per-op stats are
  // off (collect_stats=false): the service aggregates these into
  // ServiceStats so galloping regressions stay observable in production.
  IntersectOpStats intersect;
};

struct QueryResult {
  FlatBlock table;
  QueryStats stats;
  // kNone on normal completion; otherwise the query was cut short by
  // ExecOptions::context (table holds whatever was materialized so far and
  // must not be treated as the query answer).
  InterruptReason interrupted = InterruptReason::kNone;
};

class Executor {
 public:
  explicit Executor(ExecMode mode, ExecOptions options = ExecOptions{})
      : mode_(mode), options_(options) {}

  ExecMode mode() const { return mode_; }
  const ExecOptions& options() const { return options_; }

  // Executes `plan` against the snapshot. kFactorizedFused first runs
  // OptimizePlan on a plan that has not been through it (!plan.optimized);
  // an optimized plan, such as a prepared-statement template, runs as
  // stored.
  QueryResult Run(const Plan& plan, const GraphView& view) const;

 private:
  QueryResult RunFlat(const Plan& plan, const GraphView& view) const;
  QueryResult RunFactorized(const Plan& plan, const GraphView& view) const;

  ExecMode mode_;
  ExecOptions options_;
};

// Volcano interpreter (volcano.cc).
QueryResult RunVolcano(const Plan& plan, const GraphView& view);

// --- shared helpers (used by all engine variants) ---

// Collects the (multi-hop) neighbors of `src` via the union of `rels`,
// honoring min/max hops, distinct (min-distance BFS semantics) and
// exclude_start. Appends (vertex, distance) pairs; for 1-hop non-distinct
// expansion the adjacency order is preserved and `stamps` (if non-null)
// receives the edge stamps. The BFS runs on per-thread state (a visited
// bitmap over vertex ids and the discovery queue), which it allocates only
// when the graph or the reached set outgrows what the thread has seen.
void CollectNeighbors(const GraphView& view,
                      const std::vector<RelationId>& rels, VertexId src,
                      int min_hops, int max_hops, bool distinct,
                      bool exclude_start,
                      std::vector<std::pair<VertexId, int>>* out,
                      std::vector<int64_t>* stamps = nullptr);

// Sorts `block` rows by `keys` and truncates to `limit`. Returns at once
// when there are no keys and the limit keeps every row (the unsorted
// AggProjectTop).
void SortAndLimit(FlatBlock* block, const std::vector<SortKey>& keys,
                  uint64_t limit);

// Hash-aggregates `block`; returns the grouped result.
FlatBlock HashAggregate(const FlatBlock& block,
                        const std::vector<std::string>& group_by,
                        const std::vector<AggSpec>& aggs);

// Applies a kProject op to a flat block.
FlatBlock ProjectFlat(const FlatBlock& block, const PlanOp& op);

}  // namespace ges

#endif  // GES_EXECUTOR_EXECUTOR_H_

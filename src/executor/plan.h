// Physical plan representation shared by all engine variants.
//
// A Plan is a linear operator pipeline (the shape of every LDBC interactive
// query after optimization; see Figure 8 of the paper) plus the output
// projection. The same Plan is interpreted by the Volcano, flat and
// factorized executors, which makes cross-engine result equivalence
// directly testable.
#ifndef GES_EXECUTOR_PLAN_H_
#define GES_EXECUTOR_PLAN_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "executor/expression.h"
#include "executor/flatblock.h"
#include "executor/graph_view.h"

namespace ges {

enum class OpType : uint8_t {
  kNodeByIdSeek,   // locate one vertex by (label, external id)
  kScanByLabel,    // all vertices of a label
  kExpand,         // (multi-hop) neighbor expansion
  kGetProperty,    // fetch a vertex property into a new column
  kFilter,         // predicate filter
  kProject,        // select / rename / compute columns
  kOrderBy,        // sort (with optional limit)
  kAggregate,      // group-by + aggregates
  kLimit,
  kDistinct,
  kExpandInto,     // edge-existence (semi/anti join) between bound columns
  kProcedure,      // stored-procedure escape hatch (IC13/IC14 path queries)
  // Fused operators (emitted by OptimizePlan for GES_f*):
  kExpandFiltered,  // Expand + GetProperty + Filter fused (FilterPushDown)
  kTopK,            // OrderBy+Limit fused into de-factoring (bounded heap)
  kAggProjectTop,   // Aggregate + [Project] + [OrderBy/Limit] fused
  // Worst-case-optimal multiway intersection (DESIGN.md §12): expands
  // in_column over `rels` and keeps only neighbors adjacent to every probe
  // column — a leapfrog intersection of k sorted adjacency lists.
  kIntersectExpand,
};

const char* OpTypeName(OpType t);

struct SortKey {
  std::string column;
  bool ascending = true;
};

struct AggSpec {
  enum Fn : uint8_t { kCount, kCountDistinct, kSum, kMin, kMax, kAvg };
  Fn fn = kCount;
  std::string input;   // empty for COUNT(*)
  std::string output;  // result column name
};

// A computed output column (used by kProject and inside kAggProjectTop).
struct ComputedColumn {
  ExprPtr expr;
  std::string name;
  ValueType type = ValueType::kInt64;
};

struct PlanOp {
  OpType type;

  // Common column naming.
  std::string in_column;   // consumed column (e.g. expand source)
  std::string out_column;  // produced column

  // kNodeByIdSeek / kScanByLabel.
  LabelId label = kInvalidLabel;
  int64_t seek_ext_id = 0;
  int seek_param = -1;  // when >= 0, seek_ext_id is bound from parameter $k

  // Optimizer cardinality estimate (rows out of this operator); -1 when the
  // plan was built without statistics. Surfaced by EXPLAIN ANALYZE.
  double est_rows = -1;

  // kExpand / kExpandFiltered / kExpandInto: adjacency tables to union
  // (e.g. HAS_CREATOR from both POST and COMMENT).
  std::vector<RelationId> rels;
  int min_hops = 1;
  int max_hops = 1;
  bool distinct = false;       // dedup neighbors per source (multi-hop)
  bool exclude_start = false;  // drop the source vertex itself
  std::string distance_column;  // optional hop-distance output
  std::string stamp_column;     // optional edge-stamp output
  // Set by OptimizePlan on a 1-hop kExpand whose out and stamp columns no
  // later op and no plan output reads: the factorized engine then keeps
  // only each source row's degree (a columnless child of that many rows).
  // The other engines ignore it.
  bool counted = false;
  // Set by OptimizePlan on the counted Expands and GetPropertys from an
  // AggProjectTop's group_vertex that run just before it: while the state
  // is an f-Tree, the factorized engine skips them and the AggProjectTop
  // applies them once per distinct vertex. The other engines ignore it.
  bool deferred = false;

  // kGetProperty (+ fused property inside kExpandFiltered).
  PropertyId property = kInvalidProperty;
  ValueType property_type = ValueType::kNull;
  bool keep_property = true;  // kExpandFiltered: keep the fetched column?

  // kFilter / kExpandFiltered.
  ExprPtr predicate;

  // kOrderBy / kTopK / kLimit.
  std::vector<SortKey> sort_keys;
  uint64_t limit = std::numeric_limits<uint64_t>::max();

  // kAggregate / kAggProjectTop.
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggs;
  // kAggProjectTop: set by OptimizePlan when every group key and aggregate
  // input is a function of this one vertex column (the vertex itself, a
  // property read from it, or the fused property of the ExpandFiltered
  // that produced it). The factorized engine then folds each distinct
  // vertex once, weighted by its summed tuple counts; the other engines
  // ignore it.
  std::string group_vertex;

  // kProject (select existing columns and/or computed expressions).
  std::vector<std::pair<std::string, std::string>> selections;  // (col, as)
  std::vector<ComputedColumn> computed;

  // kExpandInto: checks edge existence between in_column and other_column.
  std::string other_column;
  bool anti = false;

  // kIntersectExpand: already-bound probe columns; a candidate neighbor of
  // in_column survives iff every probe vertex also has an edge to it
  // through the matching probe_rels entry (OR across that entry's rels).
  // The driver (in_column/rels) fixes result multiplicity and order, so
  // the operator is row-for-row equivalent to Expand + an ExpandInto chain.
  std::vector<std::string> probe_columns;
  std::vector<std::vector<RelationId>> probe_rels;

  // kProcedure.
  std::function<FlatBlock(const GraphView&)> procedure;
};

// Columns `op` reads from its input. A kDistinct reads every live column
// and lists none here.
std::vector<std::string> ConsumedColumns(const PlanOp& op);

struct Plan {
  std::vector<PlanOp> ops;
  // Number of positional parameters ($0..$n-1) this plan template expects;
  // 0 for fully-literal plans. Set by CompileTemplate, consumed by
  // BindPlanParams and the prepared-statement layer.
  int param_count = 0;
  // Final output column order (names must exist after the last op). When
  // empty, every live column is returned, but the column ORDER is then
  // engine-specific (the flat engine uses creation order, the factorized
  // engine uses f-Tree preorder); set an explicit output for cross-engine
  // comparable results.
  std::vector<std::string> output;
  std::string name;  // for reporting (e.g. "IC5")
  // Set by OptimizePlan, and only there: the ops are already the fused
  // GES_f* form, so kFactorizedFused runs them as they are. Copies (such
  // as BindPlanParams' bound plan) keep it.
  bool optimized = false;
};

// Fluent plan construction. Example (the paper's Figure 8 query):
//   PlanBuilder b("example");
//   b.NodeByIdSeek("p", person, p0)
//    .Expand("p", "f", {knows_out}, 1, 2, /*distinct=*/true)
//    .Expand("f", "msg", {creator_in_post, creator_in_comment})
//    .GetProperty("msg", len_prop, ValueType::kInt64, "msg_len")
//    .Filter(Expr::Gt(Expr::Col("msg_len"), Expr::Lit(Value::Int(125))))
//    .OrderBy({{"msg_len", false}, {"f", true}}, 2)
//    .Output({"f", "msg", "msg_len"});
class PlanBuilder {
 public:
  explicit PlanBuilder(std::string name) { plan_.name = std::move(name); }

  PlanBuilder& NodeByIdSeek(std::string out, LabelId label, int64_t ext_id);
  // Parameterized seek: the external id comes from parameter $param at bind
  // time; `hint` (the first-seen literal) is used for costing only.
  PlanBuilder& NodeByIdSeekParam(std::string out, LabelId label, int param,
                                 int64_t hint);
  PlanBuilder& ScanByLabel(std::string out, LabelId label);
  PlanBuilder& Expand(std::string in, std::string out,
                      std::vector<RelationId> rels, int min_hops = 1,
                      int max_hops = 1, bool distinct = false,
                      bool exclude_start = false);
  // Expand emitting auxiliary columns (distance and/or edge stamp).
  PlanBuilder& ExpandEx(std::string in, std::string out,
                        std::vector<RelationId> rels, int min_hops,
                        int max_hops, bool distinct, bool exclude_start,
                        std::string distance_column,
                        std::string stamp_column);
  PlanBuilder& GetProperty(std::string vertex_col, PropertyId prop,
                           ValueType type, std::string out);
  PlanBuilder& Filter(ExprPtr predicate);
  PlanBuilder& Project(std::vector<std::pair<std::string, std::string>> sel,
                       std::vector<ComputedColumn> computed = {});
  PlanBuilder& OrderBy(std::vector<SortKey> keys,
                       uint64_t limit = std::numeric_limits<uint64_t>::max());
  PlanBuilder& Aggregate(std::vector<std::string> group_by,
                         std::vector<AggSpec> aggs);
  PlanBuilder& Limit(uint64_t n);
  PlanBuilder& Distinct();
  PlanBuilder& ExpandInto(std::string a, std::string b,
                          std::vector<RelationId> rels, bool anti);
  PlanBuilder& IntersectExpand(std::string in, std::string out,
                               std::vector<RelationId> rels,
                               std::vector<std::string> probe_columns,
                               std::vector<std::vector<RelationId>> probe_rels);
  PlanBuilder& Procedure(std::function<FlatBlock(const GraphView&)> fn);
  PlanBuilder& Output(std::vector<std::string> columns);

  Plan Build() { return std::move(plan_); }

 private:
  Plan plan_;
};

}  // namespace ges

#endif  // GES_EXECUTOR_PLAN_H_

#include "executor/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include "storage/graph_stats.h"

namespace ges {

namespace {

// Largest LIMIT for which the bounded-insertion TopK is profitable.
constexpr uint64_t kMaxTopK = 1024;

// Expected out-degree of `rel`: sampled histogram when statistics exist,
// base adjacency metadata otherwise, and never zero — a relation with no
// sampled edges falls back to kDefaultDegree so the WCOJ gate below stays
// well-defined (a zero estimate made binary == intersect == 0 and silently
// rejected the rewrite).
double ExpectedDegreeOf(const GraphStats* stats, const Graph& g,
                        RelationId rel) {
  if (stats != nullptr) return stats->ExpectedDegree(rel);
  double avg = g.AvgDegree(rel);
  return avg > 0 ? avg : kDefaultDegree;
}

// Expected fan-out of a relation union (rels expanded together).
double GroupDegree(const GraphStats* stats, const Graph& g,
                   const std::vector<RelationId>& rels) {
  double d = 0;
  for (RelationId r : rels) d += ExpectedDegreeOf(stats, g, r);
  return d;
}

bool PredicateUsesOnly(const Expr& pred, const std::string& column) {
  std::vector<std::string> cols;
  pred.CollectColumns(&cols);
  for (const std::string& c : cols) {
    if (c != column) return false;
  }
  return !cols.empty();
}

// Expand eligible for the filter fusion: plain single-hop expansion.
bool ExpandFusable(const PlanOp& op) {
  return op.type == OpType::kExpand && op.max_hops == 1 && !op.distinct &&
         !op.exclude_start && op.distance_column.empty() &&
         op.stamp_column.empty();
}

// Degree-based cost gate for the WCOJ rewrite (DESIGN.md §12), in probe
// comparisons per driver row:
//   binary:    d_drv * (1 + sum_c log2(1 + d_c)) + kMaterialize * d_drv
//   intersect: min(d_drv, min_c d_c) * (1 + sum_c log2(1 + d_c)) + d_drv
// The binary chain materializes every candidate extension before probing
// (and de-factors the f-Tree); the intersection rejects candidates past the
// shortest probe list in O(1) through its exhausted cursor and walks the
// driver list in place. Without statistics (view == nullptr) the rewrite is
// applied unconditionally — it is never asymptotically worse. Degrees come
// from the sampled histograms (ExpectedDegreeOf), which never report zero.
bool IntersectionProfitable(const GraphView* view, const GraphStats* stats,
                            const PlanOp& expand,
                            const std::vector<std::vector<RelationId>>& probe_rels) {
  if (view == nullptr) return true;
  const Graph& g = view->graph();
  double d_drv = GroupDegree(stats, g, expand.rels);
  double log_sum = 0;
  double d_min = std::numeric_limits<double>::infinity();
  for (const std::vector<RelationId>& rels : probe_rels) {
    double d = GroupDegree(stats, g, rels);
    d_min = std::min(d_min, d);
    log_sum += std::log2(1.0 + d);
  }
  constexpr double kMaterialize = 4.0;  // per-row extension + flatten cost
  double binary = d_drv * (1.0 + log_sum) + kMaterialize * d_drv;
  double intersect = std::min(d_drv, d_min) * (1.0 + log_sum) + d_drv;
  return intersect < binary;
}

}  // namespace

namespace {

// Columns produced by `op` (subset needed for the pushdown rule).
void CollectProduced(const PlanOp& op, std::vector<std::string>* out) {
  switch (op.type) {
    case OpType::kNodeByIdSeek:
    case OpType::kScanByLabel:
    case OpType::kExpand:
    case OpType::kGetProperty:
      out->push_back(op.out_column);
      if (!op.distance_column.empty()) out->push_back(op.distance_column);
      if (!op.stamp_column.empty()) out->push_back(op.stamp_column);
      break;
    default:
      break;
  }
}

bool IsStreamSafe(OpType t) {
  // Operators a filter may hop over without changing results: they neither
  // rename/remove columns nor depend on cardinality. (Aggregates, sorts,
  // limits, distinct and projections act as barriers.)
  return t == OpType::kExpand || t == OpType::kGetProperty ||
         t == OpType::kFilter || t == OpType::kExpandInto ||
         t == OpType::kExpandFiltered;
}

// Rule-based FilterPushDown (plan-level half): moves each Filter directly
// behind the earliest operator that produces all of its columns, so
// predicates prune intermediate results as early as possible and sit
// adjacent to their Expand for the fusion rule below.
void PushDownFilters(std::vector<PlanOp>* ops) {
  for (size_t i = 1; i < ops->size(); ++i) {
    if ((*ops)[i].type != OpType::kFilter) continue;
    std::vector<std::string> needed;
    (*ops)[i].predicate->CollectColumns(&needed);
    // Earliest position (just after op `j`) where every needed column
    // exists; the filter can only hop over stream-safe operators.
    size_t target = i;
    std::vector<std::string> available;
    // Recompute availability from the front.
    size_t have_all_after = ops->size();
    for (size_t j = 0; j < i; ++j) {
      CollectProduced((*ops)[j], &available);
      bool all = true;
      for (const std::string& c : needed) {
        bool found = false;
        for (const std::string& a : available) found |= a == c;
        all &= found;
      }
      if (all) {
        have_all_after = j;
        break;
      }
    }
    if (have_all_after == ops->size()) continue;  // columns appear at i only
    // Walk the insertion point forward over non-stream-safe barriers.
    target = have_all_after + 1;
    for (size_t j = have_all_after + 1; j < i; ++j) {
      if (!IsStreamSafe((*ops)[j].type)) target = j + 1;
    }
    if (target >= i) continue;
    PlanOp filter = std::move((*ops)[i]);
    ops->erase(ops->begin() + static_cast<std::ptrdiff_t>(i));
    ops->insert(ops->begin() + static_cast<std::ptrdiff_t>(target),
                std::move(filter));
  }
}

// Orders each run of consecutive Filters most-selective-first using the
// statistics-driven estimates, so cheap highly-selective predicates shrink
// the intermediate before expensive ones run. Filters commute (pure row
// selections), so results are unchanged.
void ReorderFilterRuns(
    std::vector<PlanOp>* ops,
    const std::unordered_map<std::string, ColumnStat>& column_stats) {
  size_t i = 0;
  while (i < ops->size()) {
    if ((*ops)[i].type != OpType::kFilter) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < ops->size() && (*ops)[j].type == OpType::kFilter) ++j;
    if (j - i > 1) {
      std::stable_sort(
          ops->begin() + static_cast<std::ptrdiff_t>(i),
          ops->begin() + static_cast<std::ptrdiff_t>(j),
          [&](const PlanOp& a, const PlanOp& b) {
            return EstimateSelectivity(*a.predicate, column_stats) <
                   EstimateSelectivity(*b.predicate, column_stats);
          });
    }
    i = j;
  }
}

// Marks each 1-hop Expand whose neighbors are only ever counted: no later
// op and no plan output reads its out or stamp column (an empty output
// reads every column, and so does a Distinct). Such an Expand contributes
// nothing but each source row's multiplicity.
void MarkCountedExpands(Plan* plan) {
  if (plan->output.empty()) return;
  std::vector<std::string> read_later = plan->output;
  bool distinct_later = false;
  for (size_t i = plan->ops.size(); i-- > 0;) {
    PlanOp& op = plan->ops[i];
    auto read = [&op](const std::string& c) {
      return c == op.out_column ||
             (!op.stamp_column.empty() && c == op.stamp_column);
    };
    op.counted = op.type == OpType::kExpand && op.min_hops == 1 &&
                 op.max_hops == 1 && !op.distinct && !op.exclude_start &&
                 op.distance_column.empty() && !distinct_later &&
                 std::none_of(read_later.begin(), read_later.end(), read);
    distinct_later |= op.type == OpType::kDistinct;
    for (std::string& c : ConsumedColumns(op)) {
      read_later.push_back(std::move(c));
    }
  }
}

// The vertex column a column is a function of (a vertex column is one of
// itself), and the column's type.
struct VertexSource {
  std::string vertex;
  ValueType type;
};

// Sets group_vertex on `agg` (plan->ops[at]) when all its group keys and
// aggregate inputs are functions of one vertex column v, then marks
// deferred the run of ops just before it that are counted Expands from v
// or GetPropertys from v. Nothing but the AggProjectTop can read such a
// GetProperty's output: every op between them is in the run and reads
// only v, and the AggProjectTop ends every column but its own outputs.
// A double SUM or AVG input stays per row: folding it once per vertex
// would round differently.
void MarkVertexKeyed(
    Plan* plan, size_t at,
    const std::unordered_map<std::string, VertexSource>& source) {
  PlanOp& agg = plan->ops[at];
  std::string v;
  auto of_v = [&](const std::string& col) {
    auto it = source.find(col);
    if (it == source.end()) return false;
    if (v.empty()) v = it->second.vertex;
    return it->second.vertex == v;
  };
  for (const std::string& g : agg.group_by) {
    if (!of_v(g)) return;
  }
  for (const AggSpec& a : agg.aggs) {
    if (a.input.empty()) continue;
    if (!of_v(a.input)) return;
    if ((a.fn == AggSpec::kSum || a.fn == AggSpec::kAvg) &&
        source.at(a.input).type == ValueType::kDouble) {
      return;
    }
  }
  if (v.empty()) return;
  agg.group_vertex = v;
  for (size_t i = at; i-- > 0;) {
    PlanOp& op = plan->ops[i];
    if (op.in_column != v || !(op.type == OpType::kGetProperty ||
                               (op.type == OpType::kExpand && op.counted))) {
      break;
    }
    op.deferred = true;
  }
}

// Marks every AggProjectTop that can aggregate once per distinct vertex
// (MarkVertexKeyed). Stamp, distance and computed columns are functions of
// a tuple, not of one vertex, so they never enter `source`.
void MarkVertexKeyedAggregates(Plan* plan) {
  std::unordered_map<std::string, VertexSource> source;
  for (size_t i = 0; i < plan->ops.size(); ++i) {
    const PlanOp& op = plan->ops[i];
    switch (op.type) {
      case OpType::kNodeByIdSeek:
      case OpType::kScanByLabel:
      case OpType::kExpand:
      case OpType::kIntersectExpand:
        source[op.out_column] = {op.out_column, ValueType::kVertex};
        break;
      case OpType::kExpandFiltered:
        source[op.out_column] = {op.out_column, ValueType::kVertex};
        if (op.keep_property) {
          source[op.other_column] = {op.out_column, op.property_type};
        }
        break;
      case OpType::kGetProperty: {
        auto it = source.find(op.in_column);
        if (it != source.end() && it->second.vertex == op.in_column) {
          source[op.out_column] = {op.in_column, op.property_type};
        }
        break;
      }
      case OpType::kAggProjectTop:
        MarkVertexKeyed(plan, i, source);
        source.clear();
        break;
      case OpType::kAggregate:
      case OpType::kProject:
      case OpType::kProcedure:
        source.clear();  // columns renamed or replaced
        break;
      default:
        break;
    }
  }
}

}  // namespace

Plan OptimizePlan(const Plan& plan, const ExecOptions& options,
                  const GraphView* view) {
  Plan out;
  out.name = plan.name;
  out.output = plan.output;
  out.param_count = plan.param_count;
  out.optimized = true;

  // Statistics snapshot for the cost model (may be null before the first
  // RebuildStats; every estimator degrades to adjMeta averages then).
  std::shared_ptr<const GraphStats> stats_holder;
  const GraphStats* stats = nullptr;
  if (view != nullptr) {
    stats_holder = view->graph().catalog().stats();
    stats = stats_holder.get();
  }

  // Rule-based reordering first (always sound), then pattern fusion.
  std::vector<PlanOp> reordered = plan.ops;
  PushDownFilters(&reordered);
  const std::vector<PlanOp>& ops = reordered;
  size_t i = 0;
  while (i < ops.size()) {
    // --- WCOJ: Expand ; ExpandInto+ -> IntersectExpand (DESIGN.md §12).
    // The cyclic closing edges of the bound plan (triangles, diamonds,
    // k-cliques) show up as semi-join ExpandInto ops against the column the
    // Expand just produced; the chain becomes one leapfrog intersection.
    if (options.intersect_expand && ExpandFusable(ops[i]) &&
        ops[i].min_hops == 1 && i + 1 < ops.size()) {
      const std::string& w = ops[i].out_column;
      std::vector<std::string> probe_cols;
      std::vector<std::vector<RelationId>> probe_rels;
      // Filters interleaved with the ExpandInto chain are deferred past the
      // fused operator: both are pure row selections, and selections
      // commute (no columns are added or dropped), so re-running them after
      // the intersection yields the same rows.
      std::vector<const PlanOp*> deferred_filters;
      size_t j = i + 1;
      for (; j < ops.size(); ++j) {
        if (ops[j].type == OpType::kFilter) {
          deferred_filters.push_back(&ops[j]);
          continue;
        }
        if (ops[j].type != OpType::kExpandInto || ops[j].anti) break;
        if (ops[j].other_column == w && ops[j].in_column != w) {
          // Checks edge p -> w: membership of w in N(p) as-is.
          probe_cols.push_back(ops[j].in_column);
          probe_rels.push_back(ops[j].rels);
        } else if (ops[j].in_column == w && ops[j].other_column != w) {
          // Checks edge w -> p: equivalent to w in N(p) over the reverse
          // relations (needs the catalog, i.e. a view).
          if (view == nullptr) break;
          std::vector<RelationId> rev;
          rev.reserve(ops[j].rels.size());
          for (RelationId r : ops[j].rels) {
            rev.push_back(view->graph().ReverseRelation(r));
          }
          probe_cols.push_back(ops[j].other_column);
          probe_rels.push_back(std::move(rev));
        } else {
          break;
        }
      }
      if (!probe_cols.empty() &&
          IntersectionProfitable(view, stats, ops[i], probe_rels)) {
        // Probe the lowest-expected-degree lists first: the shortest list
        // exhausts earliest, so the leapfrog cursor rejects candidates
        // after the fewest gallops. Pure reordering — the surviving set is
        // the intersection either way.
        if (view != nullptr && probe_cols.size() > 1) {
          std::vector<size_t> order(probe_cols.size());
          std::iota(order.begin(), order.end(), size_t{0});
          const Graph& g = view->graph();
          std::stable_sort(order.begin(), order.end(),
                           [&](size_t a, size_t b) {
                             return GroupDegree(stats, g, probe_rels[a]) <
                                    GroupDegree(stats, g, probe_rels[b]);
                           });
          std::vector<std::string> cols2;
          std::vector<std::vector<RelationId>> rels2;
          for (size_t k : order) {
            cols2.push_back(std::move(probe_cols[k]));
            rels2.push_back(std::move(probe_rels[k]));
          }
          probe_cols = std::move(cols2);
          probe_rels = std::move(rels2);
        }
        PlanOp fused = ops[i];
        fused.type = OpType::kIntersectExpand;
        fused.probe_columns = std::move(probe_cols);
        fused.probe_rels = std::move(probe_rels);
        out.ops.push_back(std::move(fused));
        for (const PlanOp* f : deferred_filters) out.ops.push_back(*f);
        i = j;
        continue;
      }
    }
    // --- FilterPushDown: Expand ; GetProperty ; Filter -> ExpandFiltered
    if (options.fuse_filter_into_expand && i + 2 < ops.size() &&
        ExpandFusable(ops[i]) && ops[i + 1].type == OpType::kGetProperty &&
        ops[i + 1].in_column == ops[i].out_column &&
        ops[i + 2].type == OpType::kFilter &&
        PredicateUsesOnly(*ops[i + 2].predicate, ops[i + 1].out_column)) {
      PlanOp fused = ops[i];
      fused.type = OpType::kExpandFiltered;
      fused.property = ops[i + 1].property;
      fused.property_type = ops[i + 1].property_type;
      fused.other_column = ops[i + 1].out_column;  // fused property column
      fused.predicate = ops[i + 2].predicate;
      fused.keep_property = true;
      out.ops.push_back(std::move(fused));
      i += 3;
      continue;
    }
    // --- AggregateProjectTop: Aggregate ; [Project] ; OrderBy+Limit. A
    // bare Aggregate becomes the unsorted form (no keys, no limit), so it
    // aggregates on the f-Tree instead of de-factoring first.
    if (options.fuse_agg_project_top && ops[i].type == OpType::kAggregate) {
      PlanOp fused;
      fused.type = OpType::kAggProjectTop;
      fused.group_by = ops[i].group_by;
      fused.aggs = ops[i].aggs;
      size_t j = i + 1;
      const PlanOp* project = nullptr;
      if (j < ops.size() && ops[j].type == OpType::kProject) {
        project = &ops[j];
        ++j;
      }
      if (j < ops.size() && ops[j].type == OpType::kOrderBy &&
          ops[j].limit != std::numeric_limits<uint64_t>::max()) {
        if (project != nullptr) {
          fused.selections = project->selections;
          fused.computed = project->computed;
        }
        fused.sort_keys = ops[j].sort_keys;
        fused.limit = ops[j].limit;
        i = j + 1;
      } else {
        ++i;
      }
      out.ops.push_back(std::move(fused));
      continue;
    }
    // --- TopK: OrderBy with a small LIMIT
    if (options.fuse_topk && ops[i].type == OpType::kOrderBy &&
        ops[i].limit != std::numeric_limits<uint64_t>::max() &&
        ops[i].limit <= kMaxTopK) {
      PlanOp fused = ops[i];
      fused.type = OpType::kTopK;
      out.ops.push_back(std::move(fused));
      ++i;
      continue;
    }
    out.ops.push_back(ops[i]);
    ++i;
  }
  MarkCountedExpands(&out);
  MarkVertexKeyedAggregates(&out);
  if (view != nullptr) {
    auto column_stats = CollectPlanColumnStats(out, view->graph());
    ReorderFilterRuns(&out.ops, column_stats);
    AnnotateCardinalities(&out, view->graph(), column_stats);
  }
  return out;
}

std::unordered_map<std::string, ColumnStat> CollectPlanColumnStats(
    const Plan& plan, const Graph& graph) {
  std::unordered_map<std::string, ColumnStat> out;
  std::shared_ptr<const GraphStats> stats = graph.catalog().stats();
  if (stats == nullptr) return out;
  // Track which vertex label each column carries so property columns can be
  // resolved to their (label, property) statistics.
  std::unordered_map<std::string, LabelId> label_of;
  auto vertex_col = [&](const std::string& name, LabelId label) {
    label_of[name] = label;
    ColumnStat cs;
    cs.count = stats->LabelVertices(label);
    cs.ndv = cs.count;
    out[name] = cs;
  };
  auto property_col = [&](const std::string& name, LabelId label,
                          PropertyId prop) {
    const PropertyStats* ps = stats->Property(label, prop);
    if (ps == nullptr) return;
    ColumnStat cs;
    cs.count = ps->count;
    cs.ndv = ps->ndv;
    cs.has_range = ps->has_range;
    cs.min = ps->min;
    cs.max = ps->max;
    out[name] = cs;
  };
  for (const PlanOp& op : plan.ops) {
    switch (op.type) {
      case OpType::kNodeByIdSeek:
      case OpType::kScanByLabel:
        vertex_col(op.out_column, op.label);
        break;
      case OpType::kExpand:
      case OpType::kIntersectExpand:
        if (!op.rels.empty()) {
          vertex_col(op.out_column, graph.RelationKeyOf(op.rels[0]).dst_label);
        }
        break;
      case OpType::kExpandFiltered:
        if (!op.rels.empty()) {
          LabelId dst = graph.RelationKeyOf(op.rels[0]).dst_label;
          vertex_col(op.out_column, dst);
          if (!op.other_column.empty()) {
            property_col(op.other_column, dst, op.property);
          }
        }
        break;
      case OpType::kGetProperty: {
        auto it = label_of.find(op.in_column);
        if (it != label_of.end()) {
          property_col(op.out_column, it->second, op.property);
        }
        break;
      }
      default:
        break;
    }
  }
  return out;
}

double EstimateSelectivity(
    const Expr& pred,
    const std::unordered_map<std::string, ColumnStat>& stats) {
  // Static fallbacks mirror the vectorized compiler's per-op guesses.
  auto fallback = [](ExprOp op) {
    switch (op) {
      case ExprOp::kEq:
        return 0.1;
      case ExprOp::kNe:
        return 0.9;
      case ExprOp::kLt:
      case ExprOp::kGt:
        return 0.4;
      default:
        return 0.6;
    }
  };
  switch (pred.op) {
    case ExprOp::kAnd: {
      double s = 1;
      for (const ExprPtr& a : pred.args) s *= EstimateSelectivity(*a, stats);
      return s;
    }
    case ExprOp::kOr: {
      double pass = 1;
      for (const ExprPtr& a : pred.args) {
        pass *= 1.0 - EstimateSelectivity(*a, stats);
      }
      return 1.0 - pass;
    }
    case ExprOp::kNot:
      return pred.args.empty()
                 ? 0.5
                 : 1.0 - EstimateSelectivity(*pred.args[0], stats);
    case ExprOp::kIsNull:
      return 0.05;
    case ExprOp::kStartsWith:
      return 0.1;
    case ExprOp::kIn: {
      double eq = 0.1;
      if (!pred.args.empty() && pred.args[0]->op == ExprOp::kColumn) {
        auto it = stats.find(pred.args[0]->column);
        if (it != stats.end() && it->second.ndv > 0) {
          eq = 1.0 / static_cast<double>(it->second.ndv);
        }
      }
      return std::min(1.0, eq * static_cast<double>(pred.list.size()));
    }
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe: {
      if (pred.args.size() != 2) return fallback(pred.op);
      auto is_lit = [](const Expr& e) {
        return e.op == ExprOp::kConst || e.op == ExprOp::kParam;
      };
      const Expr* col = nullptr;
      const Expr* lit = nullptr;
      ExprOp op = pred.op;
      if (pred.args[0]->op == ExprOp::kColumn && is_lit(*pred.args[1])) {
        col = pred.args[0].get();
        lit = pred.args[1].get();
      } else if (pred.args[1]->op == ExprOp::kColumn &&
                 is_lit(*pred.args[0])) {
        col = pred.args[1].get();
        lit = pred.args[0].get();
        // Mirror the comparison so `col OP lit` still holds.
        op = op == ExprOp::kLt   ? ExprOp::kGt
             : op == ExprOp::kLe ? ExprOp::kGe
             : op == ExprOp::kGt ? ExprOp::kLt
             : op == ExprOp::kGe ? ExprOp::kLe
                                 : op;
      } else {
        return fallback(pred.op);
      }
      auto it = stats.find(col->column);
      if (it == stats.end()) return fallback(op);
      const ColumnStat& cs = it->second;
      if (op == ExprOp::kEq || op == ExprOp::kNe) {
        double eq = cs.ndv > 0 ? std::min(1.0, 1.0 / static_cast<double>(
                                                     cs.ndv))
                               : 0.1;
        return op == ExprOp::kEq ? eq : 1.0 - eq;
      }
      // Range predicate: fraction of the observed [min, max] interval.
      // kParam placeholders estimate through their first-seen literal hint
      // (Expr::constant).
      const Value& v = lit->constant;
      bool numeric = v.type() == ValueType::kDouble || IsIntegerPhysical(v.type());
      if (!cs.has_range || !numeric) return fallback(op);
      double c = v.AsDouble();
      double span = cs.max - cs.min;
      double f;
      if (span <= 0) {
        bool holds = op == ExprOp::kLt   ? cs.min < c
                     : op == ExprOp::kLe ? cs.min <= c
                     : op == ExprOp::kGt ? cs.min > c
                                         : cs.min >= c;
        f = holds ? 1.0 : 0.0;
      } else if (op == ExprOp::kLt || op == ExprOp::kLe) {
        f = (c - cs.min) / span;
      } else {
        f = (cs.max - c) / span;
      }
      return std::min(1.0, std::max(0.0, f));
    }
    default:
      return 0.5;
  }
}

void AnnotateCardinalities(
    Plan* plan, const Graph& graph,
    const std::unordered_map<std::string, ColumnStat>& column_stats) {
  std::shared_ptr<const GraphStats> stats_holder = graph.catalog().stats();
  const GraphStats* stats = stats_holder.get();
  constexpr uint64_t kNoLimit = std::numeric_limits<uint64_t>::max();
  double rows = 1;
  bool unknown = false;  // a kProcedure makes downstream estimates moot
  for (PlanOp& op : plan->ops) {
    if (unknown) {
      op.est_rows = -1;
      continue;
    }
    switch (op.type) {
      case OpType::kNodeByIdSeek:
        rows = 1;
        break;
      case OpType::kScanByLabel:
        rows = stats != nullptr
                   ? static_cast<double>(stats->LabelVertices(op.label))
                   : static_cast<double>(
                         graph.NumVertices(op.label, graph.CurrentVersion()));
        break;
      case OpType::kExpand: {
        double d = GroupDegree(stats, graph, op.rels);
        double fanout = 0;
        for (int h = op.min_hops; h <= op.max_hops && h <= 8; ++h) {
          fanout += std::pow(d, h);
        }
        rows *= fanout;
        break;
      }
      case OpType::kExpandFiltered: {
        rows *= GroupDegree(stats, graph, op.rels);
        if (op.predicate != nullptr) {
          rows *= EstimateSelectivity(*op.predicate, column_stats);
        }
        break;
      }
      case OpType::kIntersectExpand: {
        double d = GroupDegree(stats, graph, op.rels);
        // Containment: each probe keeps a candidate neighbor w with
        // probability ~ deg(probe) / |label(w)|.
        double n_w = 0;
        if (stats != nullptr && !op.rels.empty()) {
          n_w = static_cast<double>(stats->LabelVertices(
              graph.RelationKeyOf(op.rels[0]).dst_label));
        }
        double keep = 1;
        for (const std::vector<RelationId>& pr : op.probe_rels) {
          double dp = GroupDegree(stats, graph, pr);
          if (n_w > 0) keep *= std::min(1.0, dp / n_w);
        }
        rows *= d * keep;
        break;
      }
      case OpType::kExpandInto: {
        double dp = GroupDegree(stats, graph, op.rels);
        auto it = column_stats.find(op.other_column);
        double n = it != column_stats.end()
                       ? static_cast<double>(it->second.ndv)
                       : 0;
        double sel = n > 0 ? std::min(1.0, dp / n) : 0.5;
        rows *= op.anti ? 1.0 - sel : sel;
        break;
      }
      case OpType::kFilter:
        if (op.predicate != nullptr) {
          rows *= EstimateSelectivity(*op.predicate, column_stats);
        }
        break;
      case OpType::kOrderBy:
      case OpType::kTopK:
      case OpType::kLimit:
        if (op.limit != kNoLimit) {
          rows = std::min(rows, static_cast<double>(op.limit));
        }
        break;
      case OpType::kAggregate:
      case OpType::kAggProjectTop: {
        double groups;
        if (op.group_by.empty()) {
          groups = 1;
        } else {
          double prod = 1;
          bool all_known = true;
          for (const std::string& g : op.group_by) {
            auto it = column_stats.find(g);
            if (it != column_stats.end() && it->second.ndv > 0) {
              prod *= static_cast<double>(it->second.ndv);
            } else {
              all_known = false;
            }
          }
          groups = all_known ? std::min(rows, prod) : rows;
        }
        rows = groups;
        if (op.type == OpType::kAggProjectTop && op.limit != kNoLimit) {
          rows = std::min(rows, static_cast<double>(op.limit));
        }
        break;
      }
      case OpType::kGetProperty:
      case OpType::kProject:
      case OpType::kDistinct:
        break;  // cardinality-preserving (kDistinct: upper bound)
      case OpType::kProcedure:
        unknown = true;
        op.est_rows = -1;
        continue;
    }
    if (rows < 0) rows = 0;
    op.est_rows = rows;
  }
}

}  // namespace ges

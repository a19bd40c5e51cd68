#include "executor/executor.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/timer.h"
#include "executor/executor_internal.h"
#include "executor/optimizer.h"

namespace ges {

const char* ExecModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kVolcano:
      return "Volcano";
    case ExecMode::kFlat:
      return "GES";
    case ExecMode::kFactorized:
      return "GES_f";
    case ExecMode::kFactorizedFused:
      return "GES_f*";
  }
  return "?";
}

namespace {

// Per-thread working set of CollectNeighbors. `order` lists the vertices
// the BFS has marked, in discovery order: each hop's frontier is a
// contiguous range of it, and it names exactly the bits to clear.
struct BfsState {
  std::vector<uint64_t> visited;  // bitmap over vertex ids
  std::vector<VertexId> order;
  AdjScratch adj;  // decode buffer for compacted adjacency
};

BfsState& LocalBfsState() {
  static thread_local BfsState state;
  return state;
}

// Grows the bitmap to every id the graph has handed out (vertices created
// since the thread's last BFS included) and, on scope exit, clears the
// bits this BFS set, so an exception cannot leave stale marks behind.
class VisitedScope {
 public:
  VisitedScope(BfsState& state, size_t num_vertices) : state_(state) {
    const size_t words = (num_vertices + 63) / 64;
    if (state_.visited.size() < words) state_.visited.resize(words, 0);
  }
  ~VisitedScope() {
    // Every set bit is this BFS's, so zeroing the words they sit in is
    // enough.
    for (VertexId v : state_.order) state_.visited[v >> 6] = 0;
    state_.order.clear();
  }
  VisitedScope(const VisitedScope&) = delete;
  VisitedScope& operator=(const VisitedScope&) = delete;

  // Marks `v` and queues it; false if it was already marked.
  bool Mark(VertexId v) {
    uint64_t& word = state_.visited[v >> 6];
    const uint64_t bit = uint64_t{1} << (v & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    state_.order.push_back(v);
    return true;
  }

 private:
  BfsState& state_;
};

}  // namespace

void CollectNeighbors(const GraphView& view,
                      const std::vector<RelationId>& rels, VertexId src,
                      int min_hops, int max_hops, bool distinct,
                      bool exclude_start,
                      std::vector<std::pair<VertexId, int>>* out,
                      std::vector<int64_t>* stamps) {
  BfsState& state = LocalBfsState();
  if (max_hops == 1 && !distinct) {
    for (RelationId rel : rels) {
      AdjSpan span = view.Neighbors(rel, src, &state.adj);
      for (uint32_t i = 0; i < span.size; ++i) {
        VertexId id = span.ids[i];
        if (exclude_start && id == src) continue;
        out->emplace_back(id, 1);
        if (stamps != nullptr) {
          stamps->push_back(span.stamps == nullptr ? 0 : span.stamps[i]);
        }
      }
    }
    return;
  }
  // Min-distance BFS with dedup; the source itself is never emitted
  // (variable-length expansion in the workload always excludes the start).
  VisitedScope visited(state, view.graph().NumVerticesTotal());
  visited.Mark(src);
  size_t begin = 0;
  for (int d = 1; d <= max_hops && begin < state.order.size(); ++d) {
    const size_t end = state.order.size();
    for (size_t f = begin; f < end; ++f) {
      const VertexId v = state.order[f];
      for (RelationId rel : rels) {
        // One scratch suffices: the span is consumed before the next fetch.
        AdjSpan span = view.Neighbors(rel, v, &state.adj);
        for (uint32_t i = 0; i < span.size; ++i) {
          VertexId id = span.ids[i];
          if (!visited.Mark(id) || d < min_hops) continue;
          out->emplace_back(id, d);
          if (stamps != nullptr) {
            stamps->push_back(span.stamps == nullptr ? 0 : span.stamps[i]);
          }
        }
      }
    }
    begin = end;
  }
}

namespace {

using internal::GroupedAggregator;
using internal::RowEq;
using internal::RowHash;

}  // namespace

namespace internal {

GroupedAggregator::GroupedAggregator(const Schema& schema,
                                     const std::vector<std::string>& group_by,
                                     std::vector<AggSpec> aggs)
    : aggs_(std::move(aggs)), inputs_(aggs_.size()) {
  typed_ = !group_by.empty();
  for (const std::string& g : group_by) {
    int i = schema.IndexOf(g);
    assert(i >= 0);
    key_idx_.push_back(i);
    key_defs_.push_back(ColumnDef{g, schema[i].type});
    const ValueType t = schema[i].type;
    typed_ &= t == ValueType::kInt64 || t == ValueType::kVertex ||
              t == ValueType::kDate;
  }
  key_.resize(key_idx_.size());
  words_.resize(key_idx_.size());
  if (typed_) slots_.assign(16, Slot{});
  for (const AggSpec& a : aggs_) {
    int i = a.input.empty() ? -1 : schema.IndexOf(a.input);
    input_idx_.push_back(i);
    input_types_.push_back(i >= 0 ? schema[i].type : ValueType::kInt64);
  }
}

namespace {

// The Value a typed key column holds as raw word `w`.
Value WordValue(ValueType type, int64_t w) {
  switch (type) {
    case ValueType::kVertex:
      return Value::Vertex(static_cast<VertexId>(w));
    case ValueType::kDate:
      return Value::Date(w);
    default:
      return Value::Int(w);
  }
}

}  // namespace

size_t GroupedAggregator::NewGroup() {
  states_.resize(states_.size() + aggs_.size());
  return groups_++;
}

void GroupedAggregator::Reserve(size_t groups) {
  assert(groups_ == 0);
  states_.reserve(groups * aggs_.size());
  if (!typed_) {
    index_.reserve(groups);
    return;
  }
  key_words_.reserve(groups * words_.size());
  size_t slots = slots_.size();
  while (slots < 2 * groups) slots *= 2;
  slots_.assign(slots, Slot{});
}

size_t GroupedAggregator::InsertTyped(size_t slot) {
  const size_t nk = words_.size();
  key_words_.insert(key_words_.end(), words_.begin(), words_.end());
  const size_t g = NewGroup();
  slots_[slot] = Slot{words_[0], static_cast<uint32_t>(g + 1)};
  if (2 * groups_ > slots_.size()) {
    slots_.assign(2 * slots_.size(), Slot{});
    const size_t mask = slots_.size() - 1;
    for (size_t h = 0; h < groups_; ++h) {
      const int64_t* key = &key_words_[h * nk];
      size_t j = HashWords(key, nk) & mask;
      while (slots_[j].group != 0) j = (j + 1) & mask;
      slots_[j] = Slot{key[0], static_cast<uint32_t>(h + 1)};
    }
  }
  return g;
}

size_t GroupedAggregator::ValueGroup() {
  // Hashes key_ once and copies it only for a new group.
  auto [it, inserted] = index_.try_emplace(key_, groups_);
  if (inserted) NewGroup();
  return it->second;
}

void GroupedAggregator::MoveToValueIndex() {
  const size_t nk = words_.size();
  for (size_t g = 0; g < groups_; ++g) {
    std::vector<Value> key(nk);
    for (size_t k = 0; k < nk; ++k) {
      key[k] = WordValue(key_defs_[k].type, key_words_[g * nk + k]);
    }
    index_.emplace(std::move(key), g);
  }
  typed_ = false;
  key_words_ = {};
  slots_ = {};
}

void GroupedAggregator::FoldInput(size_t a, int64_t multiplicity, State* s) {
  const Value& v = inputs_[a];
  switch (aggs_[a].fn) {
    case AggSpec::kSum:
    case AggSpec::kAvg:
      s->sum_i += v.AsInt() * multiplicity;
      s->sum_d += v.AsDouble() * multiplicity;
      break;
    case AggSpec::kMin:
    case AggSpec::kMax:
      if (s->extra == nullptr) {
        s->extra.reset(new State::Extra{v, v, {}});
      } else {
        if (v < s->extra->min) s->extra->min = v;
        if (s->extra->max < v) s->extra->max = v;
      }
      break;
    case AggSpec::kCountDistinct:
      if (s->extra == nullptr) s->extra = std::make_unique<State::Extra>();
      s->extra->distinct.insert(v);
      break;
    case AggSpec::kCount:
      break;
  }
}

FlatBlock GroupedAggregator::Finish() {
  Schema out_schema;
  for (const ColumnDef& k : key_defs_) {
    out_schema.Add(k.name, k.type);
  }
  for (size_t a = 0; a < aggs_.size(); ++a) {
    ValueType t;
    switch (aggs_[a].fn) {
      case AggSpec::kAvg:
        t = ValueType::kDouble;
        break;
      case AggSpec::kSum:
      case AggSpec::kMin:
      case AggSpec::kMax:
        t = aggs_[a].input.empty() ? ValueType::kInt64 : input_types_[a];
        break;
      default:
        t = ValueType::kInt64;
    }
    out_schema.Add(aggs_[a].output, t);
  }

  FlatBlock out(out_schema);
  if (groups_ == 0 && key_defs_.empty()) {
    // Global aggregation of an empty relation: COUNT -> 0.
    std::vector<Value> row;
    for (const AggSpec& a : aggs_) {
      row.push_back(a.fn == AggSpec::kAvg ? Value::Double(0) : Value::Int(0));
    }
    out.AppendRow(std::move(row));
    return out;
  }
  std::vector<const std::vector<Value>*> value_keys(index_.size());
  for (const auto& [key, g] : index_) value_keys[g] = &key;
  const size_t nk = key_defs_.size();
  out.Reserve(groups_);
  for (size_t g = 0; g < groups_; ++g) {
    std::vector<Value> row;
    row.reserve(nk + aggs_.size());
    if (typed_) {
      for (size_t k = 0; k < nk; ++k) {
        row.push_back(WordValue(key_defs_[k].type, key_words_[g * nk + k]));
      }
    } else {
      row.assign(value_keys[g]->begin(), value_keys[g]->end());
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const State& s = states_[g * aggs_.size() + a];
      switch (aggs_[a].fn) {
        case AggSpec::kCount:
          row.push_back(Value::Int(s.count));
          break;
        case AggSpec::kCountDistinct:
          row.push_back(Value::Int(static_cast<int64_t>(
              s.extra == nullptr ? 0 : s.extra->distinct.size())));
          break;
        case AggSpec::kSum:
          if (!aggs_[a].input.empty() &&
              input_types_[a] == ValueType::kDouble) {
            row.push_back(Value::Double(s.sum_d));
          } else {
            row.push_back(Value::Int(s.sum_i));
          }
          break;
        case AggSpec::kAvg:
          row.push_back(Value::Double(s.count == 0 ? 0 : s.sum_d / s.count));
          break;
        case AggSpec::kMin:
          row.push_back(s.extra == nullptr ? Value() : s.extra->min);
          break;
        case AggSpec::kMax:
          row.push_back(s.extra == nullptr ? Value() : s.extra->max);
          break;
      }
    }
    out.AppendRow(std::move(row));
  }
  return out;
}

}  // namespace internal

void SortAndLimit(FlatBlock* block, const std::vector<SortKey>& keys,
                  uint64_t limit) {
  if (keys.empty() && limit >= block->NumRows()) return;
  std::vector<int> idx;
  std::vector<bool> asc;
  for (const SortKey& k : keys) {
    int i = block->schema().IndexOf(k.column);
    assert(i >= 0 && "sort key not in schema");
    idx.push_back(i);
    asc.push_back(k.ascending);
  }
  // Orders row indices with the row index breaking ties, so the first
  // `limit` of them are the stable order's prefix; the rows past the limit
  // are only partitioned off, never sorted.
  std::vector<std::vector<Value>>& rows = block->rows();
  auto before = [&](size_t a, size_t b) {
    for (size_t k = 0; k < idx.size(); ++k) {
      int c = rows[a][idx[k]].Compare(rows[b][idx[k]]);
      if (c != 0) return asc[k] ? c < 0 : c > 0;
    }
    return a < b;
  };
  const size_t n = std::min<uint64_t>(limit, rows.size());
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0);
  std::nth_element(order.begin(), order.begin() + n, order.end(), before);
  std::sort(order.begin(), order.begin() + n, before);
  std::vector<std::vector<Value>> sorted;
  sorted.reserve(n);
  for (size_t i = 0; i < n; ++i) sorted.push_back(std::move(rows[order[i]]));
  rows = std::move(sorted);
}

FlatBlock HashAggregate(const FlatBlock& block,
                        const std::vector<std::string>& group_by,
                        const std::vector<AggSpec>& aggs) {
  GroupedAggregator agg(block.schema(), group_by, aggs);
  for (const auto& row : block.rows()) {
    agg.AddRow([&](int c) -> const Value& { return row[c]; });
  }
  return agg.Finish();
}

FlatBlock ProjectFlat(const FlatBlock& block, const PlanOp& op) {
  const Schema& in = block.schema();
  Schema out_schema;
  std::vector<int> sel_idx;
  if (op.selections.empty()) {
    for (size_t i = 0; i < in.size(); ++i) {
      out_schema.Add(in[i].name, in[i].type);
      sel_idx.push_back(static_cast<int>(i));
    }
  } else {
    for (const auto& [col, as] : op.selections) {
      int i = in.IndexOf(col);
      assert(i >= 0);
      out_schema.Add(as.empty() ? col : as, in[i].type);
      sel_idx.push_back(i);
    }
  }
  std::vector<BoundExpr> exprs;
  for (const ComputedColumn& c : op.computed) {
    out_schema.Add(c.name, c.type);
    exprs.push_back(BoundExpr::Bind(*c.expr, in));
  }
  FlatBlock out(out_schema);
  out.Reserve(block.NumRows());
  for (const auto& row : block.rows()) {
    std::vector<Value> r;
    r.reserve(sel_idx.size() + exprs.size());
    for (int i : sel_idx) r.push_back(row[i]);
    for (const BoundExpr& e : exprs) r.push_back(e.EvalRow(row));
    out.AppendRow(std::move(r));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Flat (block-based) operator implementations.
// ---------------------------------------------------------------------------

namespace {

FlatBlock FlatSeek(const PlanOp& op, const GraphView& view) {
  Schema s;
  s.Add(op.out_column, ValueType::kVertex);
  FlatBlock out(s);
  VertexId v = view.FindByExtId(op.label, op.seek_ext_id);
  if (v != kInvalidVertex) {
    out.AppendRow({Value::Vertex(v)});
  }
  return out;
}

FlatBlock FlatScan(const PlanOp& op, const GraphView& view) {
  Schema s;
  s.Add(op.out_column, ValueType::kVertex);
  FlatBlock out(s);
  std::vector<VertexId> ids;
  view.ScanLabel(op.label, &ids);
  out.Reserve(ids.size());
  for (VertexId v : ids) out.AppendRow({Value::Vertex(v)});
  return out;
}

FlatBlock FlatExpand(const FlatBlock& in, const PlanOp& op,
                     const GraphView& view, const QueryContext* ctx) {
  int src_idx = in.schema().IndexOf(op.in_column);
  assert(src_idx >= 0);
  Schema s = in.schema();
  s.Add(op.out_column, ValueType::kVertex);
  bool want_dist = !op.distance_column.empty();
  bool want_stamp = !op.stamp_column.empty();
  if (want_dist) s.Add(op.distance_column, ValueType::kInt64);
  if (want_stamp) s.Add(op.stamp_column, ValueType::kDate);
  FlatBlock out(s);
  std::vector<std::pair<VertexId, int>> nbrs;
  std::vector<int64_t> stamps;
  // Mid-operator governor charges: full tuple replication is the flat
  // engine's memory hot spot, so the budget must see the growth before the
  // operator returns. The O(1) row-width estimate stands in for the exact
  // MemoryBytes() walk; the per-op accounting in RunFlat trues it up.
  BudgetTracker tracker(ctx != nullptr ? ctx->budget() : nullptr);
  const size_t row_bytes =
      s.size() * sizeof(Value) + sizeof(std::vector<Value>);
  size_t rows_in = 0;
  for (const auto& row : in.rows()) {
    if ((++rows_in & 255u) == 0) {
      tracker.Update(out.NumRows() * row_bytes);
      ThrowIfInterrupted(ctx);
    }
    nbrs.clear();
    stamps.clear();
    CollectNeighbors(view, op.rels, row[src_idx].AsVertex(), op.min_hops,
                     op.max_hops, op.distinct, op.exclude_start, &nbrs,
                     want_stamp ? &stamps : nullptr);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      // Full tuple replication per neighbor — exactly the flat-representation
      // cost the paper profiles (Figure 4).
      std::vector<Value> r = row;
      r.push_back(Value::Vertex(nbrs[i].first));
      if (want_dist) r.push_back(Value::Int(nbrs[i].second));
      if (want_stamp) r.push_back(Value::Date(stamps[i]));
      out.AppendRow(std::move(r));
    }
  }
  tracker.Update(0);  // the caller's per-op delta re-charges the exact size
  return out;
}

// Property fetch extends each row in place — block-based engines append a
// column to the live block rather than rebuilding it.
FlatBlock FlatGetProperty(FlatBlock in, const PlanOp& op,
                          const GraphView& view) {
  int src_idx = in.schema().IndexOf(op.in_column);
  assert(src_idx >= 0);
  in.mutable_schema()->Add(op.out_column, op.property_type);
  for (auto& row : in.rows()) {
    row.push_back(view.Property(row[src_idx].AsVertex(), op.property));
  }
  return in;
}

FlatBlock FlatFilter(const FlatBlock& in, const PlanOp& op) {
  BoundExpr pred = BoundExpr::Bind(*op.predicate, in.schema());
  FlatBlock out(in.schema());
  for (const auto& row : in.rows()) {
    if (pred.EvalRow(row).AsBool()) {
      out.AppendRow(row);
    }
  }
  return out;
}

FlatBlock FlatDistinct(const FlatBlock& in) {
  std::unordered_set<std::vector<Value>, RowHash, RowEq> seen;
  FlatBlock out(in.schema());
  for (const auto& row : in.rows()) {
    if (seen.insert(row).second) out.AppendRow(row);
  }
  return out;
}

FlatBlock FlatExpandInto(const FlatBlock& in, const PlanOp& op,
                         const GraphView& view, IntersectOpStats* istats) {
  int a = in.schema().IndexOf(op.in_column);
  int b = in.schema().IndexOf(op.other_column);
  assert(a >= 0 && b >= 0);
  FlatBlock out(in.schema());
  AdjScratch adj;
  for (const auto& row : in.rows()) {
    bool has = view.HasEdge(op.rels, row[a].AsVertex(), row[b].AsVertex(),
                            istats, &adj);
    if (has != op.anti) out.AppendRow(row);
  }
  return out;
}

// Worst-case-optimal multiway intersection: one output row per driver
// neighbor adjacent to every probe vertex (see IntersectExpandRunner).
FlatBlock FlatIntersectExpand(const FlatBlock& in, const PlanOp& op,
                              const GraphView& view,
                              IntersectOpStats* istats) {
  int src_idx = in.schema().IndexOf(op.in_column);
  assert(src_idx >= 0);
  std::vector<int> probe_idx;
  for (const std::string& p : op.probe_columns) {
    int i = in.schema().IndexOf(p);
    assert(i >= 0);
    probe_idx.push_back(i);
  }
  Schema s = in.schema();
  s.Add(op.out_column, ValueType::kVertex);
  FlatBlock out(s);
  internal::IntersectExpandRunner runner(op);
  std::vector<VertexId> probe_vals(probe_idx.size());
  for (const auto& row : in.rows()) {
    for (size_t c = 0; c < probe_idx.size(); ++c) {
      probe_vals[c] = row[probe_idx[c]].AsVertex();
    }
    runner.Run(view, row[src_idx].AsVertex(), probe_vals.data(), istats,
               [&](VertexId w) {
                 std::vector<Value> r = row;
                 r.push_back(Value::Vertex(w));
                 out.AppendRow(std::move(r));
               });
  }
  return out;
}

FlatBlock FlatLimit(const FlatBlock& in, uint64_t n) {
  FlatBlock out(in.schema());
  for (size_t i = 0; i < in.NumRows() && i < n; ++i) {
    out.AppendRow(in.Row(i));
  }
  return out;
}

}  // namespace

namespace internal {

FlatBlock ApplyFlatOp(FlatBlock state, const PlanOp& op, const GraphView& view,
                      IntersectOpStats* istats, const QueryContext* ctx) {
  switch (op.type) {
    case OpType::kNodeByIdSeek:
      return FlatSeek(op, view);
    case OpType::kScanByLabel:
      return FlatScan(op, view);
    case OpType::kExpand:
      return FlatExpand(state, op, view, ctx);
    case OpType::kGetProperty:
      return FlatGetProperty(std::move(state), op, view);
    case OpType::kFilter:
      return FlatFilter(state, op);
    case OpType::kProject:
      // Computed-only projections extend rows in place.
      if (op.selections.empty()) {
        std::vector<BoundExpr> exprs;
        for (const ComputedColumn& c : op.computed) {
          exprs.push_back(BoundExpr::Bind(*c.expr, state.schema()));
        }
        for (auto& row : state.rows()) {
          for (const BoundExpr& e : exprs) row.push_back(e.EvalRow(row));
        }
        for (const ComputedColumn& c : op.computed) {
          state.mutable_schema()->Add(c.name, c.type);
        }
        return state;
      }
      return ProjectFlat(state, op);
    case OpType::kOrderBy:
    case OpType::kTopK:
      SortAndLimit(&state, op.sort_keys, op.limit);
      return state;
    case OpType::kAggregate:
      return HashAggregate(state, op.group_by, op.aggs);
    case OpType::kLimit:
      return FlatLimit(state, op.limit);
    case OpType::kDistinct:
      return FlatDistinct(state);
    case OpType::kExpandInto:
      return FlatExpandInto(state, op, view, istats);
    case OpType::kIntersectExpand:
      return FlatIntersectExpand(state, op, view, istats);
    case OpType::kProcedure:
      return op.procedure(view);
    case OpType::kExpandFiltered: {
      // Stepwise fallback: expand, fetch the fused property, filter.
      state = FlatExpand(state, op, view, ctx);
      PlanOp gp;
      gp.type = OpType::kGetProperty;
      gp.in_column = op.out_column;
      gp.out_column = FusedPropertyColumn(op);
      gp.property = op.property;
      gp.property_type = op.property_type;
      state = FlatGetProperty(std::move(state), gp, view);
      PlanOp f;
      f.type = OpType::kFilter;
      f.predicate = op.predicate;
      return FlatFilter(state, f);
    }
    case OpType::kAggProjectTop: {
      state = HashAggregate(state, op.group_by, op.aggs);
      if (!op.computed.empty() || !op.selections.empty()) {
        state = ProjectFlat(state, op);
      }
      SortAndLimit(&state, op.sort_keys, op.limit);
      return state;
    }
  }
  return state;
}

FlatBlock ProjectOutput(const FlatBlock& in,
                        const std::vector<std::string>& output) {
  if (output.empty()) return in;
  PlanOp op;
  op.type = OpType::kProject;
  for (const std::string& c : output) op.selections.emplace_back(c, c);
  return ProjectFlat(in, op);
}

}  // namespace internal

QueryResult Executor::RunFlat(const Plan& plan, const GraphView& view) const {
  QueryResult result;
  Timer total;
  FlatBlock state;
  MemoryBudget* budget =
      options_.context != nullptr ? options_.context->budget() : nullptr;
  BudgetTracker tracker(budget);
  for (const PlanOp& op : plan.ops) {
    ThrowIfInterrupted(options_.context);
    Timer t;
    IntersectOpStats istats;
    state = internal::ApplyFlatOp(std::move(state), op, view, &istats,
                                  options_.context);
    if (budget != nullptr) tracker.Update(state.MemoryBytes());
    result.stats.intersect.Add(istats);
    OpStats os;
    os.op = OpTypeName(op.type);
    os.intersect = istats;
    os.millis = t.ElapsedMillis();
    os.est_rows = op.est_rows;
    if (options_.collect_stats) {
      os.intermediate_bytes = state.MemoryBytes();
      os.rows = state.NumRows();
      result.stats.peak_intermediate_bytes = std::max(
          result.stats.peak_intermediate_bytes, os.intermediate_bytes);
    }
    result.stats.ops.push_back(std::move(os));
  }
  result.table = internal::ProjectOutput(state, plan.output);
  result.stats.total_millis = total.ElapsedMillis();
  return result;
}

QueryResult Executor::Run(const Plan& plan, const GraphView& view) const {
  MemoryBudget* budget =
      options_.context != nullptr ? options_.context->budget() : nullptr;
  QueryResult result;
  try {
    switch (mode_) {
      case ExecMode::kVolcano:
        result = RunVolcano(plan, view);
        break;
      case ExecMode::kFlat:
        result = RunFlat(plan, view);
        break;
      case ExecMode::kFactorized:
        result = RunFactorized(plan, view);
        break;
      case ExecMode::kFactorizedFused:
        result = plan.optimized
                     ? RunFactorized(plan, view)
                     : RunFactorized(OptimizePlan(plan, options_, &view), view);
        break;
    }
  } catch (const QueryInterrupted& e) {
    // A checkpoint fired (deadline/cancel/memory via options_.context).
    // Surface it as data, not as an exception: no caller outside the engine
    // unwinds. The budget keeps whatever was charged until its owner (the
    // service) destroys it, which squares the global gauge.
    result = QueryResult{};
    result.interrupted = e.reason;
  }
  if (budget != nullptr) {
    result.stats.peak_memory_bytes = budget->peak();
  }
  return result;
}

}  // namespace ges

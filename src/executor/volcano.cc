// Tuple-at-a-time Volcano interpreter.
//
// This is the conventional-GDBMS executor architecture (virtual Next() per
// tuple, per-row materialization everywhere) used as the stand-in for the
// commercial systems of Table 4 / Figure 15 — see DESIGN.md substitutions.
#include <cassert>
#include <memory>
#include <unordered_set>

#include "common/timer.h"
#include "executor/executor.h"
#include "executor/executor_internal.h"

namespace ges {

namespace {

using Row = std::vector<Value>;

class VolOp {
 public:
  virtual ~VolOp() = default;
  virtual bool Next(Row* row) = 0;
  const Schema& schema() const { return schema_; }

 protected:
  Schema schema_;
};

class VolSeek : public VolOp {
 public:
  VolSeek(const PlanOp& op, const GraphView& view) : op_(op), view_(view) {
    schema_.Add(op.out_column, ValueType::kVertex);
  }
  bool Next(Row* row) override {
    if (done_) return false;
    done_ = true;
    VertexId v = view_.FindByExtId(op_.label, op_.seek_ext_id);
    if (v == kInvalidVertex) return false;
    *row = {Value::Vertex(v)};
    return true;
  }

 private:
  const PlanOp& op_;
  const GraphView& view_;
  bool done_ = false;
};

class VolScan : public VolOp {
 public:
  VolScan(const PlanOp& op, const GraphView& view) {
    schema_.Add(op.out_column, ValueType::kVertex);
    view.ScanLabel(op.label, &ids_);
  }
  bool Next(Row* row) override {
    if (pos_ >= ids_.size()) return false;
    *row = {Value::Vertex(ids_[pos_++])};
    return true;
  }

 private:
  std::vector<VertexId> ids_;
  size_t pos_ = 0;
};

class VolExpand : public VolOp {
 public:
  VolExpand(std::unique_ptr<VolOp> child, const PlanOp& op,
            const GraphView& view)
      : child_(std::move(child)), op_(op), view_(view) {
    schema_ = child_->schema();
    src_idx_ = schema_.IndexOf(op.in_column);
    assert(src_idx_ >= 0);
    schema_.Add(op.out_column, ValueType::kVertex);
    want_dist_ = !op.distance_column.empty();
    want_stamp_ = !op.stamp_column.empty();
    if (want_dist_) schema_.Add(op.distance_column, ValueType::kInt64);
    if (want_stamp_) schema_.Add(op.stamp_column, ValueType::kDate);
  }

  bool Next(Row* row) override {
    while (true) {
      if (pos_ < nbrs_.size()) {
        *row = current_;
        row->push_back(Value::Vertex(nbrs_[pos_].first));
        if (want_dist_) row->push_back(Value::Int(nbrs_[pos_].second));
        if (want_stamp_) row->push_back(Value::Date(stamps_[pos_]));
        ++pos_;
        return true;
      }
      if (!child_->Next(&current_)) return false;
      nbrs_.clear();
      stamps_.clear();
      pos_ = 0;
      CollectNeighbors(view_, op_.rels, current_[src_idx_].AsVertex(),
                       op_.min_hops, op_.max_hops, op_.distinct,
                       op_.exclude_start, &nbrs_,
                       want_stamp_ ? &stamps_ : nullptr);
    }
  }

 private:
  std::unique_ptr<VolOp> child_;
  const PlanOp& op_;
  const GraphView& view_;
  int src_idx_;
  bool want_dist_ = false;
  bool want_stamp_ = false;
  Row current_;
  std::vector<std::pair<VertexId, int>> nbrs_;
  std::vector<int64_t> stamps_;
  size_t pos_ = 0;
};

class VolGetProperty : public VolOp {
 public:
  VolGetProperty(std::unique_ptr<VolOp> child, const PlanOp& op,
                 const GraphView& view)
      : child_(std::move(child)), op_(op), view_(view) {
    schema_ = child_->schema();
    src_idx_ = schema_.IndexOf(op.in_column);
    assert(src_idx_ >= 0);
    schema_.Add(op.out_column, op.property_type);
  }
  bool Next(Row* row) override {
    if (!child_->Next(row)) return false;
    row->push_back(view_.Property((*row)[src_idx_].AsVertex(), op_.property));
    return true;
  }

 private:
  std::unique_ptr<VolOp> child_;
  const PlanOp& op_;
  const GraphView& view_;
  int src_idx_;
};

class VolFilter : public VolOp {
 public:
  VolFilter(std::unique_ptr<VolOp> child, const PlanOp& op)
      : child_(std::move(child)),
        pred_(BoundExpr::Bind(*op.predicate, child_->schema())) {
    schema_ = child_->schema();
  }
  bool Next(Row* row) override {
    while (child_->Next(row)) {
      if (pred_.EvalRow(*row).AsBool()) return true;
    }
    return false;
  }

 private:
  std::unique_ptr<VolOp> child_;
  BoundExpr pred_;
};

class VolExpandInto : public VolOp {
 public:
  VolExpandInto(std::unique_ptr<VolOp> child, const PlanOp& op,
                const GraphView& view, IntersectOpStats* istats)
      : child_(std::move(child)), op_(op), view_(view), istats_(istats) {
    schema_ = child_->schema();
    a_ = schema_.IndexOf(op.in_column);
    b_ = schema_.IndexOf(op.other_column);
    assert(a_ >= 0 && b_ >= 0);
  }
  bool Next(Row* row) override {
    while (child_->Next(row)) {
      bool has = view_.HasEdge(op_.rels, (*row)[a_].AsVertex(),
                               (*row)[b_].AsVertex(), istats_, &adj_);
      if (has != op_.anti) return true;
    }
    return false;
  }

 private:
  std::unique_ptr<VolOp> child_;
  const PlanOp& op_;
  const GraphView& view_;
  IntersectOpStats* istats_;
  int a_;
  int b_;
  AdjScratch adj_;  // decode scratch for compacted relations
};

// Tuple-at-a-time multiway intersection: per input row, materialize the
// surviving neighbors (via the shared leapfrog runner) and stream them.
class VolIntersectExpand : public VolOp {
 public:
  VolIntersectExpand(std::unique_ptr<VolOp> child, const PlanOp& op,
                     const GraphView& view, IntersectOpStats* istats)
      : child_(std::move(child)),
        op_(op),
        view_(view),
        istats_(istats),
        runner_(op) {
    schema_ = child_->schema();
    src_idx_ = schema_.IndexOf(op.in_column);
    assert(src_idx_ >= 0);
    for (const std::string& p : op.probe_columns) {
      int i = schema_.IndexOf(p);
      assert(i >= 0);
      probe_idx_.push_back(i);
    }
    probe_vals_.resize(probe_idx_.size());
    schema_.Add(op.out_column, ValueType::kVertex);
  }

  bool Next(Row* row) override {
    while (true) {
      if (pos_ < matches_.size()) {
        *row = current_;
        row->push_back(Value::Vertex(matches_[pos_++]));
        return true;
      }
      if (!child_->Next(&current_)) return false;
      matches_.clear();
      pos_ = 0;
      for (size_t c = 0; c < probe_idx_.size(); ++c) {
        probe_vals_[c] = current_[probe_idx_[c]].AsVertex();
      }
      runner_.Run(view_, current_[src_idx_].AsVertex(), probe_vals_.data(),
                  istats_, [&](VertexId w) { matches_.push_back(w); });
    }
  }

 private:
  std::unique_ptr<VolOp> child_;
  const PlanOp& op_;
  const GraphView& view_;
  IntersectOpStats* istats_;
  internal::IntersectExpandRunner runner_;
  int src_idx_;
  std::vector<int> probe_idx_;
  std::vector<VertexId> probe_vals_;
  Row current_;
  std::vector<VertexId> matches_;
  size_t pos_ = 0;
};

class VolLimit : public VolOp {
 public:
  VolLimit(std::unique_ptr<VolOp> child, uint64_t limit)
      : child_(std::move(child)), limit_(limit) {
    schema_ = child_->schema();
  }
  bool Next(Row* row) override {
    if (n_ >= limit_) return false;
    if (!child_->Next(row)) return false;
    ++n_;
    return true;
  }

 private:
  std::unique_ptr<VolOp> child_;
  uint64_t limit_;
  uint64_t n_ = 0;
};

class VolDistinct : public VolOp {
 public:
  explicit VolDistinct(std::unique_ptr<VolOp> child)
      : child_(std::move(child)) {
    schema_ = child_->schema();
  }
  bool Next(Row* row) override {
    while (child_->Next(row)) {
      if (seen_.insert(*row).second) return true;
    }
    return false;
  }
  size_t BufferedBytes() const {
    size_t b = 0;
    for (const Row& r : seen_) b += r.capacity() * sizeof(Value);
    return b;
  }

 private:
  std::unique_ptr<VolOp> child_;
  std::unordered_set<Row, internal::RowHash, internal::RowEq> seen_;
};

// Blocking operator base: drains the child into a FlatBlock on first Next,
// applies `Process`, then streams the result.
class VolBlocking : public VolOp {
 public:
  VolBlocking(std::unique_ptr<VolOp> child, size_t* peak_bytes)
      : child_(std::move(child)), peak_bytes_(peak_bytes) {}

  bool Next(Row* row) override {
    if (!materialized_) {
      FlatBlock in(child_->schema());
      Row r;
      while (child_->Next(&r)) in.AppendRow(std::move(r));
      if (peak_bytes_ != nullptr) {
        *peak_bytes_ = std::max(*peak_bytes_, in.MemoryBytes());
      }
      out_ = Process(std::move(in));
      materialized_ = true;
    }
    if (pos_ >= out_.NumRows()) return false;
    *row = out_.Row(pos_++);
    return true;
  }

 protected:
  virtual FlatBlock Process(FlatBlock in) = 0;

  std::unique_ptr<VolOp> child_;

 private:
  size_t* peak_bytes_;
  bool materialized_ = false;
  FlatBlock out_;
  size_t pos_ = 0;
};

class VolOrderBy : public VolBlocking {
 public:
  VolOrderBy(std::unique_ptr<VolOp> child, const PlanOp& op,
             size_t* peak_bytes)
      : VolBlocking(std::move(child), peak_bytes), op_(op) {
    schema_ = child_->schema();
  }

 protected:
  FlatBlock Process(FlatBlock in) override {
    SortAndLimit(&in, op_.sort_keys, op_.limit);
    return in;
  }

 private:
  const PlanOp& op_;
};

class VolAggregate : public VolBlocking {
 public:
  VolAggregate(std::unique_ptr<VolOp> child, const PlanOp& op,
               size_t* peak_bytes)
      : VolBlocking(std::move(child), peak_bytes), op_(op) {
    // Output schema is computed by HashAggregate; approximate here for
    // parents (they resolve by name).
    FlatBlock probe(child_->schema());
    schema_ = HashAggregate(probe, op.group_by, op.aggs).schema();
  }

 protected:
  FlatBlock Process(FlatBlock in) override {
    return HashAggregate(in, op_.group_by, op_.aggs);
  }

 private:
  const PlanOp& op_;
};

class VolProject : public VolBlocking {
 public:
  VolProject(std::unique_ptr<VolOp> child, const PlanOp& op,
             size_t* peak_bytes)
      : VolBlocking(std::move(child), peak_bytes), op_(op) {
    FlatBlock probe(child_->schema());
    schema_ = ProjectFlat(probe, op).schema();
  }

 protected:
  FlatBlock Process(FlatBlock in) override { return ProjectFlat(in, op_); }

 private:
  const PlanOp& op_;
};

class VolProcedure : public VolOp {
 public:
  VolProcedure(const PlanOp& op, const GraphView& view)
      : out_(op.procedure(view)) {
    schema_ = out_.schema();
  }
  bool Next(Row* row) override {
    if (pos_ >= out_.NumRows()) return false;
    *row = out_.Row(pos_++);
    return true;
  }

 private:
  FlatBlock out_;
  size_t pos_ = 0;
};

}  // namespace

QueryResult RunVolcano(const Plan& plan, const GraphView& view) {
  QueryResult result;
  Timer total;
  size_t peak_bytes = 0;
  IntersectOpStats istats;

  std::unique_ptr<VolOp> pipeline;
  for (const PlanOp& op : plan.ops) {
    switch (op.type) {
      case OpType::kNodeByIdSeek:
        pipeline = std::make_unique<VolSeek>(op, view);
        break;
      case OpType::kScanByLabel:
        pipeline = std::make_unique<VolScan>(op, view);
        break;
      case OpType::kExpand:
        pipeline = std::make_unique<VolExpand>(std::move(pipeline), op, view);
        break;
      case OpType::kGetProperty:
        pipeline =
            std::make_unique<VolGetProperty>(std::move(pipeline), op, view);
        break;
      case OpType::kFilter:
        pipeline = std::make_unique<VolFilter>(std::move(pipeline), op);
        break;
      case OpType::kProject:
        pipeline =
            std::make_unique<VolProject>(std::move(pipeline), op, &peak_bytes);
        break;
      case OpType::kOrderBy:
      case OpType::kTopK:
        pipeline =
            std::make_unique<VolOrderBy>(std::move(pipeline), op, &peak_bytes);
        break;
      case OpType::kAggregate:
        pipeline = std::make_unique<VolAggregate>(std::move(pipeline), op,
                                                  &peak_bytes);
        break;
      case OpType::kLimit:
        pipeline = std::make_unique<VolLimit>(std::move(pipeline), op.limit);
        break;
      case OpType::kDistinct:
        pipeline = std::make_unique<VolDistinct>(std::move(pipeline));
        break;
      case OpType::kExpandInto:
        pipeline = std::make_unique<VolExpandInto>(std::move(pipeline), op,
                                                   view, &istats);
        break;
      case OpType::kIntersectExpand:
        pipeline = std::make_unique<VolIntersectExpand>(std::move(pipeline),
                                                        op, view, &istats);
        break;
      case OpType::kProcedure:
        pipeline = std::make_unique<VolProcedure>(op, view);
        break;
      default:
        // Fused operators never reach the Volcano engine: only
        // OptimizePlan emits them, and only the kFactorizedFused paths
        // (Executor::Run, the server's PrepareStatement) call it. Treat
        // one here as a bug.
        assert(false && "fused operator in Volcano plan");
        break;
    }
  }

  FlatBlock out(pipeline->schema());
  Row row;
  while (pipeline->Next(&row)) out.AppendRow(std::move(row));
  peak_bytes = std::max(peak_bytes, out.MemoryBytes());

  result.table = internal::ProjectOutput(out, plan.output);
  result.stats.peak_intermediate_bytes = peak_bytes;
  result.stats.intersect = istats;
  result.stats.total_millis = total.ElapsedMillis();
  return result;
}

}  // namespace ges

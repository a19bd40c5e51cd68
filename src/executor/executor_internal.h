// Internal helpers shared between the flat and factorized interpreters.
// Not part of the public API.
#ifndef GES_EXECUTOR_EXECUTOR_INTERNAL_H_
#define GES_EXECUTOR_EXECUTOR_INTERNAL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "executor/executor.h"

namespace ges::internal {

// Applies one plan operator to a flat state. Handles every OpType,
// including fused operators (executed stepwise). `istats`, when non-null,
// accumulates intersection/galloping counters (kIntersectExpand,
// kExpandInto membership probes). `ctx`, when non-null, is polled inside
// the replication-heavy operators (Expand) so a flat-mode memory hog is
// interruptible mid-operator, with its output growth charged against the
// query's MemoryBudget.
FlatBlock ApplyFlatOp(FlatBlock state, const PlanOp& op, const GraphView& view,
                      IntersectOpStats* istats = nullptr,
                      const QueryContext* ctx = nullptr);

// Final output projection (keeps all columns when `output` is empty).
FlatBlock ProjectOutput(const FlatBlock& in,
                        const std::vector<std::string>& output);

// Hash/equality over value rows (grouping, distinct).
struct RowHash {
  size_t operator()(const std::vector<Value>& row) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (const Value& v : row) {
      h = (h ^ v.Hash()) * 0x100000001b3ULL;
    }
    return h;
  }
};
struct RowEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
};
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

// In a fused kExpandFiltered op, the fetched property column is named by
// `op.other_column` (reusing the field; see optimizer.cc).
inline const std::string& FusedPropertyColumn(const PlanOp& op) {
  return op.other_column;
}

// Per-row driver of kIntersectExpand, shared by the flat, Volcano and
// factorized engines: binds the probe adjacency lists of one input row,
// then walks the driver's neighbors in adjacency (sorted) order and emits
// exactly those adjacent to every probe vertex — a leapfrog intersection
// with advancing galloping cursors (storage/intersect.h). Driver order and
// multiplicity are preserved, so the operator is row-for-row equivalent to
// Expand followed by an ExpandInto chain over the reverse relations.
class IntersectExpandRunner {
 public:
  explicit IntersectExpandRunner(const PlanOp& op) : op_(&op) {
    size_t lists = 0;
    for (const auto& rels : op.probe_rels) lists += rels.size();
    adj_scratch_.resize(lists);
  }

  template <typename Emit>
  void Run(const GraphView& view, VertexId src, const VertexId* probe_vals,
           IntersectOpStats* stats, Emit&& emit) {
    lists_.clear();
    column_of_.clear();
    size_t li = 0;
    for (size_t c = 0; c < op_->probe_rels.size(); ++c) {
      for (RelationId rel : op_->probe_rels[c]) {
        // Per-list decode scratch: every bound probe list stays live for
        // the whole leapfrog walk, decoded segment spans included.
        lists_.push_back(
            view.Neighbors(rel, probe_vals[c], &adj_scratch_[li]));
        column_of_.push_back(static_cast<uint32_t>(c));
        ++li;
      }
    }
    prober_.Bind(lists_, column_of_, op_->probe_rels.size());
    if (prober_.AnyColumnEmpty()) return;
    for (RelationId rel : op_->rels) {
      AdjSpan span = view.Neighbors(rel, src, &driver_adj_);
      prober_.BeginDriverList();
      for (uint32_t i = 0; i < span.size; ++i) {
        VertexId w = span.ids[i];
        if (!prober_.Matches(w, stats)) continue;
        if (stats != nullptr) ++stats->emitted;
        emit(w);
      }
    }
  }

 private:
  const PlanOp* op_;
  IntersectProber prober_;
  std::vector<AdjSpan> lists_;
  std::vector<uint32_t> column_of_;
  std::vector<AdjScratch> adj_scratch_;
  AdjScratch driver_adj_;
};

// Incremental hash-grouped aggregation shared by the flat engine, the
// direct (tuple-count DP) factorized path, and the streaming fused path.
// Feed rows with AddRow; Finish() emits one row per group in
// first-encounter order: group keys then aggregate outputs.
class GroupedAggregator {
 public:
  // Resolves the group keys and the aggregate inputs against the columns
  // of `schema`, which every row fed to AddRow follows.
  GroupedAggregator(const Schema& schema,
                    const std::vector<std::string>& group_by,
                    std::vector<AggSpec> aggs);

  // Folds in, `multiplicity` times, the row whose column c reads
  // value_at(c). The key and input buffers are reused across rows.
  template <typename ValueAt>
  void AddRow(const ValueAt& value_at, int64_t multiplicity = 1) {
    for (size_t k = 0; k < key_.size(); ++k) key_[k] = value_at(key_idx_[k]);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (input_idx_[a] >= 0) inputs_[a] = value_at(input_idx_[a]);
    }
    Add(multiplicity);
  }

  FlatBlock Finish();

 private:
  struct State {
    int64_t count = 0;
    int64_t sum_i = 0;
    double sum_d = 0;
    // MIN/MAX/COUNT DISTINCT state, made on the group's first row, so a
    // COUNT/SUM group costs 32 bytes: with thousands of groups a fat state
    // array is fresh memory that every query faults in.
    struct Extra {
      Value min, max;
      std::unordered_set<Value, ValueHash> distinct;
    };
    std::unique_ptr<Extra> extra;
  };

  // Folds key_ and inputs_ into their group's states.
  void Add(int64_t multiplicity);

  std::vector<ColumnDef> key_defs_;
  std::vector<AggSpec> aggs_;
  std::vector<ValueType> input_types_;  // kInt64 for COUNT(*)
  std::vector<int> key_idx_;
  std::vector<int> input_idx_;  // -1 for COUNT(*)
  std::vector<Value> key_;
  std::vector<Value> inputs_;
  // Group key -> group id; ids follow first-encounter order, and group g
  // owns states_[g * #aggs, (g + 1) * #aggs).
  std::unordered_map<std::vector<Value>, size_t, RowHash, RowEq> index_;
  std::vector<State> states_;
};

}  // namespace ges::internal

#endif  // GES_EXECUTOR_EXECUTOR_INTERNAL_H_

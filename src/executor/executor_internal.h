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
// Feed rows with AddRow or AddTypedRow; Finish() emits one row per group
// in first-encounter order: group keys then aggregate outputs.
//
// When every group key is an int64, vertex or date column, groups are
// found by their keys' raw 64-bit words in an open-addressing index, with
// no Value built, hashed or compared. A row whose key is not a plain word
// of its column's type (a null in a flat row) moves every group to the
// Value-keyed index first, keeping their ids; other keys use that index
// from the start.
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
    if (typed_) {
      size_t k = 0;
      for (; k < key_idx_.size(); ++k) {
        const Value& v = value_at(key_idx_[k]);
        if (v.type() != key_defs_[k].type) break;
        words_[k] = v.AsInt();
      }
      if (k == key_idx_.size()) {
        ReadInputs(value_at);
        Fold(TypedGroup(), multiplicity);
        return;
      }
      MoveToValueIndex();
    }
    for (size_t k = 0; k < key_.size(); ++k) key_[k] = value_at(key_idx_[k]);
    ReadInputs(value_at);
    Fold(ValueGroup(), multiplicity);
  }

  // AddRow for a row of typed columns (an f-Block's): with typed keys,
  // word_at(c) reads key column c's raw word and value_at only the
  // aggregate inputs; with other keys the row goes through AddRow.
  template <typename WordAt, typename ValueAt>
  void AddTypedRow(const WordAt& word_at, const ValueAt& value_at,
                   int64_t multiplicity = 1) {
    if (!typed_) return AddRow(value_at, multiplicity);
    for (size_t k = 0; k < key_idx_.size(); ++k) {
      words_[k] = word_at(key_idx_[k]);
    }
    ReadInputs(value_at);
    Fold(TypedGroup(), multiplicity);
  }

  // Sizes the index and the states for `groups` groups before the first
  // row, so a caller that knows an upper bound pays no regrowth.
  void Reserve(size_t groups);

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

  template <typename ValueAt>
  void ReadInputs(const ValueAt& value_at) {
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (input_idx_[a] >= 0) inputs_[a] = value_at(input_idx_[a]);
    }
  }
  static size_t HashWords(const int64_t* w, size_t n) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ static_cast<uint64_t>(w[i])) * 0xff51afd7ed558ccdULL;
      h ^= h >> 29;
    }
    return static_cast<size_t>(h);
  }
  // Group id of words_ / key_, made (with its states) on first sight. The
  // typed probe stays inline: it runs once per row.
  size_t TypedGroup() {
    const size_t nk = words_.size();
    const size_t mask = slots_.size() - 1;
    for (size_t i = HashWords(words_.data(), nk) & mask;;
         i = (i + 1) & mask) {
      const Slot s = slots_[i];
      if (s.group == 0) return InsertTyped(i);
      if (s.word0 != words_[0]) continue;
      const int64_t* key = &key_words_[(s.group - 1) * nk];
      size_t k = 1;
      while (k < nk && key[k] == words_[k]) ++k;
      if (k == nk) return s.group - 1;
    }
  }
  // Makes the group of words_ in empty slot `slot`.
  size_t InsertTyped(size_t slot);
  size_t ValueGroup();
  size_t NewGroup();
  // Re-keys every group by Values and leaves typed mode.
  void MoveToValueIndex();
  // Folds the row into group `g`'s states; FoldInput folds inputs_[a].
  void Fold(size_t g, int64_t multiplicity) {
    State* st = &states_[g * aggs_.size()];
    for (size_t a = 0; a < aggs_.size(); ++a) {
      st[a].count += multiplicity;
      if (input_idx_[a] >= 0) FoldInput(a, multiplicity, &st[a]);
    }
  }
  void FoldInput(size_t a, int64_t multiplicity, State* s);

  std::vector<ColumnDef> key_defs_;
  std::vector<AggSpec> aggs_;
  std::vector<ValueType> input_types_;  // kInt64 for COUNT(*)
  std::vector<int> key_idx_;
  std::vector<int> input_idx_;  // -1 for COUNT(*)
  std::vector<Value> key_;
  std::vector<Value> inputs_;
  size_t groups_ = 0;
  // Group g owns states_[g * #aggs, (g + 1) * #aggs); ids follow
  // first-encounter order.
  std::vector<State> states_;
  // Typed keys: group g's words are key_words_[g * #keys, (g + 1) * #keys).
  // slots_ is a linear-probing table, power-of-two sized and at most half
  // full, whose slots carry their group's first word, so a one-key probe
  // reads one slot.
  struct Slot {
    int64_t word0 = 0;
    uint32_t group = 0;  // group id + 1; 0 marks an empty slot
  };
  bool typed_ = false;
  std::vector<int64_t> words_;
  std::vector<int64_t> key_words_;
  std::vector<Slot> slots_;
  // Value keys: group key -> group id.
  std::unordered_map<std::vector<Value>, size_t, RowHash, RowEq> index_;
};

}  // namespace ges::internal

#endif  // GES_EXECUTOR_EXECUTOR_INTERNAL_H_

#include "executor/ftree.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <numeric>

#include "runtime/morsel.h"
#include "runtime/scheduler.h"

namespace ges {

FTreeNode* FTree::CreateRoot() {
  assert(root_ == nullptr);
  root_ = std::make_unique<FTreeNode>();
  return root_.get();
}

FTreeNode* FTree::AddChild(FTreeNode* parent) {
  parent->children.push_back(std::make_unique<FTreeNode>());
  FTreeNode* child = parent->children.back().get();
  child->parent = parent;
  return child;
}

void FTree::RegisterColumns(FTreeNode* node) {
  for (const ColumnDef& col : node->block.schema().columns()) {
    column_owner_[col.name] = node;
  }
}

FTreeNode* FTree::NodeOfColumn(const std::string& name) const {
  auto it = column_owner_.find(name);
  return it == column_owner_.end() ? nullptr : it->second;
}

namespace {
void PreorderVisit(const FTreeNode* n, std::vector<const FTreeNode*>* out) {
  out->push_back(n);
  for (const auto& c : n->children) PreorderVisit(c.get(), out);
}
}  // namespace

std::vector<const FTreeNode*> FTree::Preorder() const {
  std::vector<const FTreeNode*> out;
  if (root_ != nullptr) PreorderVisit(root_.get(), &out);
  return out;
}

std::vector<FTreeNode*> FTree::PreorderMutable() {
  std::vector<FTreeNode*> out;
  for (const FTreeNode* n : Preorder()) {
    out.push_back(const_cast<FTreeNode*>(n));
  }
  return out;
}

namespace {

// Multiplies w[row], for each row of `node`, by the tuple counts that the
// row's child ranges offer, leaving out the subtree of `skip`; an invalid
// row gets 0.
void MultiplyByChildren(const FTreeNode* node, const FTreeNode* skip,
                        uint64_t* w);

// Valid-tuple counts of the subtree under each row of `node`, as prefix
// sums, so a parent row's range [begin, end) weighs cum[end] - cum[begin].
// A leaf without a selection vector keeps no array: each of its rows counts
// once, so a range weighs its length.
class RangeWeights {
 public:
  explicit RangeWeights(const FTreeNode* node) {
    if (node->children.empty() && node->sel.empty()) return;
    cum_.assign(node->block.NumRows() + 1, 1);
    cum_[0] = 0;
    MultiplyByChildren(node, nullptr, cum_.data() + 1);
    std::partial_sum(cum_.begin(), cum_.end(), cum_.begin());
  }
  uint64_t Sum(const IndexRange& r) const {
    return cum_.empty() ? r.end - r.begin : cum_[r.end] - cum_[r.begin];
  }

 private:
  std::vector<uint64_t> cum_;
};

void MultiplyByChildren(const FTreeNode* node, const FTreeNode* skip,
                        uint64_t* w) {
  std::vector<const FTreeNode*> kids;
  std::vector<RangeWeights> weights;
  for (const auto& c : node->children) {
    if (c.get() == skip) continue;
    kids.push_back(c.get());
    weights.emplace_back(c.get());
  }
  size_t rows = node->block.NumRows();
  for (size_t r = 0; r < rows; ++r) {
    uint64_t x = node->RowValid(r) ? w[r] : 0;
    for (size_t k = 0; k < kids.size() && x != 0; ++k) {
      x *= weights[k].Sum(kids[k]->parent_index[r]);
    }
    w[r] = x;
  }
}

}  // namespace

uint64_t FTree::CountTuples() const {
  if (root_ == nullptr) return 0;
  return RangeWeights(root_.get()).Sum({0, root_->block.NumRows()});
}

std::vector<uint64_t> FTree::TupleCountsForNode(
    const FTreeNode* target) const {
  std::vector<const FTreeNode*> path;  // target .. root
  for (const FTreeNode* n = target; n != nullptr; n = n->parent) {
    path.push_back(n);
  }
  // up[row] of the current path node: the combinations that the tree
  // outside its subtree offers the row. Only the root -> target path
  // carries such an array; every other subtree contributes range weights.
  std::vector<uint64_t> up(root_->block.NumRows(), 1);
  for (size_t i = path.size() - 1; i > 0; --i) {
    const FTreeNode* child = path[i - 1];
    MultiplyByChildren(path[i], child, up.data());
    // Each parent row adds its weight over its child range: a difference
    // array plus one prefix sum, O(parent rows + child rows).
    std::vector<uint64_t> next(child->block.NumRows() + 1, 0);
    for (size_t r = 0; r < up.size(); ++r) {
      const IndexRange& range = child->parent_index[r];
      next[range.begin] += up[r];
      next[range.end] -= up[r];
    }
    std::partial_sum(next.begin(), next.end(), next.begin());
    next.pop_back();
    up = std::move(next);
  }
  MultiplyByChildren(target, nullptr, up.data());
  return up;
}

void FTree::Flatten(const std::vector<std::string>& columns, FlatBlock* out,
                    uint64_t limit, const QueryContext* ctx) const {
  if (root_ == nullptr) return;
  TupleEnumerator e(*this);
  // Resolve columns once.
  struct Slot {
    size_t node_idx;
    size_t col_idx;
  };
  std::vector<Slot> slots;
  slots.reserve(columns.size());
  for (const std::string& name : columns) {
    FTreeNode* node = NodeOfColumn(name);
    assert(node != nullptr);
    int col = node->block.schema().IndexOf(name);
    assert(col >= 0);
    slots.push_back(Slot{e.IndexOf(node), static_cast<size_t>(col)});
  }
  // Governor charge point: de-factoring is where a compact f-Tree explodes
  // into O(#tuples) flat rows, so the budget must see the growth while the
  // loop runs, not after. The O(1) row-width estimate is trued up by the
  // caller's exact per-op accounting; the release below keeps this site's
  // charge strictly transient.
  BudgetTracker tracker(ctx != nullptr ? ctx->budget() : nullptr);
  const size_t row_bytes =
      sizeof(std::vector<Value>) + slots.size() * sizeof(Value);
  uint64_t n = 0;
  while (n < limit && e.Next()) {
    if (n % kFlattenCheckTuples == 0) {
      tracker.Update(n * row_bytes);
      ThrowIfInterrupted(ctx);
    }
    std::vector<Value> row;
    row.reserve(slots.size());
    for (const Slot& s : slots) {
      row.push_back(
          e.nodes()[s.node_idx]->block.GetValue(e.RowAt(s.node_idx), s.col_idx));
    }
    out->AppendRow(std::move(row));
    ++n;
  }
  tracker.Update(0);
}

void FTree::FlattenParallel(const std::vector<std::string>& columns,
                            FlatBlock* out, int max_workers,
                            const QueryContext* ctx) const {
  if (root_ == nullptr) return;
  size_t root_rows = root_->block.NumRows();
  if (max_workers <= 1 || root_rows < 2 * kFlattenMorselRoots) {
    Flatten(columns, out, UINT64_MAX, ctx);
    return;
  }
  // Per-root-row tuple counts pre-size the output: prefix sums give every
  // morsel of root rows a disjoint [offsets[b], offsets[e]) slice, so the
  // parallel emit preserves the sequential enumeration order exactly.
  std::vector<uint64_t> counts = TupleCountsForNode(root_.get());
  std::vector<uint64_t> offsets(root_rows + 1, 0);
  for (size_t r = 0; r < root_rows; ++r) offsets[r + 1] = offsets[r] + counts[r];
  uint64_t total = offsets[root_rows];
  if (total < kFlattenParallelMinTuples) {
    Flatten(columns, out, UINT64_MAX, ctx);
    return;
  }

  // Resolve columns to (preorder node index, column index) once.
  std::vector<const FTreeNode*> order = Preorder();
  std::unordered_map<const FTreeNode*, size_t> preorder_idx;
  for (size_t i = 0; i < order.size(); ++i) preorder_idx[order[i]] = i;
  struct Slot {
    size_t node_idx;
    size_t col_idx;
  };
  std::vector<Slot> slots;
  slots.reserve(columns.size());
  for (const std::string& name : columns) {
    FTreeNode* node = NodeOfColumn(name);
    assert(node != nullptr);
    int col = node->block.schema().IndexOf(name);
    assert(col >= 0);
    slots.push_back(Slot{preorder_idx.at(node), static_cast<size_t>(col)});
  }

  size_t base = out->NumRows();
  std::vector<std::vector<Value>>& rows = out->rows();
  // Governor charge point (same transient protocol as Flatten): the DP
  // pre-size is charged up front — it alone can be the hog's spike — and
  // each morsel charges its emitted rows as it fills its slice. All of it
  // is released here once the caller's exact per-op accounting takes over.
  MemoryBudget* budget = ctx != nullptr ? ctx->budget() : nullptr;
  const size_t row_bytes = slots.size() * sizeof(Value);
  size_t presize_bytes = total * sizeof(std::vector<Value>);
  if (budget != nullptr) {
    budget->Charge(presize_bytes);
    ThrowIfInterrupted(ctx);
  }
  rows.resize(base + total);
  std::atomic<size_t> morsel_charged{0};
  auto emit = [&](size_t begin_row, size_t end_row) {
    if (offsets[begin_row] == offsets[end_row]) return;
    BudgetTracker tracker(budget);
    TupleEnumerator e(*this, begin_row, end_row);
    size_t i = base + offsets[begin_row];
    size_t emitted = 0;
    while (e.Next()) {
      if (emitted++ % kFlattenCheckTuples == 0) {
        tracker.Update(emitted * row_bytes);
        ThrowIfInterrupted(ctx);
      }
      std::vector<Value> row;
      row.reserve(slots.size());
      for (const Slot& s : slots) {
        row.push_back(e.nodes()[s.node_idx]->block.GetValue(
            e.RowAt(s.node_idx), s.col_idx));
      }
      rows[i++] = std::move(row);
    }
    assert(i == base + offsets[end_row] && "DP count != enumeration count");
    tracker.Update(emitted * row_bytes);
    morsel_charged.fetch_add(tracker.charged(), std::memory_order_relaxed);
  };
  TaskScheduler::Global().ParallelFor(0, root_rows, kFlattenMorselRoots,
                                      max_workers, emit, ctx);
  if (budget != nullptr) {
    budget->Release(presize_bytes +
                    morsel_charged.load(std::memory_order_relaxed));
  }
}

size_t FTree::MemoryBytes() const {
  size_t bytes = 0;
  for (const FTreeNode* n : Preorder()) {
    bytes += n->block.MemoryBytes() + n->sel.capacity() +
             n->parent_index.capacity() * sizeof(IndexRange);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// TupleEnumerator
// ---------------------------------------------------------------------------

TupleEnumerator::TupleEnumerator(const FTree& tree)
    : TupleEnumerator(tree, 0, UINT64_MAX) {}

TupleEnumerator::TupleEnumerator(const FTree& tree, uint64_t root_begin,
                                 uint64_t root_end)
    : root_begin_(root_begin), root_end_(root_end) {
  nodes_ = tree.Preorder();
  for (size_t i = 0; i < nodes_.size(); ++i) index_of_[nodes_[i]] = i;
  parent_idx_.resize(nodes_.size(), 0);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    parent_idx_[i] =
        nodes_[i]->parent == nullptr ? 0 : index_of_[nodes_[i]->parent];
  }
  cur_.resize(nodes_.size(), 0);
  begin_.resize(nodes_.size(), 0);
  end_.resize(nodes_.size(), 0);
  done_ = nodes_.empty();
}

void TupleEnumerator::SetRange(size_t i) {
  const FTreeNode* node = nodes_[i];
  if (node->parent == nullptr) {
    uint64_t rows = node->block.NumRows();
    begin_[i] = std::min(root_begin_, rows);
    end_[i] = std::min(root_end_, rows);
  } else {
    const IndexRange& r = node->parent_index[cur_[parent_idx_[i]]];
    begin_[i] = r.begin;
    end_[i] = r.end;
  }
}

uint64_t TupleEnumerator::FindValid(size_t i, uint64_t from) const {
  const FTreeNode* node = nodes_[i];
  uint64_t lo = from < begin_[i] ? begin_[i] : from;
  for (uint64_t r = lo; r < end_[i]; ++r) {
    if (node->RowValid(r)) return r;
  }
  return kNone;
}

bool TupleEnumerator::Fill(size_t from) {
  size_t m = nodes_.size();
  size_t i = from;
  while (i < m) {
    SetRange(i);
    uint64_t r = FindValid(i, begin_[i]);
    while (r == kNone) {
      if (i == 0) return false;
      --i;
      r = FindValid(i, cur_[i] + 1);
    }
    cur_[i] = r;
    ++i;
  }
  return true;
}

bool TupleEnumerator::Next() {
  if (done_) return false;
  if (!started_) {
    started_ = true;
    if (!Fill(0)) {
      done_ = true;
      return false;
    }
    return true;
  }
  size_t i = nodes_.size();
  while (i > 0) {
    --i;
    uint64_t r = FindValid(i, cur_[i] + 1);
    if (r != kNone) {
      cur_[i] = r;
      if (Fill(i + 1)) return true;
      // Fill backtracked and failed all the way: exhausted.
      done_ = true;
      return false;
    }
  }
  done_ = true;
  return false;
}

}  // namespace ges

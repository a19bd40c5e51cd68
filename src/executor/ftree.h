// f-Tree: the practical factorized representation (Section 4.2).
//
// Each node manages an f-Block and a selection vector; each edge (u, v)
// carries an index vector I_(u,v) where I[i] = [j, k) states that row i of
// u's block is in Cartesian product with rows [j, k) of v's block. The node
// schemas partition the schema of the encoded relation.
//
// Two key algorithms live here:
//  * TupleEnumerator — constant-delay enumeration (Lemma 4.4): an odometer
//    over the preorder node list whose per-tuple work is O(|schema|),
//    independent of the number of encoded tuples.
//  * tuple-count DP — counts encoded tuples (optionally per row of a chosen
//    node) without enumerating them: subtree counts as prefix sums, and
//    "rest of the tree" counts along the root -> node path only. A leaf
//    without a selection vector weighs its range length and costs nothing.
//    This is what lets COUNT(*) aggregations run "directly" on the
//    factorized form.
#ifndef GES_EXECUTOR_FTREE_H_
#define GES_EXECUTOR_FTREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "executor/fblock.h"
#include "executor/flatblock.h"
#include "runtime/query_context.h"

namespace ges {

struct IndexRange {
  uint64_t begin = 0;
  uint64_t end = 0;  // exclusive
};

class FTreeNode {
 public:
  FBlock block;
  // Selection vector: sel[i] == 0 marks row i invalid. Empty means
  // "all valid" (common case, avoids allocation).
  std::vector<uint8_t> sel;
  FTreeNode* parent = nullptr;
  std::vector<std::unique_ptr<FTreeNode>> children;
  // Index vector of the edge (parent, this): one range per parent row.
  std::vector<IndexRange> parent_index;

  bool RowValid(uint64_t row) const { return sel.empty() || sel[row] != 0; }
  // True unless row `row` is invalid or dead: one of this node's first
  // `kids` children lists nothing for it, and a tuple takes one row from
  // every child. An Expand asks before it adds its child, which starts with
  // all-empty ranges, and gives a dead row an empty range too.
  bool RowLive(uint64_t row, size_t kids) const {
    if (!RowValid(row)) return false;
    for (size_t k = 0; k < kids; ++k) {
      const IndexRange& r = children[k]->parent_index[row];
      if (r.begin == r.end) return false;
    }
    return true;
  }
  // Lazily materializes the selection vector for writing.
  std::vector<uint8_t>& MutableSel() {
    if (sel.empty()) sel.assign(block.NumRows(), 1);
    return sel;
  }
};

class FTree {
 public:
  FTree() = default;
  FTree(const FTree&) = delete;
  FTree& operator=(const FTree&) = delete;

  bool empty() const { return root_ == nullptr; }
  FTreeNode* root() { return root_.get(); }
  const FTreeNode* root() const { return root_.get(); }

  // Creates the root node (tree must be empty).
  FTreeNode* CreateRoot();
  // Adds a child under `parent`; the caller fills child->block and
  // child->parent_index, then calls RegisterColumns(child).
  FTreeNode* AddChild(FTreeNode* parent);

  // Records ownership of every column of `node`'s block schema. Column
  // names are unique tree-wide (disjoint schema partition property).
  void RegisterColumns(FTreeNode* node);

  // Node owning column `name`, or nullptr.
  FTreeNode* NodeOfColumn(const std::string& name) const;

  // Preorder node list (parents before children).
  std::vector<const FTreeNode*> Preorder() const;
  std::vector<FTreeNode*> PreorderMutable();

  // Total number of valid encoded tuples (DP; no enumeration).
  uint64_t CountTuples() const;

  // Number of valid encoded tuples that use each row of `target`
  // (multiplicity of the row across the whole tree). Size == target rows.
  // Costs O(rows on the root -> target path) plus O(rows) of every subtree
  // hanging off it, except leaves without a selection vector.
  std::vector<uint64_t> TupleCountsForNode(const FTreeNode* target) const;

  // Materializes the named columns of every valid tuple into `out` (whose
  // schema must match `columns`), stopping after `limit` tuples. `ctx`,
  // when set, is polled every kFlattenCheckTuples emitted tuples (de-
  // factoring can produce millions of rows; this bounds the time to notice
  // a deadline/cancel).
  void Flatten(const std::vector<std::string>& columns, FlatBlock* out,
               uint64_t limit = UINT64_MAX,
               const QueryContext* ctx = nullptr) const;

  // Morsel-parallel de-factoring (Lemma 4.4 on the shared TaskScheduler):
  // root rows are claimed in morsels; the per-root tuple counts (DP)
  // pre-size the output so every morsel emits into its own disjoint slice,
  // preserving exactly the sequential enumeration order. `max_workers`
  // bounds concurrency (the caller participates); falls back to the
  // sequential Flatten when the tree is too small to pay for the DP.
  // Appends after any rows already in `out`. `ctx` as in Flatten (each
  // morsel also polls between root rows).
  void FlattenParallel(const std::vector<std::string>& columns,
                       FlatBlock* out, int max_workers,
                       const QueryContext* ctx = nullptr) const;

  size_t MemoryBytes() const;

 private:
  friend class TupleEnumerator;

  std::unique_ptr<FTreeNode> root_;
  std::unordered_map<std::string, FTreeNode*> column_owner_;
};

// Constant-delay enumeration over an FTree. Usage:
//   TupleEnumerator e(tree);
//   while (e.Next()) { uint64_t r = e.RowOf(node); ... }
// Rows with sel == 0 and parent rows whose child ranges are empty are
// skipped.
class TupleEnumerator {
 public:
  explicit TupleEnumerator(const FTree& tree);
  // Enumerates only the tuples rooted at root rows [root_begin, root_end)
  // (clamped to the root cardinality) — the unit of parallel de-factoring.
  TupleEnumerator(const FTree& tree, uint64_t root_begin, uint64_t root_end);

  // Advances to the next valid tuple. Returns false when exhausted.
  bool Next();

  // Current row of `node` (valid after a successful Next()).
  uint64_t RowOf(const FTreeNode* node) const {
    return cur_[index_of_.at(node)];
  }
  // Current row by preorder node index (faster; resolve once).
  uint64_t RowAt(size_t preorder_idx) const { return cur_[preorder_idx]; }
  size_t IndexOf(const FTreeNode* node) const { return index_of_.at(node); }

  const std::vector<const FTreeNode*>& nodes() const { return nodes_; }

 private:
  static constexpr uint64_t kNone = UINT64_MAX;

  // Recomputes node i's row range from its parent's current row.
  void SetRange(size_t i);
  // First valid row of node i at position >= from (within its range).
  uint64_t FindValid(size_t i, uint64_t from) const;
  // Initializes nodes [from, m) to their first valid rows, backtracking
  // into earlier nodes when a node's range has no valid row.
  bool Fill(size_t from);

  std::vector<const FTreeNode*> nodes_;  // preorder
  std::vector<size_t> parent_idx_;       // preorder index of parent
  std::unordered_map<const FTreeNode*, size_t> index_of_;
  std::vector<uint64_t> cur_;
  std::vector<uint64_t> begin_;
  std::vector<uint64_t> end_;
  uint64_t root_begin_ = 0;
  uint64_t root_end_ = UINT64_MAX;
  bool started_ = false;
  bool done_ = false;
};

}  // namespace ges

#endif  // GES_EXECUTOR_FTREE_H_

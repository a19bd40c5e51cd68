// The factorized interpreter: operators run natively on the f-Tree and
// de-factor ("flatten") only when the computation genuinely requires global
// tuple-level information (Section 4.3 of the paper).
#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "common/timer.h"
#include "executor/executor.h"
#include "executor/executor_internal.h"
#include "executor/ftree.h"
#include "executor/vector_expr.h"
#include "runtime/morsel.h"
#include "runtime/scheduler.h"

namespace ges {

namespace {

using internal::ApplyFlatOp;
using internal::FusedPropertyColumn;
using internal::RowEq;
using internal::RowHash;
using internal::ValueHash;

// Pipeline state: an f-Tree until some operator forces de-factoring, a flat
// block afterwards ("seamlessly reverts to block-based execution").
// Execution starts in tree mode (the leaf operator creates the root).
struct FactState {
  std::unique_ptr<FTree> tree;
  FlatBlock flat;
  bool flattened = false;
  // Largest transient representation produced inside the current operator
  // (e.g. the fully de-factored block consumed by a following aggregate);
  // folded into the peak accounting, then reset.
  size_t transient_bytes = 0;

  bool is_tree() const { return !flattened; }

  void SwitchToFlat(FlatBlock block) {
    flat = std::move(block);
    tree.reset();
    flattened = true;
    transient_bytes = std::max(transient_bytes, flat.MemoryBytes());
  }

  size_t MemoryBytes() const {
    return is_tree() ? (tree == nullptr ? 0 : tree->MemoryBytes())
                     : flat.MemoryBytes();
  }
};

// All column names of the tree, preorder node order then block order.
std::vector<std::string> AllTreeColumns(const FTree& tree) {
  std::vector<std::string> cols;
  for (const FTreeNode* n : tree.Preorder()) {
    for (const ColumnDef& c : n->block.schema().columns()) {
      cols.push_back(c.name);
    }
  }
  return cols;
}

Schema TreeSchema(const FTree& tree) {
  Schema s;
  for (const FTreeNode* n : tree.Preorder()) {
    for (const ColumnDef& c : n->block.schema().columns()) {
      s.Add(c.name, c.type);
    }
  }
  return s;
}

// Column c of TreeSchema(tree) as (preorder node index, column index), for
// a preorder node list such as TupleEnumerator::nodes().
struct TreeSlot {
  size_t node_idx;
  size_t col_idx;
};
std::vector<TreeSlot> TreeSlots(const std::vector<const FTreeNode*>& nodes) {
  std::vector<TreeSlot> slots;
  for (size_t ni = 0; ni < nodes.size(); ++ni) {
    for (size_t c = 0; c < nodes[ni]->block.schema().size(); ++c) {
      slots.push_back(TreeSlot{ni, c});
    }
  }
  return slots;
}

// De-factors the tree into the flat state (the "ultimate solution").
// Without a LIMIT the Lemma 4.4 loop runs morsel-parallel on the shared
// scheduler (FlattenParallel falls back to sequential for small trees).
void FlattenState(FactState* state, const ExecOptions& options,
                  uint64_t limit = UINT64_MAX) {
  assert(state->is_tree() && state->tree != nullptr);
  FlatBlock out(TreeSchema(*state->tree));
  const std::vector<std::string> cols = AllTreeColumns(*state->tree);
  if (limit == UINT64_MAX && options.intra_query_threads > 1) {
    state->tree->FlattenParallel(cols, &out, options.intra_query_threads,
                                 options.context);
  } else {
    state->tree->Flatten(cols, &out, limit, options.context);
  }
  state->SwitchToFlat(std::move(out));
}

// --- leaf creation -----------------------------------------------------

void FactSeek(FactState* state, const PlanOp& op, const GraphView& view) {
  state->tree = std::make_unique<FTree>();
  FTreeNode* root = state->tree->CreateRoot();
  ValueVector ids(ValueType::kVertex);
  VertexId v = view.FindByExtId(op.label, op.seek_ext_id);
  if (v != kInvalidVertex) ids.AppendVertex(v);
  root->block.AddColumn(op.out_column, std::move(ids));
  state->tree->RegisterColumns(root);
}

void FactScan(FactState* state, const PlanOp& op, const GraphView& view) {
  state->tree = std::make_unique<FTree>();
  FTreeNode* root = state->tree->CreateRoot();
  std::vector<VertexId> vertices;
  view.ScanLabel(op.label, &vertices);
  ValueVector ids(ValueType::kVertex);
  ids.Reserve(vertices.size());
  for (VertexId v : vertices) ids.AppendVertex(v);
  root->block.AddColumn(op.out_column, std::move(ids));
  state->tree->RegisterColumns(root);
}

// --- Expand -------------------------------------------------------------

// True if the lazy (pointer-based join) representation applies. Compacted
// relations are excluded: their varint level decodes spans into a
// transient scratch, so storing raw pointers would save nothing (the copy
// happens either way — see the AppendOwnedSegment fallback below for the
// race where a compaction installs mid-operator).
bool CanExpandLazy(const PlanOp& op, const ExecOptions& options,
                   const GraphView& view) {
  if (!(options.pointer_join && op.max_hops == 1 && !op.distinct &&
        !op.exclude_start && op.distance_column.empty())) {
    return false;
  }
  for (RelationId rel : op.rels) {
    if (view.graph().RelationCompacted(rel)) return false;
  }
  return true;
}

void FactExpand(FactState* state, const PlanOp& op, const GraphView& view,
                const ExecOptions& options) {
  FTree& tree = *state->tree;
  FTreeNode* src = tree.NodeOfColumn(op.in_column);
  assert(src != nullptr && "expand source column not in tree");
  int src_col = src->block.schema().IndexOf(op.in_column);
  size_t rows = src->block.NumRows();

  // An invalid or dead source row (FTreeNode::RowLive) keeps an empty
  // range: it joins no tuple, so nothing is expanded for it.
  const size_t kids = src->children.size();
  FTreeNode* child = tree.AddChild(src);
  child->parent_index.assign(rows, IndexRange{0, 0});

  if (op.counted) {
    // Counted Expand: a live source row weighs its degree and lists no
    // neighbor. Degree never decodes a compacted level, and a row of degree
    // 0 still drops out of the join through its empty range.
    uint64_t off = 0;
    for (size_t r = 0; r < rows; ++r) {
      if (!src->RowLive(r, kids)) continue;
      const auto v = static_cast<VertexId>(src->block.WordAt(r, src_col));
      uint64_t begin = off;
      for (RelationId rel : op.rels) off += view.Degree(rel, v);
      child->parent_index[r] = IndexRange{begin, off};
    }
    child->block.InitColumnless(off);
  } else if (CanExpandLazy(op, options, view)) {
    // Pointer-based join: store (ptr, len) per source row, never copying
    // neighbor ids.
    child->block.InitLazy(op.out_column);
    AdjScratch adj;
    uint64_t off = 0;
    for (size_t r = 0; r < rows; ++r) {
      if (!src->RowLive(r, kids)) continue;
      VertexId v = src->block.GetValue(r, src_col).AsVertex();
      uint64_t begin = off;
      for (RelationId rel : op.rels) {
        AdjSpan span = view.Neighbors(rel, v, &adj);
        if (span.size == 0) continue;
        if (!adj.ids.empty() && span.ids == adj.ids.data()) {
          // A compaction installed a varint level between the CanExpandLazy
          // check and this fetch: the span lives in the reusable decode
          // scratch, so move the buffers into the block instead of storing
          // a pointer that the next decode would clobber.
          std::vector<int64_t> stamps;
          if (span.stamps != nullptr) stamps = std::move(adj.stamps);
          child->block.AppendOwnedSegment(std::move(adj.ids),
                                          std::move(stamps));
          adj = AdjScratch{};
        } else {
          child->block.AppendSegment(span);
        }
        off += span.size;
      }
      child->parent_index[r] = IndexRange{begin, off};
    }
    if (!op.stamp_column.empty()) {
      // Stamps are copied into an aligned column (they are consumed by
      // filters/sorts and cannot stay behind the pointer).
      ValueVector stamps(ValueType::kDate);
      stamps.Reserve(child->block.NumRows());
      for (size_t seg = 0; seg < child->block.NumSegments(); ++seg) {
        const AdjSpan& s = child->block.Segment(seg);
        for (uint32_t i = 0; i < s.size; ++i) {
          stamps.AppendInt(s.stamps == nullptr ? 0 : s.stamps[i]);
        }
      }
      child->block.AppendAlignedColumn(op.stamp_column, std::move(stamps));
    }
  } else {
    bool want_dist = !op.distance_column.empty();
    bool want_stamp = !op.stamp_column.empty();

    // Morsel-driven expansion on the shared TaskScheduler (the
    // intra-query-parallel path of the Runtime component): source rows are
    // claimed in kExpandMorselRows chunks from a shared cursor, so skewed
    // rows (power-law degrees) cannot pin a whole static partition to one
    // worker. Each morsel accumulates into its own Part — indexed by
    // morsel id, not by worker — so the stitched output is identical for
    // every thread count. With intra_query_threads <= 1 (or fewer rows
    // than one morsel) ParallelFor degenerates to the plain sequential
    // loop, no scheduler machinery involved.
    struct Part {
      ValueVector ids{ValueType::kVertex};
      ValueVector dist{ValueType::kInt64};
      ValueVector stamps{ValueType::kDate};
      std::vector<uint32_t> counts;  // per source row of the morsel
    };
    size_t num_morsels = (rows + kExpandMorselRows - 1) / kExpandMorselRows;
    std::vector<Part> parts(num_morsels);
    // Governor charge point: each morsel's scratch buffers are charged as
    // they grow (ValueVector::MemoryBytes is O(1) for non-string columns),
    // so a hog expansion trips its budget mid-operator instead of after the
    // stitch. Per-morsel trackers write the budget concurrently — that is
    // its contract. Released after the stitch, whose output the caller's
    // per-op accounting charges.
    auto part_bytes = [](const Part& p) {
      return p.ids.MemoryBytes() + p.dist.MemoryBytes() +
             p.stamps.MemoryBytes() + p.counts.capacity() * sizeof(uint32_t);
    };

    auto expand_morsel = [&](size_t begin_row, size_t end_row) {
      Part& part = parts[begin_row / kExpandMorselRows];
      BudgetTracker tracker(
          options.context != nullptr ? options.context->budget() : nullptr);
      std::vector<std::pair<VertexId, int>> nbrs;
      std::vector<int64_t> st;
      part.counts.reserve(end_row - begin_row);
      for (size_t r = begin_row; r < end_row; ++r) {
        // Per-source-row checkpoint: a multi-hop BFS morsel over high-degree
        // vertices can run for milliseconds, far past the per-morsel poll.
        tracker.Update(part_bytes(part));
        ThrowIfInterrupted(options.context);
        if (!src->RowLive(r, kids)) {
          part.counts.push_back(0);
          continue;
        }
        const VertexId v = src->block.GetValue(r, src_col).AsVertex();
        nbrs.clear();
        st.clear();
        CollectNeighbors(view, op.rels, v, op.min_hops, op.max_hops,
                         op.distinct, op.exclude_start, &nbrs,
                         want_stamp ? &st : nullptr);
        for (size_t i = 0; i < nbrs.size(); ++i) {
          part.ids.AppendVertex(nbrs[i].first);
          if (want_dist) part.dist.AppendInt(nbrs[i].second);
          if (want_stamp) part.stamps.AppendInt(st[i]);
        }
        part.counts.push_back(static_cast<uint32_t>(nbrs.size()));
      }
      tracker.Update(part_bytes(part));
    };
    TaskScheduler::Global().ParallelFor(0, rows, kExpandMorselRows,
                                        options.intra_query_threads,
                                        expand_morsel, options.context);

    // Stitch slices in source-row order.
    ValueVector ids(ValueType::kVertex);
    ValueVector dist(ValueType::kInt64);
    ValueVector stamps(ValueType::kDate);
    uint64_t off = 0;
    size_t row = 0;
    for (const Part& part : parts) {
      if (!part.counts.empty()) {
        ids.AppendRange(part.ids, 0, part.ids.size());
        if (want_dist) dist.AppendRange(part.dist, 0, part.dist.size());
        if (want_stamp) {
          stamps.AppendRange(part.stamps, 0, part.stamps.size());
        }
      }
      for (uint32_t n : part.counts) {
        child->parent_index[row] = IndexRange{off, off + n};
        off += n;
        ++row;
      }
    }
    if (options.context != nullptr && options.context->budget() != nullptr) {
      size_t transient = 0;
      for (const Part& part : parts) transient += part_bytes(part);
      options.context->budget()->Release(transient);
    }
    child->block.AddColumn(op.out_column, std::move(ids));
    if (want_dist) {
      child->block.AppendAlignedColumn(op.distance_column, std::move(dist));
    }
    if (want_stamp) {
      child->block.AppendAlignedColumn(op.stamp_column, std::move(stamps));
    }
  }
  tree.RegisterColumns(child);
}

// For each row of `node`, the row of `ancestor` it descends from, walking
// the (parent, child) index vectors upward. Returns false when `ancestor`
// is not on `node`'s root path.
bool AncestorRowMap(const FTreeNode* node, const FTreeNode* ancestor,
                    std::vector<uint64_t>* map) {
  std::vector<const FTreeNode*> chain;
  for (const FTreeNode* n = node; n != nullptr; n = n->parent) {
    chain.push_back(n);
    if (n == ancestor) break;
  }
  if (chain.back() != ancestor) return false;
  size_t rows = node->block.NumRows();
  map->resize(rows);
  for (size_t r = 0; r < rows; ++r) (*map)[r] = r;
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    const FTreeNode* cur = chain[i];
    const FTreeNode* par = chain[i + 1];
    // Invert the (par, cur) index vector: parent row of each cur row.
    std::vector<uint64_t> parent_of(cur->block.NumRows(), 0);
    for (uint64_t pr = 0; pr < par->block.NumRows(); ++pr) {
      const IndexRange& rng = cur->parent_index[pr];
      for (uint64_t cr = rng.begin; cr < rng.end; ++cr) parent_of[cr] = pr;
    }
    for (size_t r = 0; r < rows; ++r) (*map)[r] = parent_of[(*map)[r]];
  }
  return true;
}

// Worst-case-optimal intersection as a factorized extension: the surviving
// neighbors of each driver row become a new child node under the driver's
// node, so the multiway intersection result is emitted directly in
// factorized form — never flattened. Applies when every probe column lives
// on the driver node's root path (each driver row then determines a unique
// probe tuple via the ancestor row maps); any other shape falls back to
// flat execution, exactly like kExpandInto.
bool TryFactIntersectExpand(FactState* state, const PlanOp& op,
                            const GraphView& view, const ExecOptions& options,
                            IntersectOpStats* istats) {
  FTree& tree = *state->tree;
  FTreeNode* src = tree.NodeOfColumn(op.in_column);
  if (src == nullptr) return false;
  int src_col = src->block.schema().IndexOf(op.in_column);
  size_t rows = src->block.NumRows();

  struct Probe {
    const FTreeNode* node;
    int col;
    std::vector<uint64_t> row_map;  // empty: probe lives on src itself
  };
  std::vector<Probe> probes(op.probe_columns.size());
  for (size_t c = 0; c < op.probe_columns.size(); ++c) {
    const FTreeNode* pn = tree.NodeOfColumn(op.probe_columns[c]);
    if (pn == nullptr) return false;
    probes[c].node = pn;
    probes[c].col = pn->block.schema().IndexOf(op.probe_columns[c]);
    if (pn != src && !AncestorRowMap(src, pn, &probes[c].row_map)) {
      return false;
    }
  }

  const size_t kids = src->children.size();  // dead rows: as in FactExpand
  FTreeNode* child = tree.AddChild(src);
  child->parent_index.assign(rows, IndexRange{0, 0});

  // Morsel-driven on the shared TaskScheduler with the same Part-per-morsel
  // stitching as FactExpand: output is identical for every thread count.
  struct Part {
    ValueVector ids{ValueType::kVertex};
    std::vector<uint32_t> counts;  // per source row of the morsel
    IntersectOpStats stats;
  };
  size_t num_morsels = (rows + kExpandMorselRows - 1) / kExpandMorselRows;
  std::vector<Part> parts(num_morsels);
  // Governor charge point for the WCOJ probe output buffers; same
  // charge-while-growing / release-after-stitch protocol as FactExpand.
  auto part_bytes = [](const Part& p) {
    return p.ids.MemoryBytes() + p.counts.capacity() * sizeof(uint32_t);
  };

  auto morsel = [&](size_t begin_row, size_t end_row) {
    Part& part = parts[begin_row / kExpandMorselRows];
    BudgetTracker tracker(
        options.context != nullptr ? options.context->budget() : nullptr);
    internal::IntersectExpandRunner runner(op);
    std::vector<VertexId> probe_vals(probes.size());
    part.counts.reserve(end_row - begin_row);
    for (size_t r = begin_row; r < end_row; ++r) {
      // Per-row checkpoint: a high-degree driver can gallop for a while.
      tracker.Update(part_bytes(part));
      ThrowIfInterrupted(options.context);
      if (!src->RowLive(r, kids)) {
        part.counts.push_back(0);
        continue;
      }
      const VertexId v = src->block.GetValue(r, src_col).AsVertex();
      for (size_t c = 0; c < probes.size(); ++c) {
        const Probe& p = probes[c];
        uint64_t pr = p.row_map.empty() ? r : p.row_map[r];
        probe_vals[c] = p.node->block.GetValue(pr, p.col).AsVertex();
      }
      uint32_t n = 0;
      runner.Run(view, v, probe_vals.data(), &part.stats, [&](VertexId w) {
        part.ids.AppendVertex(w);
        ++n;
      });
      part.counts.push_back(n);
    }
    tracker.Update(part_bytes(part));
  };
  TaskScheduler::Global().ParallelFor(0, rows, kExpandMorselRows,
                                      options.intra_query_threads, morsel,
                                      options.context);

  ValueVector ids(ValueType::kVertex);
  uint64_t off = 0;
  size_t row = 0;
  for (const Part& part : parts) {
    istats->Add(part.stats);
    if (!part.counts.empty()) ids.AppendRange(part.ids, 0, part.ids.size());
    for (uint32_t n : part.counts) {
      child->parent_index[row] = IndexRange{off, off + n};
      off += n;
      ++row;
    }
  }
  if (options.context != nullptr && options.context->budget() != nullptr) {
    size_t transient = 0;
    for (const Part& part : parts) transient += part_bytes(part);
    options.context->budget()->Release(transient);
  }
  child->block.AddColumn(op.out_column, std::move(ids));
  tree.RegisterColumns(child);
  return true;
}

// Fused Expand+GetProperty+Filter (FilterPushDown): only surviving
// neighbors and their property values are materialized. The property value
// of each candidate neighbor is fetched exactly once and reused for both
// the predicate and the kept column — never re-fetched.
void FactExpandFiltered(FactState* state, const PlanOp& op,
                        const GraphView& view, const ExecOptions& options) {
  FTree& tree = *state->tree;
  FTreeNode* src = tree.NodeOfColumn(op.in_column);
  assert(src != nullptr);
  int src_col = src->block.schema().IndexOf(op.in_column);
  size_t rows = src->block.NumRows();

  const size_t kids = src->children.size();  // dead rows: as in FactExpand
  FTreeNode* child = tree.AddChild(src);
  child->parent_index.assign(rows, IndexRange{0, 0});

  const std::string& prop_col = FusedPropertyColumn(op);
  ValueVector ids(ValueType::kVertex);
  ValueVector props(op.property_type);

  // Collect every candidate neighbor, gather their property values in one
  // batch (MVCC overlay and string dictionary resolved once per batch,
  // storage/graph.h), refine a byte mask with the compiled kernel, then
  // compact survivors. Missing properties take the typed zero placeholder —
  // the same value a non-fused GetProperty step would materialize into the
  // column before filtering.
  std::vector<VertexId> cand;
  std::vector<IndexRange> cand_range(rows, IndexRange{0, 0});
  // Each span is drained into `cand` before the next fetch, so one
  // decode scratch serves every (row, rel) pair.
  AdjScratch adj;
  // Governor charge point: the candidate buffer is the fused operator's
  // memory spike (every neighbor before filtering); charged as it grows,
  // released once survivors are compacted into the child block.
  BudgetTracker cand_tracker(
      options.context != nullptr ? options.context->budget() : nullptr);
  for (size_t r = 0; r < rows; ++r) {
    if ((r & 255u) == 0) {
      cand_tracker.Update(cand.capacity() * sizeof(VertexId));
      ThrowIfInterrupted(options.context);
    }
    if (!src->RowLive(r, kids)) continue;
    VertexId v = src->block.GetValue(r, src_col).AsVertex();
    uint64_t begin = cand.size();
    for (RelationId rel : op.rels) {
      AdjSpan span = view.Neighbors(rel, v, &adj);
      cand.insert(cand.end(), span.ids, span.ids + span.size);
    }
    cand_range[r] = IndexRange{begin, cand.size()};
  }

  // The candidates' property column, as the one-column block the predicate
  // is compiled against.
  FBlock cand_block;
  {
    ValueVector gathered(op.property_type);
    view.GatherProperties(cand.data(), cand.size(), nullptr, op.property,
                          &gathered);
    cand_block.AddColumn(prop_col, std::move(gathered));
  }
  const ValueVector& cand_props = cand_block.Column(0);
  cand_tracker.Update(cand.capacity() * sizeof(VertexId) +
                      cand_props.MemoryBytes() + cand.size());
  ThrowIfInterrupted(options.context);

  std::vector<uint8_t> keep(cand.size(), 1);
  std::unique_ptr<CompiledExpr> kernel = CompiledExpr::CompileFilter(
      *op.predicate, cand_block, options.column_stats);
  CompiledExpr* k = kernel.get();
  auto run = [k, &keep](size_t lo, size_t hi) {
    k->EvalFilter(keep.data(), lo, hi);
  };
  TaskScheduler::Global().ParallelFor(0, cand.size(), kFilterMorselRows,
                                      options.intra_query_threads, run,
                                      options.context);

  if (op.keep_property && cand_props.dict_encoded()) {
    props.InitDict(cand_props.dict());
  }
  uint64_t off = 0;
  for (size_t r = 0; r < rows; ++r) {
    uint64_t begin = off;
    for (uint64_t i = cand_range[r].begin; i < cand_range[r].end; ++i) {
      if (keep[i] == 0) continue;
      ids.AppendVertex(cand[i]);
      if (op.keep_property) props.AppendFrom(cand_props, i);
      ++off;
    }
    child->parent_index[r] = IndexRange{begin, off};
  }
  cand_tracker.Update(0);  // survivors are charged by per-op accounting
  child->block.AddColumn(op.out_column, std::move(ids));
  if (op.keep_property) {
    child->block.AppendAlignedColumn(prop_col, std::move(props));
  }
  tree.RegisterColumns(child);
}

// --- Projection / property fetch ---------------------------------------

void FactGetProperty(FactState* state, const PlanOp& op,
                     const GraphView& view) {
  FTree& tree = *state->tree;
  FTreeNode* node = tree.NodeOfColumn(op.in_column);
  assert(node != nullptr);
  int col = node->block.schema().IndexOf(op.in_column);
  size_t rows = node->block.NumRows();
  ValueVector out(op.property_type);
  // A string column takes its representation (dictionary codes) in its
  // first gather, so only other types are sized here.
  if (op.property_type != ValueType::kString) out.Reserve(rows);
  // Batched gather: the MVCC overlay and the string dictionary are
  // resolved once per batch, base columns are copied slice-wise
  // (Graph::GatherProperties). Deselected rows receive a placeholder to
  // keep row alignment (they are never enumerated). A lazy head is never
  // materialized: its ids are copied 1024 at a time from the adjacency
  // segments, one gather per chunk rather than per (often tiny) segment.
  // Vertex columns store int64 physically; uint64 access to the same
  // array is the sanctioned signed/unsigned aliasing case.
  const uint8_t* sel = node->sel.empty() ? nullptr : node->sel.data();
  if (node->block.lazy() && col == 0) {
    int64_t chunk[1024];
    for (uint64_t lo = 0; lo < rows; lo += 1024) {
      const uint64_t hi = std::min<uint64_t>(rows, lo + 1024);
      node->block.CopyHeadIds(lo, hi, chunk);
      view.GatherProperties(reinterpret_cast<const VertexId*>(chunk), hi - lo,
                            sel == nullptr ? nullptr : sel + lo, op.property,
                            &out);
    }
  } else {
    const ValueVector& ids = node->block.Column(col);
    view.GatherProperties(reinterpret_cast<const VertexId*>(ids.ints_data()),
                          rows, sel, op.property, &out);
  }
  node->block.AppendAlignedColumn(op.out_column, std::move(out));
  tree.RegisterColumns(node);
}

// Node containing every column in `cols`, or nullptr if they span nodes.
FTreeNode* SingleNodeOf(const FTree& tree,
                        const std::vector<std::string>& cols) {
  FTreeNode* node = nullptr;
  for (const std::string& c : cols) {
    FTreeNode* n = tree.NodeOfColumn(c);
    if (n == nullptr) return nullptr;
    if (node == nullptr) {
      node = n;
    } else if (node != n) {
      return nullptr;
    }
  }
  return node;
}

// Filter: when the predicate's attributes live in one f-Tree node, update
// that node's selection vector in place — no data movement at all. The
// whole predicate compiles to type-specialized selection kernels over the
// raw column arrays (executor/vector_expr.h) — comparisons, IN, StartsWith,
// arithmetic, and AND/OR with selectivity-ordered short-circuiting; string
// equality compares dictionary codes. Large blocks run the kernel
// morsel-parallel — each morsel refines a disjoint slice of the selection
// vector, so the result is independent of the thread count.
bool TryFactFilter(FactState* state, const PlanOp& op,
                   const ExecOptions& options) {
  std::vector<std::string> cols;
  op.predicate->CollectColumns(&cols);
  FTreeNode* node = SingleNodeOf(*state->tree, cols);
  if (node == nullptr && !cols.empty()) return false;
  if (node == nullptr) node = state->tree->root();
  std::unique_ptr<CompiledExpr> kernel = CompiledExpr::CompileFilter(
      *op.predicate, node->block, options.column_stats);
  std::vector<uint8_t>& sel = node->MutableSel();
  CompiledExpr* k = kernel.get();
  auto run = [k, &sel](size_t lo, size_t hi) {
    k->EvalFilter(sel.data(), lo, hi);
  };
  TaskScheduler::Global().ParallelFor(0, node->block.NumRows(),
                                      kFilterMorselRows,
                                      options.intra_query_threads, run,
                                      options.context);
  return true;
}

// Project: computed expressions whose inputs are confined to one node are
// appended to that node's block (columnar append) by compiled column loops.
bool TryFactProject(FactState* state, const PlanOp& op) {
  if (!op.selections.empty()) return false;  // pruning => flatten
  for (const ComputedColumn& c : op.computed) {
    std::vector<std::string> cols;
    c.expr->CollectColumns(&cols);
    if (SingleNodeOf(*state->tree, cols) == nullptr) return false;
  }
  for (const ComputedColumn& c : op.computed) {
    std::vector<std::string> cols;
    c.expr->CollectColumns(&cols);
    FTreeNode* node = SingleNodeOf(*state->tree, cols);
    size_t rows = node->block.NumRows();
    ValueVector out(c.type);
    out.Reserve(rows);
    CompiledExpr::CompileProject(*c.expr, node->block)
        ->EvalProject(0, rows, &out);
    node->block.AppendAlignedColumn(c.name, std::move(out));
    state->tree->RegisterColumns(node);
  }
  return true;
}

// --- Aggregation --------------------------------------------------------

// Direct factorized aggregation: when the group keys and all aggregate
// inputs live in one node u, per-group results follow from the tuple-count
// DP without enumerating tuples.
bool TryFactAggregate(const FTree& tree, const std::vector<std::string>& group_by,
                      const std::vector<AggSpec>& aggs, FlatBlock* out) {
  // Locate the single node carrying all referenced columns.
  std::vector<std::string> cols = group_by;
  for (const AggSpec& a : aggs) {
    if (!a.input.empty()) cols.push_back(a.input);
  }
  const FTreeNode* u;
  if (cols.empty()) {
    u = tree.root();
  } else {
    FTreeNode* n = SingleNodeOf(tree, cols);
    if (n == nullptr) return false;
    u = n;
  }

  std::vector<uint64_t> counts = tree.TupleCountsForNode(u);
  internal::GroupedAggregator agg(u->block.schema(), group_by, aggs);
  size_t rows = u->block.NumRows();
  for (size_t r = 0; r < rows; ++r) {
    if (counts[r] == 0) continue;
    agg.AddTypedRow([&](int c) { return u->block.WordAt(r, c); },
                    [&](int c) { return u->block.GetValue(r, c); },
                    static_cast<int64_t>(counts[r]));
  }
  *out = agg.Finish();
  return true;
}

// AggProjectTop by its group vertex v (PlanOp::group_vertex): sums the
// tuple counts of v's node per distinct vertex, applies the deferred ops
// once per vertex (a counted Expand multiplies by the degree, a
// GetProperty is one gather), and folds each vertex into the groups once
// with its summed multiplicity. Vertices come in the order of their first
// row with a tuple, so groups keep the per-row path's first-encounter
// order.
FlatBlock VertexKeyedAggregate(const FTree& tree, const PlanOp& op,
                               const std::vector<const PlanOp*>& deferred,
                               const GraphView& view,
                               const ExecOptions& options) {
  const FTreeNode* u = tree.NodeOfColumn(op.group_vertex);
  assert(u != nullptr);
  const int vcol = u->block.schema().IndexOf(op.group_vertex);
  const std::vector<uint64_t> counts = tree.TupleCountsForNode(u);
  std::vector<VertexId> ids;
  std::vector<uint64_t> first_row;
  std::vector<uint64_t> weight;
  {
    // Per-thread, indexed by vertex id: 1 + the vertex's index in `ids`,
    // 0 for a vertex not seen yet.
    static thread_local std::vector<uint32_t> slot;
    const size_t n = view.graph().NumVerticesTotal();
    if (slot.size() < n) slot.resize(n, 0);
    // Clears the slots of the vertices seen, on return or throw.
    struct Reset {
      std::vector<uint32_t>& slot;
      const std::vector<VertexId>& ids;
      ~Reset() {
        for (VertexId v : ids) slot[v] = 0;
      }
    } reset{slot, ids};
    // v's ids, 256 rows at a time: a lazy head is copied from its
    // segments a run at a time instead of looked up row by row.
    const bool lazy = u->block.lazy() && vcol == 0;
    const int64_t* words = lazy ? nullptr : u->block.Column(vcol).ints_data();
    int64_t chunk[256];
    for (size_t lo = 0; lo < counts.size(); lo += 256) {
      ThrowIfInterrupted(options.context);
      const size_t hi = std::min(counts.size(), lo + 256);
      if (lazy) u->block.CopyHeadIds(lo, hi, chunk);
      const int64_t* w = lazy ? chunk : words + lo;
      for (size_t r = lo; r < hi; ++r) {
        if (counts[r] == 0) continue;
        const auto v = static_cast<VertexId>(w[r - lo]);
        uint32_t& s = slot[v];
        if (s == 0) {
          ids.push_back(v);
          first_row.push_back(r);
          weight.push_back(counts[r]);
          s = static_cast<uint32_t>(ids.size());
        } else {
          weight[s - 1] += counts[r];
        }
      }
    }
  }
  // A deferred counted Expand weighs each vertex by its degree; a vertex
  // it gives no neighbor leaves every group.
  size_t kept = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (const PlanOp* d : deferred) {
      if (d->type != OpType::kExpand) continue;
      uint64_t degree = 0;
      for (RelationId rel : d->rels) degree += view.Degree(rel, ids[i]);
      weight[i] *= degree;
    }
    if (weight[i] == 0) continue;
    ids[kept] = ids[i];
    first_row[kept] = first_row[i];
    weight[kept] = weight[i];
    ++kept;
  }
  ids.resize(kept);

  // One row per kept vertex, holding the columns the aggregate reads.
  FBlock rows;
  for (const std::string& c : ConsumedColumns(op)) {
    if (rows.schema().IndexOf(c) >= 0) continue;  // a key that is an input
    auto gets = [&c](const PlanOp* d) {
      return d->type == OpType::kGetProperty && d->out_column == c;
    };
    auto d = std::find_if(deferred.begin(), deferred.end(), gets);
    if (c == op.group_vertex) {
      ValueVector col(ValueType::kVertex);
      col.Reserve(kept);
      for (VertexId v : ids) col.AppendVertex(v);
      rows.AddColumn(c, std::move(col));
    } else if (d != deferred.end()) {
      ValueVector col((*d)->property_type);
      view.GatherProperties(ids.data(), kept, nullptr, (*d)->property, &col);
      rows.AddColumn(c, std::move(col));
    } else {
      // A key or input read on the tree lives in v's node, and a vertex's
      // rows all hold the same value: read its first.
      const int ci = u->block.schema().IndexOf(c);
      assert(ci >= 0 && tree.NodeOfColumn(c) == u);
      const ValueVector& src = u->block.Column(ci);
      ValueVector col(src.type());
      if (src.dict_encoded()) col.InitDict(src.dict());
      col.Reserve(kept);
      for (size_t i = 0; i < kept; ++i) col.AppendFrom(src, first_row[i]);
      rows.AddColumn(c, std::move(col));
    }
  }

  internal::GroupedAggregator agg(rows.schema(), op.group_by, op.aggs);
  agg.Reserve(kept);
  for (size_t i = 0; i < kept; ++i) {
    agg.AddTypedRow([&](int c) { return rows.WordAt(i, c); },
                    [&](int c) { return rows.GetValue(i, c); },
                    static_cast<int64_t>(weight[i]));
  }
  return agg.Finish();
}

// Streaming aggregation over the enumerator: used by AggProjectTop when
// the direct DP path does not apply. Tuples are
// consumed one at a time and folded into the group states; memory stays
// O(#groups) instead of O(#tuples).
FlatBlock StreamingAggregate(const FTree& tree,
                             const std::vector<std::string>& group_by,
                             const std::vector<AggSpec>& aggs) {
  TupleEnumerator e(tree);
  std::vector<TreeSlot> slots = TreeSlots(e.nodes());
  internal::GroupedAggregator agg(TreeSchema(tree), group_by, aggs);
  auto value_at = [&](int c) {
    const TreeSlot& s = slots[c];
    return e.nodes()[s.node_idx]->block.GetValue(e.RowAt(s.node_idx),
                                                 s.col_idx);
  };
  auto word_at = [&](int c) {
    const TreeSlot& s = slots[c];
    return e.nodes()[s.node_idx]->block.WordAt(e.RowAt(s.node_idx),
                                               s.col_idx);
  };
  while (e.Next()) agg.AddTypedRow(word_at, value_at);
  return agg.Finish();
}

// Fused TopK: de-factors through the enumerator while keeping only the
// current top `limit` tuples (bounded memory; Figure 8 step (vi)). A
// tuple's sort keys are read from their typed columns and compared with the
// kept rows in place; only a tuple that enters the top is materialized.
FlatBlock StreamTopK(const FTree& tree, const std::vector<SortKey>& keys,
                     uint64_t limit) {
  Schema schema = TreeSchema(tree);
  TupleEnumerator e(tree);
  const std::vector<const FTreeNode*>& nodes = e.nodes();
  std::vector<TreeSlot> slots = TreeSlots(nodes);

  // One reader per key. Every kept Value of a key came from the key's own
  // column, so comparing the physical value reproduces Value::Compare's
  // same-type order; a bool or null column takes the boxed path.
  enum class KeyKind { kInt, kLazyVertex, kDouble, kString, kBoxed };
  struct KeyReader {
    size_t col;  // in `schema` and in a kept row
    size_t node_idx;
    const FBlock* block;
    size_t block_col;
    const ValueVector* column;  // kInt, kDouble and kString only
    KeyKind kind;
    bool ascending;
  };
  std::vector<KeyReader> readers;
  for (const SortKey& k : keys) {
    int i = schema.IndexOf(k.column);
    assert(i >= 0);
    const TreeSlot& s = slots[i];
    const FBlock& block = nodes[s.node_idx]->block;
    const ValueType type = block.schema().columns()[s.col_idx].type;
    KeyKind kind = KeyKind::kBoxed;
    if (block.lazy() && s.col_idx == 0) {
      kind = KeyKind::kLazyVertex;
    } else if (type == ValueType::kDouble) {
      kind = KeyKind::kDouble;
    } else if (type == ValueType::kString) {
      kind = KeyKind::kString;
    } else if (IsIntegerPhysical(type) && type != ValueType::kBool) {
      kind = KeyKind::kInt;  // GetValue normalizes bools, so they box
    }
    const bool typed = kind != KeyKind::kLazyVertex && kind != KeyKind::kBoxed;
    readers.push_back(KeyReader{static_cast<size_t>(i), s.node_idx, &block,
                                s.col_idx,
                                typed ? &block.Column(s.col_idx) : nullptr,
                                kind, k.ascending});
  }
  auto sign = [](auto a, auto b) { return a < b ? -1 : (b < a ? 1 : 0); };
  // The current tuple's key `k` against a kept row's Value of that key.
  auto compare_key = [&](const KeyReader& k, const Value& kept) {
    const uint64_t r = e.RowAt(k.node_idx);
    switch (k.kind) {
      case KeyKind::kInt:
        return sign(k.column->GetInt(r), kept.AsInt());
      case KeyKind::kLazyVertex:
        return sign(static_cast<int64_t>(k.block->VertexAt(r)),
                    kept.AsInt());
      case KeyKind::kDouble:
        return sign(k.column->GetDouble(r), kept.AsDouble());
      case KeyKind::kString:
        return sign(k.column->GetString(r).compare(kept.AsString()), 0);
      case KeyKind::kBoxed:
        break;
    }
    return k.block->GetValue(r, k.block_col).Compare(kept);
  };
  // True if the current tuple sorts strictly before `kept`; ties keep
  // enumeration order, as SortAndLimit's stable sort does.
  auto before = [&](const std::vector<Value>& kept) {
    for (const KeyReader& k : readers) {
      int c = compare_key(k, kept[k.col]);
      if (c != 0) return k.ascending ? c < 0 : c > 0;
    }
    return false;
  };

  std::vector<std::vector<Value>> top;  // sorted; at most `limit` rows
  while (limit > 0 && e.Next()) {
    if (top.size() >= limit && !before(top.back())) continue;
    std::vector<Value> row;
    row.reserve(slots.size());
    for (const TreeSlot& s : slots) {
      row.push_back(nodes[s.node_idx]->block.GetValue(e.RowAt(s.node_idx),
                                                      s.col_idx));
    }
    auto pos = std::partition_point(
        top.begin(), top.end(),
        [&](const std::vector<Value>& kept) { return !before(kept); });
    top.insert(pos, std::move(row));
    if (top.size() > limit) top.pop_back();
  }
  FlatBlock out(schema);
  for (auto& row : top) out.AppendRow(std::move(row));
  return out;
}

}  // namespace

QueryResult Executor::RunFactorized(const Plan& plan,
                                    const GraphView& view) const {
  QueryResult result;
  Timer total;
  FactState state;
  MemoryBudget* budget =
      options_.context != nullptr ? options_.context->budget() : nullptr;
  BudgetTracker tracker(budget);

  // Deferred ops skipped on the tree, for the AggProjectTop after them.
  std::vector<const PlanOp*> deferred;
  for (const PlanOp& op : plan.ops) {
    ThrowIfInterrupted(options_.context);
    Timer t;
    IntersectOpStats istats;
    if (!state.is_tree()) {
      state.flat = ApplyFlatOp(std::move(state.flat), op, view, &istats,
                               options_.context);
    } else if (op.deferred) {
      deferred.push_back(&op);
    } else {
      switch (op.type) {
        case OpType::kNodeByIdSeek:
          FactSeek(&state, op, view);
          break;
        case OpType::kScanByLabel:
          FactScan(&state, op, view);
          break;
        case OpType::kExpand:
          FactExpand(&state, op, view, options_);
          break;
        case OpType::kExpandFiltered:
          FactExpandFiltered(&state, op, view, options_);
          break;
        case OpType::kIntersectExpand:
          if (!TryFactIntersectExpand(&state, op, view, options_, &istats)) {
            FlattenState(&state, options_);
            state.flat = ApplyFlatOp(std::move(state.flat), op, view, &istats,
                                     options_.context);
          }
          break;
        case OpType::kGetProperty:
          FactGetProperty(&state, op, view);
          break;
        case OpType::kFilter:
          if (!TryFactFilter(&state, op, options_)) {
            FlattenState(&state, options_);
            state.flat = ApplyFlatOp(std::move(state.flat), op, view, nullptr,
                                     options_.context);
          }
          break;
        case OpType::kProject:
          if (!TryFactProject(&state, op)) {
            FlattenState(&state, options_);
            state.flat = ApplyFlatOp(std::move(state.flat), op, view, nullptr,
                                     options_.context);
          }
          break;
        case OpType::kAggregate: {
          // GES_f handles only the "simplest case" natively (keys confined
          // to a single-node tree); complex aggregations de-factor first.
          // GES_f*'s optimizer turns the Aggregate into an AggProjectTop,
          // which aggregates on the tree.
          FlatBlock out;
          if (state.tree->root()->children.empty() &&
              TryFactAggregate(*state.tree, op.group_by, op.aggs, &out)) {
            state.SwitchToFlat(std::move(out));
          } else {
            FlattenState(&state, options_);
            state.flat = ApplyFlatOp(std::move(state.flat), op, view, nullptr,
                                     options_.context);
          }
          break;
        }
        case OpType::kOrderBy:
          // Order keys almost always span nodes; de-factor then sort.
          FlattenState(&state, options_);
          SortAndLimit(&state.flat, op.sort_keys, op.limit);
          break;
        case OpType::kTopK:
          state.SwitchToFlat(StreamTopK(*state.tree, op.sort_keys, op.limit));
          break;
        case OpType::kAggProjectTop: {
          FlatBlock out;
          if (!op.group_vertex.empty()) {
            out = VertexKeyedAggregate(*state.tree, op, deferred, view,
                                       options_);
          } else if (!TryFactAggregate(*state.tree, op.group_by, op.aggs,
                                       &out)) {
            out = StreamingAggregate(*state.tree, op.group_by, op.aggs);
          }
          if (!op.computed.empty() || !op.selections.empty()) {
            out = ProjectFlat(out, op);
          }
          SortAndLimit(&out, op.sort_keys, op.limit);
          state.SwitchToFlat(std::move(out));
          break;
        }
        case OpType::kLimit:
          FlattenState(&state, options_, op.limit);
          break;
        case OpType::kDistinct:
        case OpType::kExpandInto:
          // Cyclic / global-dedup logic: revert to flat execution.
          FlattenState(&state, options_);
          state.flat = ApplyFlatOp(std::move(state.flat), op, view, &istats,
                                   options_.context);
          break;
        case OpType::kProcedure:
          state.SwitchToFlat(op.procedure(view));
          break;
      }
    }
    OpStats os;
    os.op = OpTypeName(op.type);
    os.millis = t.ElapsedMillis();
    os.est_rows = op.est_rows;
    os.intersect = istats;
    result.stats.intersect.Add(istats);
    if (budget != nullptr) {
      // Per-op governor accounting: true the budget up to the exact live
      // state (the intra-op trackers charged approximations and released
      // them), then let the checkpoint at the top of the next iteration —
      // or the one below for the last op — kill an over-budget query.
      tracker.Update(state.MemoryBytes());
      ThrowIfInterrupted(options_.context);
    }
    if (options_.collect_stats) {
      os.intermediate_bytes =
          std::max(state.MemoryBytes(), state.transient_bytes);
      state.transient_bytes = 0;
      os.rows = state.is_tree()
                    ? (state.tree == nullptr ? 0 : state.tree->CountTuples())
                    : state.flat.NumRows();
      result.stats.peak_intermediate_bytes = std::max(
          result.stats.peak_intermediate_bytes, os.intermediate_bytes);
    }
    result.stats.ops.push_back(std::move(os));
  }

  if (state.is_tree() && state.tree == nullptr) {
    // Empty plan: nothing was executed.
    result.stats.total_millis = total.ElapsedMillis();
    return result;
  }
  if (state.is_tree()) {
    const std::vector<std::string> cols =
        plan.output.empty() ? AllTreeColumns(*state.tree) : plan.output;
    Schema s;
    for (const std::string& c : cols) {
      const FTreeNode* n = state.tree->NodeOfColumn(c);
      int ci = n->block.schema().IndexOf(c);
      s.Add(c, n->block.schema()[ci].type);
    }
    FlatBlock shaped(s);
    if (options_.intra_query_threads > 1) {
      state.tree->FlattenParallel(cols, &shaped, options_.intra_query_threads,
                                  options_.context);
    } else {
      state.tree->Flatten(cols, &shaped, UINT64_MAX, options_.context);
    }
    if (budget != nullptr) {
      // The de-factored answer replaces the tree as the live state.
      tracker.Update(shaped.MemoryBytes());
      ThrowIfInterrupted(options_.context);
    }
    result.table = std::move(shaped);
  } else {
    result.table = internal::ProjectOutput(state.flat, plan.output);
  }
  result.stats.total_millis = total.ElapsedMillis();
  return result;
}

}  // namespace ges

// f-Block: the cache-friendly, column-oriented factorized block (Section
// 4.2 of the paper).
//
// An f-Block is a set of typed columns over a schema; every column has the
// same cardinality N, and row i of all columns together forms the i-th
// encoded tuple. Two physical flavors exist for the leading vertex column:
//
//  * materialized — a plain ValueVector of vertex ids;
//  * lazy ("pointer-based join", Section 5) — a list of (ptr,len) segments
//    pointing directly into the graph's adjacency arrays, plus prefix-sum
//    offsets. Neighbor ids are never copied; they are read through the
//    pointers, and only materialized if an operator genuinely needs a
//    columnar copy.
//
// Non-leading columns (properties, distances, edge stamps) are always
// materialized ValueVectors aligned with the logical row index.
#ifndef GES_EXECUTOR_FBLOCK_H_
#define GES_EXECUTOR_FBLOCK_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/value.h"
#include "executor/schema.h"
#include "storage/adjacency.h"

namespace ges {

class FBlock {
 public:
  FBlock() = default;

  const Schema& schema() const { return schema_; }

  // Number of logical rows (the shared cardinality N of all columns).
  size_t NumRows() const {
    if (lazy_) return seg_offsets_.empty() ? 0 : seg_offsets_.back();
    return columns_.empty() ? columnless_rows_ : columns_[0].size();
  }

  bool lazy() const { return lazy_; }

  // --- construction: materialized columns ---
  // Adds a column; the first added column defines/extends the schema. All
  // columns must end up with equal cardinality.
  void AddColumn(const std::string& name, ValueVector column) {
    schema_.Add(name, column.type());
    columns_.push_back(std::move(column));
  }

  // --- construction: columnless block ---
  // A block of `rows` rows and no column: the child of a counted Expand
  // (PlanOp::counted), which carries only its parent rows' multiplicity.
  void InitColumnless(uint64_t rows) { columnless_rows_ = rows; }

  // --- construction: lazy vertex column ---
  // Initializes this block as a lazy single-column block named `name`.
  // Segments are appended with AppendSegment; logical rows are the
  // concatenation of all segment entries.
  void InitLazy(const std::string& name) {
    lazy_ = true;
    schema_.Add(name, ValueType::kVertex);
    seg_offsets_.push_back(0);
  }
  void AppendSegment(AdjSpan span) {
    segments_.push_back(span);
    seg_offsets_.push_back(seg_offsets_.back() + span.size);
  }
  // Appends a segment whose storage the block owns. Used when the span was
  // decoded from a compacted relation's varint level (DESIGN.md §16): the
  // decode scratch is reused on the next fetch, so the ids/stamps must move
  // into the block to stay valid for the block's lifetime.
  void AppendOwnedSegment(std::vector<VertexId> ids,
                          std::vector<int64_t> stamps) {
    owned_.push_back(
        std::make_unique<AdjScratch>(AdjScratch{std::move(ids),
                                                std::move(stamps)}));
    const AdjScratch& o = *owned_.back();
    AdjSpan span{o.ids.data(), o.stamps.empty() ? nullptr : o.stamps.data(),
                 static_cast<uint32_t>(o.ids.size())};
    AppendSegment(span);
  }
  size_t NumSegments() const { return segments_.size(); }
  const AdjSpan& Segment(size_t i) const { return segments_[i]; }

  // --- row access ---
  // Vertex id at logical row `row` of the leading column. For lazy blocks
  // this resolves through the segment table (O(log #segments)).
  VertexId VertexAt(uint64_t row) const {
    if (!lazy_) return columns_[0].GetVertex(row);
    size_t seg = SegmentIndexOf(row);
    return segments_[seg].ids[row - seg_offsets_[seg]];
  }
  // Copies the lazy head's ids of rows [lo, hi) into `out`, a segment run
  // at a time; the column itself stays unmaterialized.
  void CopyHeadIds(uint64_t lo, uint64_t hi, int64_t* out) const;
  // Edge stamp parallel to the lazy vertex column (0 if absent).
  int64_t StampAt(uint64_t row) const {
    size_t seg = SegmentIndexOf(row);
    const AdjSpan& s = segments_[seg];
    return s.stamps == nullptr ? 0 : s.stamps[row - seg_offsets_[seg]];
  }

  // Raw 64-bit word of an int64, vertex or date column, without a Value.
  int64_t WordAt(uint64_t row, size_t col) const {
    if (lazy_ && col == 0) return static_cast<int64_t>(VertexAt(row));
    return columns_[ColumnStorageIndex(col)].GetInt(row);
  }

  Value GetValue(uint64_t row, size_t col) const {
    if (lazy_ && col == 0) return Value::Vertex(VertexAt(row));
    return columns_[ColumnStorageIndex(col)].GetValue(row);
  }

  // Materialized column accessor. For lazy blocks, schema column c > 0 maps
  // to storage column c - 1.
  const ValueVector& Column(size_t schema_col) const {
    return columns_[ColumnStorageIndex(schema_col)];
  }

  // Appends a materialized, row-aligned column (e.g. a fetched property).
  void AppendAlignedColumn(const std::string& name, ValueVector column) {
    schema_.Add(name, column.type());
    columns_.push_back(std::move(column));
  }

  // Converts the lazy vertex column into a materialized one ("lazily
  // copied via the stored pointer ... only if we have to do so").
  void Materialize();

  size_t MemoryBytes() const;

 private:
  size_t ColumnStorageIndex(size_t schema_col) const {
    return lazy_ ? schema_col - 1 : schema_col;
  }

  size_t SegmentIndexOf(uint64_t row) const {
    // Cache-friendly: most access patterns are sequential. The memo is a
    // relaxed atomic because morsel-parallel operators (IntersectExpand)
    // probe the same block from several workers; any stale value is just a
    // missed shortcut, never a wrong answer.
    size_t seg = last_seg_.load(std::memory_order_relaxed);
    if (seg < segments_.size() && seg_offsets_[seg] <= row &&
        row < seg_offsets_[seg + 1]) {
      return seg;
    }
    auto it = std::upper_bound(seg_offsets_.begin(), seg_offsets_.end(), row);
    seg = static_cast<size_t>(it - seg_offsets_.begin()) - 1;
    last_seg_.store(seg, std::memory_order_relaxed);
    return seg;
  }

  Schema schema_;
  std::vector<ValueVector> columns_;

  uint64_t columnless_rows_ = 0;

  bool lazy_ = false;
  std::vector<AdjSpan> segments_;
  // Backing storage for AppendOwnedSegment spans (unique_ptr: spans hold
  // raw pointers into the buffers, which must not move on vector growth).
  std::vector<std::unique_ptr<AdjScratch>> owned_;
  std::vector<uint64_t> seg_offsets_;
  mutable std::atomic<size_t> last_seg_{0};
};

}  // namespace ges

#endif  // GES_EXECUTOR_FBLOCK_H_

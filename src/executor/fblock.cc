#include "executor/fblock.h"

namespace ges {

void FBlock::Materialize() {
  if (!lazy_) return;
  // Edge stamps, if an operator needs them, are fetched into an aligned
  // column while the block is still lazy (see ExpandOp); only the vertex
  // ids themselves are copied here.
  ValueVector ids(ValueType::kVertex);
  ids.Reserve(NumRows());
  for (const AdjSpan& s : segments_) {
    for (uint32_t k = 0; k < s.size; ++k) {
      ids.AppendVertex(s.ids[k]);
    }
  }
  // The materialized vertex column becomes storage column 0; existing
  // aligned columns shift right.
  columns_.insert(columns_.begin(), std::move(ids));
  lazy_ = false;
  segments_.clear();
  segments_.shrink_to_fit();
  owned_.clear();
  owned_.shrink_to_fit();
  seg_offsets_.clear();
  seg_offsets_.shrink_to_fit();
}

void FBlock::CopyHeadIds(uint64_t lo, uint64_t hi, int64_t* out) const {
  for (size_t seg = SegmentIndexOf(lo); lo < hi; ++seg) {
    uint64_t end = std::min(hi, seg_offsets_[seg + 1]);
    const VertexId* ids = segments_[seg].ids + (lo - seg_offsets_[seg]);
    out = std::copy(ids, ids + (end - lo), out);
    lo = end;
  }
}

size_t FBlock::MemoryBytes() const {
  size_t bytes = 0;
  for (const ValueVector& c : columns_) bytes += c.MemoryBytes();
  bytes += segments_.capacity() * sizeof(AdjSpan) +
           seg_offsets_.capacity() * sizeof(uint64_t);
  for (const auto& o : owned_) {
    bytes += sizeof(AdjScratch) + o->ids.capacity() * sizeof(VertexId) +
             o->stamps.capacity() * sizeof(int64_t);
  }
  return bytes;
}

}  // namespace ges

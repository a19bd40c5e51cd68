// Immutable delta/varint-compressed CSR adjacency segments (DESIGN.md §16).
//
// A CompressedSegment is the output of one background compaction pass over a
// relation: base adjacency arrays and pruned MVCC overlays merged at a cut
// version into a single immutable columnar layout, following the
// delta-compressed neighbor-list design of Gupta et al. ("Columnar Storage
// and List-based Processing for Graph DBMSs"). Like the base CSR
// (storage/adjacency.h), the index is addressed by label-local slot, so it
// covers only the relation's source label, never the global id space:
//
//   slots     0 .. B-1 are the B bulk vertices of the source label, at
//             their dense label offset (Graph::OffsetInLabel); slots
//             B .. B+T-1 are the T post-bulk vertices of the source label
//             whose list was non-empty at the cut, in the sorted `tail_`
//             id array
//   tail_dir_ ~|tail|/4 u32 positions bucketing tail_ by id range, so
//             TailSlot reads one bucket of about four ids instead of
//             binary-searching the whole tail (post-bulk ids of one label
//             are spread over the range other labels' new vertices share)
//   blob_     per-slot byte region holding varint(first id) followed by
//             varint(id[i] - id[i-1]) — neighbor lists are sorted (the
//             storage invariant of storage/intersect.h), so deltas are
//             non-negative and parallel edges encode as zero bytes
//   offsets_  B+T+1 u32 byte offsets into blob_ (slot s owns
//             [offsets_[s], offsets_[s+1])); a blob past 4 GiB aborts
//   degrees_  B+T u32 list lengths, so DegreeAt() is O(1) without decoding
//
// Edge stamps (the one optional int64 edge property) are null-suppressed
// columnar: each non-empty region carries a 1-byte stamp mode after the id
// stream — 0 means every stamp is zero and nothing is stored (the common
// case for stamp-free datasets loaded through a has_stamp relation), 1
// means zigzag-varint(first stamp) followed by zigzag-varint deltas.
//
// Decoding materializes into caller-owned AdjScratch buffers; the returned
// AdjSpan is sorted, so the WCOJ galloping path consumes it unchanged.
#ifndef GES_STORAGE_COMPRESSED_SEGMENT_H_
#define GES_STORAGE_COMPRESSED_SEGMENT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "storage/adjacency.h"

namespace ges {

class CompressedSegment {
 public:
  // Slot of a vertex the segment holds no list for; Decode and DegreeAt
  // answer it with an empty list.
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  // Streams the slots in order: every bulk vertex of the source label by
  // label offset (Add), then the post-bulk sources by increasing id
  // (AddTail).
  class Builder {
   public:
    explicit Builder(bool has_stamp) : has_stamp_(has_stamp) {}

    // Appends the next bulk slot's sorted neighbor list. `stamps` may be
    // nullptr when the relation has no stamp (or n == 0).
    void Add(const VertexId* ids, const int64_t* stamps, uint32_t n);
    // Appends post-bulk vertex `v`'s list (ids above every earlier tail
    // vertex). An empty list adds nothing: the vertex reads as empty.
    void AddTail(VertexId v, const VertexId* ids, const int64_t* stamps,
                 uint32_t n);

    // Finishes the segment built at `cut`. The builder is consumed.
    std::shared_ptr<const CompressedSegment> Build(Version cut);

   private:
    bool has_stamp_;
    std::vector<uint8_t> blob_;
    std::vector<uint32_t> offsets_{0};
    std::vector<uint32_t> degrees_;
    std::vector<VertexId> tail_;
    size_t num_edges_ = 0;
    size_t num_sources_ = 0;
  };

  bool has_stamp() const { return has_stamp_; }
  // The snapshot version the segment's contents were merged at.
  Version cut_version() const { return cut_; }

  // Slot of post-bulk vertex `v`, or kNoSlot when its list was empty at the
  // cut (or it is not a source-label vertex). Bulk vertices are addressed
  // by their label offset directly (Graph::SegmentSlot).
  uint32_t TailSlot(VertexId v) const {
    if (tail_.empty() || v < tail_.front() || v > tail_.back()) return kNoSlot;
    const size_t b = (v - tail_.front()) >> tail_shift_;
    const auto last = tail_.begin() + tail_dir_[b + 1];
    const auto it = std::lower_bound(tail_.begin() + tail_dir_[b], last, v);
    if (it == last || *it != v) return kNoSlot;
    return static_cast<uint32_t>(degrees_.size() - tail_.size() +
                                 (it - tail_.begin()));
  }

  uint32_t DegreeAt(uint32_t slot) const {
    return slot < degrees_.size() ? degrees_[slot] : 0;
  }

  size_t num_edges() const { return num_edges_; }
  size_t num_sources() const { return num_sources_; }

  // Decodes slot `slot`'s neighbor list into `scratch` and returns a span
  // over it (sorted, stamps non-null iff has_stamp()). The span is valid
  // until `scratch` is reused or destroyed.
  AdjSpan Decode(uint32_t slot, AdjScratch* scratch) const;

  size_t MemoryBytes() const {
    return sizeof(*this) + blob_.capacity() +
           (offsets_.capacity() + degrees_.capacity()) * sizeof(uint32_t) +
           tail_.capacity() * sizeof(VertexId) +
           tail_dir_.capacity() * sizeof(uint32_t);
  }

 private:
  friend class Builder;
  CompressedSegment() = default;

  bool has_stamp_ = false;
  Version cut_ = 0;
  std::vector<uint8_t> blob_;
  std::vector<uint32_t> offsets_;  // one per slot, plus one
  std::vector<uint32_t> degrees_;  // one per slot
  std::vector<VertexId> tail_;     // post-bulk sources, sorted
  // Bucket b covers the ids in [front + b * 2^shift, front + (b + 1) *
  // 2^shift), front = tail_.front(), shift = tail_shift_, and owns tail_
  // positions [tail_dir_[b], tail_dir_[b + 1]).
  std::vector<uint32_t> tail_dir_;
  int tail_shift_ = 0;
  size_t num_edges_ = 0;
  size_t num_sources_ = 0;
};

}  // namespace ges

#endif  // GES_STORAGE_COMPRESSED_SEGMENT_H_

// Immutable delta/varint-compressed CSR adjacency segments (DESIGN.md §16).
//
// A CompressedSegment is the output of one background compaction pass over a
// relation: base adjacency arrays and pruned MVCC overlays merged at a cut
// version into a single immutable columnar layout, following the
// delta-compressed neighbor-list design of Gupta et al. ("Columnar Storage
// and List-based Processing for Graph DBMSs"):
//
//   blob_     per-vertex byte region holding varint(first id) followed by
//             varint(id[i] - id[i-1]) — neighbor lists are sorted (the
//             storage invariant of storage/intersect.h), so deltas are
//             non-negative and parallel edges encode as zero bytes
//   offsets_  n+1 u64 byte offsets into blob_ (vertex v owns
//             [offsets_[v], offsets_[v+1]))
//   degrees_  u32 per vertex, so DegreeOf() is O(1) without decoding
//
// Edge stamps (the one optional int64 edge property) are null-suppressed
// columnar: each non-empty vertex region carries a 1-byte stamp mode after
// the id stream — 0 means every stamp is zero and nothing is stored (the
// common case for stamp-free datasets loaded through a has_stamp relation),
// 1 means zigzag-varint(first stamp) followed by zigzag-varint deltas.
//
// Decoding materializes into caller-owned AdjScratch buffers; the returned
// AdjSpan is sorted, so the WCOJ galloping path consumes it unchanged.
#ifndef GES_STORAGE_COMPRESSED_SEGMENT_H_
#define GES_STORAGE_COMPRESSED_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "storage/adjacency.h"

namespace ges {

class CompressedSegment {
 public:
  // Streams vertices 0..n-1 in order; each Add appends the next vertex's
  // sorted neighbor list.
  class Builder {
   public:
    explicit Builder(bool has_stamp) : has_stamp_(has_stamp) {}

    // `stamps` may be nullptr when the relation has no stamp (or n == 0).
    void Add(const VertexId* ids, const int64_t* stamps, uint32_t n);

    // Finishes the segment built at `cut`. The builder is consumed.
    std::shared_ptr<const CompressedSegment> Build(Version cut);

   private:
    bool has_stamp_;
    std::vector<uint8_t> blob_;
    std::vector<uint64_t> offsets_{0};
    std::vector<uint32_t> degrees_;
    size_t num_edges_ = 0;
    size_t num_sources_ = 0;
  };

  bool has_stamp() const { return has_stamp_; }
  // The snapshot version the segment's contents were merged at.
  Version cut_version() const { return cut_; }

  // Vertices covered by this segment: [0, NumVertices()). Vertices created
  // after the build are resolved purely through overlays.
  size_t NumVertices() const { return degrees_.size(); }
  bool Covers(VertexId v) const { return v < degrees_.size(); }

  uint32_t DegreeOf(VertexId v) const {
    return v < degrees_.size() ? degrees_[v] : 0;
  }

  size_t num_edges() const { return num_edges_; }
  size_t num_sources() const { return num_sources_; }

  // Decodes vertex `v`'s neighbor list into `scratch` and returns a span
  // over it (sorted, stamps non-null iff has_stamp()). The span is
  // valid until `scratch` is reused or destroyed.
  AdjSpan Decode(VertexId v, AdjScratch* scratch) const;

  size_t MemoryBytes() const {
    return sizeof(*this) + blob_.capacity() +
           offsets_.capacity() * sizeof(uint64_t) +
           degrees_.capacity() * sizeof(uint32_t);
  }

  // Raw encoded stream (serialization: GESSNAP4 manifests record segment
  // shape; the bytes themselves are rebuilt on load because VertexIds are
  // not stable across save/load).
  size_t EncodedBytes() const { return blob_.size(); }

 private:
  friend class Builder;
  CompressedSegment() = default;

  bool has_stamp_ = false;
  Version cut_ = 0;
  std::vector<uint8_t> blob_;
  std::vector<uint64_t> offsets_;  // n+1 entries
  std::vector<uint32_t> degrees_;  // n entries
  size_t num_edges_ = 0;
  size_t num_sources_ = 0;
};

}  // namespace ges

#endif  // GES_STORAGE_COMPRESSED_SEGMENT_H_

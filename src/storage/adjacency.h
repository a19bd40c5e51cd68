// Adjacency-array graph topology storage (Figure 9 of the paper).
//
// The whole topology is stored as an array-of-arrays: for every relation key
// (srcLabel, edgeLabel, dstLabel, direction) there is one AdjacencyTable
// holding the paper's `adjMeta` -> `adjArray` pair as a CSR. The index is
// addressed by the source vertex's dense offset within its label, so each
// table covers only the vertices of its source label, never the global id
// space. Bulk load packs all adjArrays into one contiguous buffer; that
// level is immutable, inserts and deletes become copy-on-write overlay
// versions (storage/version_manager.h), and compaction replaces the level
// with a delta-varint one that absorbs them.
//
// Each relation may carry at most one int64 edge property ("stamp", e.g.
// creationDate of a KNOWS edge) stored side by side with the neighbor ids.
// This covers every edge property the LDBC SNB interactive workload touches.
#ifndef GES_STORAGE_ADJACENCY_H_
#define GES_STORAGE_ADJACENCY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/wire.h"

namespace ges {

// Resolved adjacency table id: index into GraphStore's table list. Plans
// resolve (srcLabel, edgeLabel, dstLabel, direction) to a RelationId once at
// build time, so the per-tuple lookup cost the paper calls "minor"
// disappears entirely from the hot path.
using RelationId = uint32_t;
inline constexpr RelationId kInvalidRelation = 0xffffffffu;

// A non-owning view of one vertex's neighbors (and optional edge stamps).
//
// Sorted invariant: the ids are in nondecreasing order. Finalize sorts each
// vertex's packed array, overlay publication sorts copy-on-write entries,
// and varint levels are built from sorted lists, so every span can be
// galloped/binary-searched directly (see storage/intersect.h).
struct AdjSpan {
  const VertexId* ids = nullptr;
  const int64_t* stamps = nullptr;  // nullptr if the relation has no stamp
  uint32_t size = 0;

  bool empty() const { return size == 0; }
};

// Caller-owned decode buffers for reads that may hit a varint-encoded
// (compacted) level (DESIGN.md §16). A span decoded into a scratch is valid
// until the scratch is reused for another decode or destroyed, so a call
// site that holds two spans live at once needs two scratches. Reusable
// across iterations of a loop — the vectors keep their capacity.
struct AdjScratch {
  std::vector<VertexId> ids;
  std::vector<int64_t> stamps;
};

// Hash key of an adjacency table, per the paper's storage design.
struct RelationKey {
  LabelId src_label;
  LabelId edge_label;
  LabelId dst_label;
  Direction direction;

  bool operator==(const RelationKey& o) const {
    return src_label == o.src_label && edge_label == o.edge_label &&
           dst_label == o.dst_label && direction == o.direction;
  }
};

struct RelationKeyHash {
  size_t operator()(const RelationKey& k) const {
    uint64_t h = (uint64_t{k.src_label} << 40) ^ (uint64_t{k.edge_label} << 24) ^
                 (uint64_t{k.dst_label} << 8) ^ uint64_t(k.direction);
    h *= 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

// One relation's adjacency: the staging buffers of bulk load, then one
// immutable level published through a single pointer. A level is a CSR
// over the relation's source label, addressed by label-local slot rather
// than the global VertexId, so it costs a slot per source-label vertex,
// never one per graph vertex:
//
//   slots     0 .. B-1 are the B bulk vertices of the source label, at
//             their dense label offset (Graph::OffsetInLabel); slots
//             B .. B+T-1 are the T post-bulk vertices whose list was
//             non-empty when the level was built, in the sorted tail
//   tail      ~|tail|/4 u32 directory positions bucket the tail by id
//             range, so TailSlot reads one bucket of about four ids instead
//             of binary-searching the whole tail (post-bulk ids of one label
//             are spread over the range other labels' new vertices share)
//
// The lists come in one of two encodings, fixed by who built the level:
//
//   raw       (Finalize) offsets index packed ids/stamps arrays; spans
//             point straight into them. Bulk load has no post-bulk tail.
//   varint    (compaction, DESIGN.md §16) offsets are byte offsets into a
//             blob holding varint(first id) then varint(id[i] - id[i-1]) —
//             lists are sorted (storage/intersect.h), so deltas are
//             non-negative and parallel edges encode as zero bytes — after
//             the delta-compressed lists of Gupta et al. ("Columnar Storage
//             and List-based Processing for Graph DBMSs"). Stamps are
//             null-suppressed: a non-empty list carries a mode byte after
//             its ids, 0 when every stamp is zero (nothing else stored), 1
//             for zigzag-varint(first stamp) then zigzag-varint deltas. A
//             per-slot degree array answers DegreeAt without decoding, and
//             reads decode into caller-owned AdjScratch buffers.
//
// Every later update lives in the MVCC overlays (storage/version_manager.h)
// that Graph::Neighbors resolves first; compaction folds them into a new
// varint level and installs it through the same pointer.
class AdjacencyTable {
 public:
  class Csr {
   public:
    // Slot of a vertex the level holds no list for; it reads as empty.
    static constexpr uint32_t kNoSlot = 0xffffffffu;

    // Builds a varint level by streaming its slots in order: every bulk
    // vertex of the source label by label offset (Add), then the post-bulk
    // sources by increasing id (AddTail).
    class Builder {
     public:
      explicit Builder(bool has_stamp);

      // Appends the next bulk slot's sorted neighbor list. `stamps` may be
      // nullptr when the relation has no stamp (or n == 0).
      void Add(const VertexId* ids, const int64_t* stamps, uint32_t n);
      // Appends post-bulk vertex `v`'s list (ids above every earlier tail
      // vertex). An empty list adds nothing: the vertex reads as empty.
      void AddTail(VertexId v, const VertexId* ids, const int64_t* stamps,
                   uint32_t n);
      // Finishes the level. The builder is consumed.
      std::unique_ptr<const Csr> Build();

     private:
      std::unique_ptr<Csr> csr_ = std::make_unique<Csr>();
      WireBuf blob_;
    };

    bool varint() const { return varint_; }
    size_t num_edges() const { return num_edges_; }
    // Slots with at least one edge.
    size_t num_sources() const { return num_sources_; }

    // Slot of post-bulk vertex `v`, or kNoSlot when the level holds no list
    // for it. Bulk vertices sit at their label offset (Graph::Resolve).
    uint32_t TailSlot(VertexId v) const {
      if (tail_.empty() || v < tail_.front() || v > tail_.back()) {
        return kNoSlot;
      }
      const size_t b = (v - tail_.front()) >> tail_shift_;
      const auto last = tail_.begin() + tail_dir_[b + 1];
      const auto it = std::lower_bound(tail_.begin() + tail_dir_[b], last, v);
      if (it == last || *it != v) return kNoSlot;
      return static_cast<uint32_t>(offsets_.size() - 1 - tail_.size() +
                                   (it - tail_.begin()));
    }

    uint32_t DegreeAt(uint32_t slot) const {
      if (varint_) return slot < degrees_.size() ? degrees_[slot] : 0;
      return size_t{slot} + 1 < offsets_.size()
                 ? offsets_[slot + 1] - offsets_[slot]
                 : 0;
    }

    // The sorted list at `slot` (stamps non-null iff the relation has
    // them); empty for kNoSlot. A varint level decodes into `scratch`, and
    // the span is valid until the scratch is reused; a decode without one
    // aborts loudly rather than silently dropping edges.
    AdjSpan NeighborsAt(uint32_t slot, AdjScratch* scratch = nullptr) const {
      if (varint_) return Decode(slot, scratch);
      if (size_t{slot} + 1 >= offsets_.size()) return AdjSpan{};
      const uint32_t begin = offsets_[slot];
      return AdjSpan{ids_.data() + begin,
                     stamps_.empty() ? nullptr : stamps_.data() + begin,
                     offsets_[slot + 1] - begin};
    }

    // The arrays' capacity (a raw level: its offsets, ids and stamps).
    size_t MemoryBytes() const {
      return (varint_ ? blob_.capacity() : 0) +
             (offsets_.capacity() + degrees_.capacity() +
              tail_dir_.capacity()) *
                 sizeof(uint32_t) +
             (ids_.capacity() + tail_.capacity()) * sizeof(VertexId) +
             stamps_.capacity() * sizeof(int64_t);
    }

   private:
    friend class AdjacencyTable;  // Finalize packs the raw arrays

    AdjSpan Decode(uint32_t slot, AdjScratch* scratch) const;

    bool varint_ = false;
    bool has_stamp_ = false;
    // One per slot, plus one: element offsets into ids_/stamps_ (raw) or
    // byte offsets into blob_ (varint).
    std::vector<uint32_t> offsets_;
    std::vector<VertexId> ids_;     // raw
    std::vector<int64_t> stamps_;   // raw; empty if the relation has none
    std::string blob_;              // varint
    std::vector<uint32_t> degrees_; // varint: one per slot
    std::vector<VertexId> tail_;    // post-bulk sources, sorted
    // Bucket b covers the ids in [front + b * 2^shift, front + (b + 1) *
    // 2^shift), front = tail_.front(), shift = tail_shift_, and owns tail_
    // positions [tail_dir_[b], tail_dir_[b + 1]).
    std::vector<uint32_t> tail_dir_;
    int tail_shift_ = 0;
    size_t num_edges_ = 0;
    size_t num_sources_ = 0;
  };

  AdjacencyTable(RelationKey key, bool has_stamp)
      : key_(key), has_stamp_(has_stamp) {}

  const RelationKey& key() const { return key_; }
  bool has_stamp() const { return has_stamp_; }
  // The installed level's totals, kept on the table so lock-free readers
  // (the optimizer's cost model, the memory gauges) never dereference a
  // level they have not pinned. num_edges() / num_sources() gives the
  // average degree of vertices with at least one out-edge.
  size_t num_edges() const {
    return num_edges_.load(std::memory_order_relaxed);
  }
  size_t num_sources() const {
    return num_sources_.load(std::memory_order_relaxed);
  }
  // True once a compaction installed a varint level.
  bool compacted() const { return compacted_.load(std::memory_order_relaxed); }

  // --- bulk load (two-phase: stage edges, then Finalize packs them) ---
  // `src` is the source vertex's offset within key().src_label.
  void StageEdge(uint32_t src, VertexId dst, int64_t stamp = 0);
  // Packs staged edges into a raw level; `num_sources` is the size of the
  // source label (every staged `src` is below it). Called once.
  void Finalize(size_t num_sources);

  // The published level; nullptr before Finalize. One acquire load reaches
  // all of it, so a reader racing a compaction install holds either the
  // old level (kept alive on the retire list) or the new one.
  const Csr* csr() const { return csr_.load(std::memory_order_acquire); }

  // Publishes `next` and returns the level it replaces (nullptr the first
  // time). Pinned readers may still hold spans into the old level, so a
  // compaction parks it on the retire list until the GC watermark passes
  // the install. Called by Finalize and, with the commit mutex held, by
  // compaction.
  std::unique_ptr<const Csr> Install(std::unique_ptr<const Csr> next);

  // Everything the table holds, staged buffers included (the governor
  // watermark must see capacity, not just live size — DESIGN.md §16).
  size_t MemoryBytes() const;

 private:
  RelationKey key_;
  bool has_stamp_;
  // Relaxed atomics: an install rewrites them under the commit mutex while
  // the cost model and the gauges read them lock-free; a slightly stale
  // value is fine, a torn read is not.
  std::atomic<size_t> num_edges_{0};
  std::atomic<size_t> num_sources_{0};
  std::atomic<size_t> level_bytes_{0};
  std::atomic<bool> compacted_{false};

  // Staged (bulk) edges before Finalize.
  std::vector<uint32_t> staged_src_;
  std::vector<VertexId> staged_dst_;
  std::vector<int64_t> staged_stamp_;

  // `owner_` holds the installed level; `csr_` is the lock-free
  // reader-side acquire point.
  std::unique_ptr<const Csr> owner_;
  std::atomic<const Csr*> csr_{nullptr};
};

}  // namespace ges

#endif  // GES_STORAGE_ADJACENCY_H_

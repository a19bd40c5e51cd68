// Adjacency-array graph topology storage (Figure 9 of the paper).
//
// The whole topology is stored as an array-of-arrays: for every relation key
// (srcLabel, edgeLabel, dstLabel, direction) there is one AdjacencyTable
// holding the paper's `adjMeta` -> `adjArray` pair as a CSR. The index is
// addressed by the source vertex's dense offset within its label, so each
// table covers only the vertices of its source label, never the global id
// space. Bulk load packs all adjArrays into one contiguous buffer; the base
// is immutable afterwards, and inserts and deletes become copy-on-write
// overlay versions (storage/version_manager.h).
//
// Each relation may carry at most one int64 edge property ("stamp", e.g.
// creationDate of a KNOWS edge) stored side by side with the neighbor ids.
// This covers every edge property the LDBC SNB interactive workload touches.
#ifndef GES_STORAGE_ADJACENCY_H_
#define GES_STORAGE_ADJACENCY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

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
// and compressed segments are built from sorted lists, so every span can be
// galloped/binary-searched directly (see storage/intersect.h).
struct AdjSpan {
  const VertexId* ids = nullptr;
  const int64_t* stamps = nullptr;  // nullptr if the relation has no stamp
  uint32_t size = 0;

  bool empty() const { return size == 0; }
};

// Caller-owned decode buffers for reads that may hit a compressed segment
// (DESIGN.md §16). A span decoded into a scratch is valid until the scratch
// is reused for another decode or destroyed, so a call site that holds two
// spans live at once needs two scratches. Reusable across iterations of a
// loop — the vectors keep their capacity.
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

// One base adjacency table: an immutable CSR over the vertices of the
// table's source label, addressed by their dense label-local offset
// (Graph::OffsetInLabel) rather than the global VertexId — the index costs
// (|source label| + 1) u32 offsets instead of a slot per graph vertex.
// Built once by Finalize; every later update lives in the MVCC overlays
// (storage/version_manager.h) that Graph::Neighbors resolves first.
class AdjacencyTable {
 public:
  // The CSR Finalize builds: source offset o owns packed slots
  // [offsets[o], offsets[o + 1]), sorted by neighbor id. Immutable once
  // published.
  struct Csr {
    std::vector<uint32_t> offsets;
    std::vector<VertexId> ids;
    std::vector<int64_t> stamps;  // empty if the relation has no stamp

    // Neighbors of the source-label vertex at offset `src`; empty past
    // the end.
    AdjSpan NeighborsAt(uint32_t src) const {
      if (size_t{src} + 1 >= offsets.size()) return AdjSpan{};
      const uint32_t begin = offsets[src];
      return AdjSpan{ids.data() + begin,
                     stamps.empty() ? nullptr : stamps.data() + begin,
                     offsets[src + 1] - begin};
    }
  };

  AdjacencyTable(RelationKey key, bool has_stamp)
      : key_(key), has_stamp_(has_stamp) {}

  const RelationKey& key() const { return key_; }
  bool has_stamp() const { return has_stamp_; }
  size_t num_edges() const {
    return num_edges_.load(std::memory_order_relaxed);
  }
  // Vertices with at least one out-edge; with num_edges() this gives the
  // average degree the optimizer's intersection cost model uses.
  size_t num_sources() const {
    return num_sources_.load(std::memory_order_relaxed);
  }

  // --- bulk load (two-phase: stage edges, then Finalize packs them) ---
  // `src` is the source vertex's offset within key().src_label.
  void StageEdge(uint32_t src, VertexId dst, int64_t stamp = 0);
  // Packs staged edges into the CSR; `num_sources` is the size of the
  // source label (every staged `src` is below it). Called once.
  void Finalize(size_t num_sources);

  // The published CSR; nullptr before Finalize and after DetachStorage.
  // One acquire load reaches all of it, so a reader racing a compaction
  // swap holds either the complete CSR (kept alive on the retire list) or
  // none.
  const Csr* csr() const { return csr_.load(std::memory_order_acquire); }

  // Everything the table holds, staged buffers included (the governor
  // watermark must see capacity, not just live size — DESIGN.md §16).
  size_t MemoryBytes() const;

  // --- compaction handoff (DESIGN.md §16) ---
  // Unpublishes the CSR and returns it as an opaque keepalive, leaving the
  // table empty. Pinned readers may still hold AdjSpans into it, so the
  // caller parks the keepalive on the graph's retire list until the GC
  // watermark passes the swap version. The edge totals become the
  // replacing segment's, so AvgDegree and the optimizer cost model keep
  // working. Called with the commit mutex held.
  std::shared_ptr<const void> DetachStorage(size_t num_edges,
                                            size_t num_sources);

 private:
  RelationKey key_;
  bool has_stamp_;
  // Relaxed atomics: the compaction swap rewrites both under the commit
  // mutex while the optimizer's cost model reads them lock-free mid-plan;
  // a slightly stale degree estimate is fine, a torn read is not.
  std::atomic<size_t> num_edges_{0};
  std::atomic<size_t> num_sources_{0};

  // Staged (bulk) edges before Finalize.
  std::vector<uint32_t> staged_src_;
  std::vector<VertexId> staged_dst_;
  std::vector<int64_t> staged_stamp_;

  // `csr_owner_` holds the CSR until DetachStorage hands it off; `csr_` is
  // the lock-free reader-side acquire point.
  std::shared_ptr<const Csr> csr_owner_;
  std::atomic<const Csr*> csr_{nullptr};
};

}  // namespace ges

#endif  // GES_STORAGE_ADJACENCY_H_

// Sorted-adjacency intersection primitives: galloping (exponential) search
// and the leapfrog-style multiway membership prober behind the
// worst-case-optimal IntersectExpand operator (see DESIGN.md §12).
//
// All functions rely on the storage invariant established by
// AdjacencyTable::Finalize, overlay publication and compaction's varint
// level builds: the ids of a span are in nondecreasing order, so spans are
// galloped zero-copy.
#ifndef GES_STORAGE_INTERSECT_H_
#define GES_STORAGE_INTERSECT_H_

#include <cstdint>
#include <vector>

#include "storage/adjacency.h"

namespace ges {

// Counters surfaced through EXPLAIN ANALYZE and ServiceStats.
struct IntersectOpStats {
  uint64_t probes = 0;   // membership tests issued against probe lists
  uint64_t gallops = 0;  // exponential-search doubling steps
  uint64_t skipped = 0;  // probe-list elements jumped over without a compare
  uint64_t emitted = 0;  // intersection results produced

  void Add(const IntersectOpStats& o) {
    probes += o.probes;
    gallops += o.gallops;
    skipped += o.skipped;
    emitted += o.emitted;
  }
  bool Any() const { return probes | gallops | skipped | emitted; }
};

// First index i in [begin, n) with a[i] >= key. Exponential search from
// `begin`, so advancing a cursor through k interleaved lookups costs
// O(k log(n/k)) total instead of O(k log n).
uint32_t GallopLowerBound(const VertexId* a, uint32_t n, uint32_t begin,
                          VertexId key, IntersectOpStats* stats);

// Galloping membership probe for one sorted span. This is the primitive
// behind GraphView::HasEdge, so the binary ExpandInto pipeline benefits too.
bool SpanContains(const AdjSpan& span, VertexId w, IntersectOpStats* stats);

// Leapfrog prober over the probe columns of one IntersectExpand row: holds
// one advancing cursor per (probe column, relation) list, ordered
// short-lists-first so the cheapest rejection runs first. Semantics per
// candidate w: AND over probe columns, OR over each column's relations —
// exactly the binary ExpandInto chain it replaces.
class IntersectProber {
 public:
  // Rebinds the prober to one driver row's probe lists. `lists[i]` is an
  // adjacency list of probe column `column_of[i]`.
  // `num_columns` is the number of probe columns. Reuses internal storage:
  // no allocation after warmup.
  void Bind(const std::vector<AdjSpan>& lists,
            const std::vector<uint32_t>& column_of, size_t num_columns);

  // True if some probe column has no neighbors at all: no candidate can
  // match, so the caller should skip the driver row outright.
  bool AnyColumnEmpty() const { return any_column_empty_; }

  // Resets cursors; call before each (re)scan of a sorted driver list.
  void BeginDriverList();

  // Membership test for a nondecreasing sequence of candidates.
  bool Matches(VertexId w, IntersectOpStats* stats);

 private:
  struct List {
    const VertexId* ids;
    uint32_t size;
    uint32_t cursor;
    uint32_t column;
  };
  std::vector<List> lists_;  // ascending by size: short-lists-first
  std::vector<uint8_t> column_hit_;
  size_t num_columns_ = 0;
  bool any_column_empty_ = false;
};

}  // namespace ges

#endif  // GES_STORAGE_INTERSECT_H_

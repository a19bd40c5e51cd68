// Graph statistics harvested from adjacency metadata and base property
// columns: per-(srcLabel, edgeLabel, dstLabel) sampled mean degrees and
// per-(label, property) NDV / min-max. Owned by the Catalog as an immutable
// snapshot behind a shared_ptr; the service reaper thread rebuilds it
// (Graph::RebuildStats) and each install bumps the catalog stats epoch,
// which invalidates cached plans costed against the old snapshot.
#ifndef GES_STORAGE_GRAPH_STATS_H_
#define GES_STORAGE_GRAPH_STATS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "storage/adjacency.h"

namespace ges {

// Documented default cardinality used when a relation has no sampled edges
// (empty table, or statistics not yet built). A zero estimate must never
// reach the cost model: it made both sides of the WCOJ gate collapse to 0
// and silently disabled the IntersectExpand rewrite.
inline constexpr double kDefaultDegree = 8.0;

// Mean out-degree of one adjacency table, sampled over source-label
// vertices at a fixed version.
struct DegreeHistogram {
  uint64_t sampled_sources = 0;  // sampled vertices with >= 1 edge
  uint64_t sampled_edges = 0;
  double base_avg_degree = 0;  // edges/sources from base adjMeta (exact)

  // Mean degree over sources with edges; falls back to the exact base
  // adjacency metadata when sampling saw nothing.
  double Avg() const {
    if (sampled_sources > 0) {
      return static_cast<double>(sampled_edges) /
             static_cast<double>(sampled_sources);
    }
    return base_avg_degree;
  }
};

// Sampled distribution of one (label, property) base column.
struct PropertyStats {
  uint64_t count = 0;  // total rows in the column
  uint64_t ndv = 0;    // estimated distinct values (0 = unknown)
  bool has_range = false;
  double min = 0;  // numeric range when has_range
  double max = 0;
};

// One immutable statistics snapshot. Index spaces follow the catalog:
// degrees by RelationId, label_vertices by vertex LabelId.
struct GraphStats {
  uint64_t built_at = 0;  // graph version the snapshot was sampled at
  std::vector<DegreeHistogram> degrees;
  std::vector<uint64_t> label_vertices;
  std::unordered_map<uint64_t, PropertyStats> properties;

  static uint64_t PropKey(LabelId label, PropertyId prop) {
    return (uint64_t{label} << 32) | uint64_t{prop};
  }

  const PropertyStats* Property(LabelId label, PropertyId prop) const {
    auto it = properties.find(PropKey(label, prop));
    return it == properties.end() ? nullptr : &it->second;
  }

  // Expected out-degree of `rel`, never zero: relations without sampled
  // edges get kDefaultDegree so the cost model stays well-defined.
  double ExpectedDegree(RelationId rel) const {
    if (rel == kInvalidRelation ||
        static_cast<size_t>(rel) >= degrees.size()) {
      return kDefaultDegree;
    }
    double avg = degrees[rel].Avg();
    return avg > 0 ? avg : kDefaultDegree;
  }

  uint64_t LabelVertices(LabelId label) const {
    return static_cast<size_t>(label) < label_vertices.size()
               ? label_vertices[label]
               : 0;
  }
};

}  // namespace ges

#endif  // GES_STORAGE_GRAPH_STATS_H_

// Graph analytics (OLAP) over snapshot views.
//
// The paper's workload taxonomy (Section 2.2) includes OLAP tasks — large
// traversals for risk management and pattern detection — executed in GES as
// stored procedures over the storage layer. This module provides the
// classic kernels on top of GraphView snapshots: they read adjacency
// through the same unified storage interface as the query executor, so they
// compose with MV2PL snapshots for free.
#ifndef GES_ANALYTICS_ALGORITHMS_H_
#define GES_ANALYTICS_ALGORITHMS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "executor/graph_view.h"

namespace ges {

// PageRank over the vertices of `label`, following `out_rels` edges (the
// union). Vertices outside `label` reached by the edges are ignored
// (ranks flow only within the label's vertex set). Returns scores aligned
// with the returned vertex order.
struct PageRankResult {
  std::vector<VertexId> vertices;
  std::vector<double> scores;
};
PageRankResult PageRank(const GraphView& view, LabelId label,
                        const std::vector<RelationId>& out_rels,
                        int iterations = 20, double damping = 0.85);

// Weakly connected components over `label` vertices using the given
// relations in both directions (pass the OUT and IN tables, or a symmetric
// relation once). Returns a component id per vertex (ids are the smallest
// VertexId in each component) plus the number of components.
struct WccResult {
  std::vector<VertexId> vertices;
  std::vector<VertexId> component;
  size_t num_components = 0;
};
WccResult WeaklyConnectedComponents(const GraphView& view, LabelId label,
                                    const std::vector<RelationId>& rels);

// Global triangle count over a symmetric relation (each triangle counted
// once). Intended for KNOWS-like relations where (u,v) implies (v,u).
uint64_t CountTriangles(const GraphView& view, LabelId label,
                        RelationId symmetric_rel);

// Intersection-based triangle count (the analytic face of the WCOJ tier,
// DESIGN.md §12): per-edge leapfrog intersection of the two sorted
// adjacency spans via storage/intersect.h — no per-vertex neighbor-list
// materialization. Result identical to CountTriangles (parallel edges are
// deduplicated); `stats`, when non-null, accumulates galloping counters.
uint64_t CountTrianglesIntersect(const GraphView& view, LabelId label,
                                 RelationId symmetric_rel,
                                 IntersectOpStats* stats = nullptr);

// Diamond count over a symmetric relation: the number of (edge {u,v},
// unordered pair {w,x} of common neighbors) combinations, i.e.
// sum over edges of C(|N(u) ∩ N(v)|, 2). Each diamond (K4 minus one edge)
// is counted once via its unique chord; a full K4 contributes one per each
// of its 6 edges. Computed with the same per-edge leapfrog intersection.
uint64_t CountDiamonds(const GraphView& view, LabelId label,
                       RelationId symmetric_rel,
                       IntersectOpStats* stats = nullptr);

// 4-cycle (quadrilateral) count over a symmetric relation: each cycle on 4
// distinct vertices counted once, via co-degree accumulation over the
// label's vertices (sum over opposite pairs of C(codeg, 2), halved).
uint64_t CountFourCycles(const GraphView& view, LabelId label,
                         RelationId symmetric_rel);

// Single-source shortest-path distances (unweighted BFS) from `source`
// over `rels`, bounded by `max_depth` (-1 = unbounded). Unreachable
// vertices are absent from the map.
std::unordered_map<VertexId, int> BfsDistances(
    const GraphView& view, const std::vector<RelationId>& rels,
    VertexId source, int max_depth = -1);

// Degree distribution of `rel` over `label`: histogram[d] = #vertices with
// degree d, truncated at the maximum degree.
std::vector<uint64_t> DegreeHistogram(const GraphView& view, LabelId label,
                                      RelationId rel);

}  // namespace ges

#endif  // GES_ANALYTICS_ALGORITHMS_H_

#include "analytics/algorithms.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace ges {

namespace {

// Dense index of a label's vertices for array-based kernels.
struct DenseIndex {
  std::vector<VertexId> vertices;
  std::unordered_map<VertexId, uint32_t> index;

  explicit DenseIndex(const GraphView& view, LabelId label) {
    view.ScanLabel(label, &vertices);
    index.reserve(vertices.size());
    for (uint32_t i = 0; i < vertices.size(); ++i) index[vertices[i]] = i;
  }
};

}  // namespace

PageRankResult PageRank(const GraphView& view, LabelId label,
                        const std::vector<RelationId>& out_rels,
                        int iterations, double damping) {
  DenseIndex dense(view, label);
  size_t n = dense.vertices.size();
  PageRankResult result;
  result.vertices = dense.vertices;
  result.scores.assign(n, n == 0 ? 0.0 : 1.0 / static_cast<double>(n));
  if (n == 0) return result;

  // Out-degrees restricted to in-label targets. Spans are drained before
  // the next fetch, so one decode scratch serves the whole kernel.
  AdjScratch adj;
  std::vector<uint32_t> out_degree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (RelationId rel : out_rels) {
      AdjSpan span = view.Neighbors(rel, dense.vertices[i], &adj);
      for (uint32_t k = 0; k < span.size; ++k) {
        if (dense.index.count(span.ids[k]) != 0) ++out_degree[i];
      }
    }
  }

  std::vector<double> next(n);
  for (int it = 0; it < iterations; ++it) {
    double dangling = 0;
    for (size_t i = 0; i < n; ++i) {
      if (out_degree[i] == 0) dangling += result.scores[i];
    }
    double base = (1.0 - damping) / static_cast<double>(n) +
                  damping * dangling / static_cast<double>(n);
    std::fill(next.begin(), next.end(), base);
    for (size_t i = 0; i < n; ++i) {
      if (out_degree[i] == 0) continue;
      double share =
          damping * result.scores[i] / static_cast<double>(out_degree[i]);
      for (RelationId rel : out_rels) {
        AdjSpan span = view.Neighbors(rel, dense.vertices[i], &adj);
        for (uint32_t k = 0; k < span.size; ++k) {
          auto it2 = dense.index.find(span.ids[k]);
          if (it2 == dense.index.end()) continue;
          next[it2->second] += share;
        }
      }
    }
    std::swap(result.scores, next);
  }
  return result;
}

WccResult WeaklyConnectedComponents(const GraphView& view, LabelId label,
                                    const std::vector<RelationId>& rels) {
  DenseIndex dense(view, label);
  size_t n = dense.vertices.size();
  WccResult result;
  result.vertices = dense.vertices;
  result.component.assign(n, kInvalidVertex);

  AdjScratch adj;
  for (size_t start = 0; start < n; ++start) {
    if (result.component[start] != kInvalidVertex) continue;
    // BFS labeling with the minimum VertexId of the component; the start
    // has the smallest index not yet visited, but not necessarily the
    // smallest id — track the minimum as we go, then relabel.
    std::vector<uint32_t> members;
    VertexId min_id = dense.vertices[start];
    std::deque<uint32_t> queue{static_cast<uint32_t>(start)};
    result.component[start] = 0;  // temporary "visited" mark
    while (!queue.empty()) {
      uint32_t u = queue.front();
      queue.pop_front();
      members.push_back(u);
      min_id = std::min(min_id, dense.vertices[u]);
      for (RelationId rel : rels) {
        AdjSpan span = view.Neighbors(rel, dense.vertices[u], &adj);
        for (uint32_t k = 0; k < span.size; ++k) {
          auto it = dense.index.find(span.ids[k]);
          if (it == dense.index.end()) continue;
          if (result.component[it->second] != kInvalidVertex) continue;
          result.component[it->second] = 0;
          queue.push_back(it->second);
        }
      }
    }
    for (uint32_t u : members) result.component[u] = min_id;
    ++result.num_components;
  }
  return result;
}

uint64_t CountTriangles(const GraphView& view, LabelId label,
                        RelationId symmetric_rel) {
  DenseIndex dense(view, label);
  size_t n = dense.vertices.size();
  // Sorted neighbor lists restricted to higher-indexed vertices ("forward"
  // edges); intersect forward lists of edge endpoints.
  std::vector<std::vector<uint32_t>> fwd(n);
  AdjScratch adj;
  for (size_t i = 0; i < n; ++i) {
    AdjSpan span = view.Neighbors(symmetric_rel, dense.vertices[i], &adj);
    for (uint32_t k = 0; k < span.size; ++k) {
      auto it = dense.index.find(span.ids[k]);
      if (it == dense.index.end()) continue;
      if (it->second > i) fwd[i].push_back(it->second);
    }
    std::sort(fwd[i].begin(), fwd[i].end());
    fwd[i].erase(std::unique(fwd[i].begin(), fwd[i].end()), fwd[i].end());
  }
  uint64_t triangles = 0;
  for (size_t u = 0; u < n; ++u) {
    for (uint32_t v : fwd[u]) {
      // |fwd[u] ∩ fwd[v]| triangles through edge (u, v).
      const auto& a = fwd[u];
      const auto& b = fwd[v];
      size_t i = 0, j = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
          ++i;
        } else if (a[i] > b[j]) {
          ++j;
        } else {
          ++triangles;
          ++i;
          ++j;
        }
      }
    }
  }
  return triangles;
}

namespace {

// Number of common ids of two sorted lists starting
// at positions a/b, restricted to members of `index` — a two-list leapfrog
// with galloping cursors. Duplicates (parallel edges) count once.
uint64_t IntersectCount(const AdjSpan& su, uint32_t a, const AdjSpan& sv,
                        uint32_t b,
                        const std::unordered_map<VertexId, uint32_t>& index,
                        IntersectOpStats* stats) {
  uint64_t count = 0;
  while (a < su.size && b < sv.size) {
    VertexId wa = su.ids[a];
    VertexId wb = sv.ids[b];
    if (wa < wb) {
      a = GallopLowerBound(su.ids, su.size, a + 1, wb, stats);
    } else if (wb < wa) {
      b = GallopLowerBound(sv.ids, sv.size, b + 1, wa, stats);
    } else {
      if (index.count(wa) != 0) {
        ++count;
        if (stats != nullptr) ++stats->emitted;
      }
      do {
        ++a;
      } while (a < su.size && su.ids[a] == wa);
      do {
        ++b;
      } while (b < sv.size && sv.ids[b] == wa);
    }
  }
  return count;
}

}  // namespace

uint64_t CountTrianglesIntersect(const GraphView& view, LabelId label,
                                 RelationId symmetric_rel,
                                 IntersectOpStats* stats) {
  DenseIndex dense(view, label);
  // Distinct decode scratches: `su` stays live across the inner `sv`
  // fetches.
  AdjScratch adj_u, adj_v;
  uint64_t triangles = 0;
  for (VertexId u : dense.vertices) {
    AdjSpan su = view.Neighbors(symmetric_rel, u, &adj_u);
    for (uint32_t i = 0; i < su.size; ++i) {
      VertexId v = su.ids[i];
      if (v <= u) continue;
      if (i > 0 && su.ids[i - 1] == v) continue;  // parallel edge
      if (dense.index.count(v) == 0) continue;
      if (stats != nullptr) ++stats->probes;
      AdjSpan sv = view.Neighbors(symmetric_rel, v, &adj_v);
      // Common neighbors w > v close a triangle u < v < w exactly once.
      uint32_t a = GallopLowerBound(su.ids, su.size, i + 1, v + 1, stats);
      uint32_t b = GallopLowerBound(sv.ids, sv.size, 0, v + 1, stats);
      triangles += IntersectCount(su, a, sv, b, dense.index, stats);
    }
  }
  return triangles;
}

uint64_t CountDiamonds(const GraphView& view, LabelId label,
                       RelationId symmetric_rel, IntersectOpStats* stats) {
  DenseIndex dense(view, label);
  AdjScratch adj_u, adj_v;
  uint64_t diamonds = 0;
  for (VertexId u : dense.vertices) {
    AdjSpan su = view.Neighbors(symmetric_rel, u, &adj_u);
    for (uint32_t i = 0; i < su.size; ++i) {
      VertexId v = su.ids[i];
      if (v <= u) continue;  // each edge once
      if (i > 0 && su.ids[i - 1] == v) continue;
      if (dense.index.count(v) == 0) continue;
      if (stats != nullptr) ++stats->probes;
      AdjSpan sv = view.Neighbors(symmetric_rel, v, &adj_v);
      // Every unordered pair of common neighbors spans a diamond whose
      // chord is (u, v).
      uint64_t c = IntersectCount(su, 0, sv, 0, dense.index, stats);
      diamonds += c * (c - 1) / 2;
    }
  }
  return diamonds;
}

uint64_t CountFourCycles(const GraphView& view, LabelId label,
                         RelationId symmetric_rel) {
  DenseIndex dense(view, label);
  size_t n = dense.vertices.size();
  // codeg[{a, b}] = number of common neighbors of the dense pair a < b;
  // each 4-cycle is counted once per opposite pair (exactly two of them).
  std::unordered_map<uint64_t, uint32_t> codeg;
  std::vector<uint32_t> nbrs;
  AdjScratch adj;
  for (size_t i = 0; i < n; ++i) {
    AdjSpan span = view.Neighbors(symmetric_rel, dense.vertices[i], &adj);
    nbrs.clear();
    for (uint32_t k = 0; k < span.size; ++k) {
      auto it = dense.index.find(span.ids[k]);
      if (it != dense.index.end()) nbrs.push_back(it->second);
    }
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    for (size_t a = 0; a < nbrs.size(); ++a) {
      for (size_t b = a + 1; b < nbrs.size(); ++b) {
        ++codeg[(uint64_t{nbrs[a]} << 32) | nbrs[b]];
      }
    }
  }
  uint64_t twice = 0;
  for (const auto& [key, c] : codeg) {
    (void)key;
    twice += uint64_t{c} * (c - 1) / 2;
  }
  return twice / 2;
}

std::unordered_map<VertexId, int> BfsDistances(
    const GraphView& view, const std::vector<RelationId>& rels,
    VertexId source, int max_depth) {
  std::unordered_map<VertexId, int> dist;
  dist[source] = 0;
  std::deque<VertexId> queue{source};
  AdjScratch adj;
  while (!queue.empty()) {
    VertexId u = queue.front();
    queue.pop_front();
    int d = dist[u];
    if (max_depth >= 0 && d >= max_depth) continue;
    for (RelationId rel : rels) {
      AdjSpan span = view.Neighbors(rel, u, &adj);
      for (uint32_t k = 0; k < span.size; ++k) {
        VertexId w = span.ids[k];
        if (dist.count(w) != 0) continue;
        dist[w] = d + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

std::vector<uint64_t> DegreeHistogram(const GraphView& view, LabelId label,
                                      RelationId rel) {
  std::vector<VertexId> vertices;
  view.ScanLabel(label, &vertices);
  std::vector<uint64_t> histogram;
  for (VertexId v : vertices) {
    const uint32_t degree = view.Degree(rel, v);
    if (histogram.size() <= degree) histogram.resize(degree + 1, 0);
    ++histogram[degree];
  }
  return histogram;
}

}  // namespace ges

#include "storage/graph_stats.h"

#include <cstring>
#include <unordered_set>

#include "storage/graph.h"

namespace ges {

namespace {

// Sampling caps keep a rebuild pass cheap enough for the reaper thread:
// cost is O(relations * cap + columns * cap), independent of graph size.
constexpr size_t kMaxSampledVerticesPerRelation = 65536;
constexpr size_t kMaxSampledRowsPerColumn = 65536;

uint64_t DoubleBits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

// Crude two-regime NDV estimator over a strided sample: when most sampled
// values repeat, the domain is small and the sample has likely seen all of
// it; when most are unique, distincts grow linearly with the population.
uint64_t EstimateNdv(uint64_t distinct, uint64_t sampled, uint64_t total) {
  if (sampled == 0) return 0;
  if (sampled >= total || distinct * 2 <= sampled) return distinct;
  return distinct * total / sampled;
}

void SampleColumn(const ValueVector& col, PropertyStats* out) {
  size_t n = col.size();
  out->count = n;
  if (n == 0) return;
  size_t stride = n > kMaxSampledRowsPerColumn
                      ? (n + kMaxSampledRowsPerColumn - 1) /
                            kMaxSampledRowsPerColumn
                      : 1;
  std::unordered_set<uint64_t> distinct;
  uint64_t sampled = 0;
  double mn = 0, mx = 0;
  bool numeric = col.type() != ValueType::kString;
  bool first = true;
  for (size_t i = 0; i < n; i += stride) {
    ++sampled;
    if (col.type() == ValueType::kString) {
      distinct.insert(col.dict_encoded()
                          ? uint64_t{col.GetCode(i)}
                          : std::hash<std::string>{}(col.GetString(i)));
      continue;
    }
    double v = col.type() == ValueType::kDouble
                   ? col.GetDouble(i)
                   : static_cast<double>(col.GetInt(i));
    distinct.insert(col.type() == ValueType::kDouble
                        ? DoubleBits(v)
                        : static_cast<uint64_t>(col.GetInt(i)));
    if (first) {
      mn = mx = v;
      first = false;
    } else {
      if (v < mn) mn = v;
      if (v > mx) mx = v;
    }
  }
  out->ndv = EstimateNdv(distinct.size(), sampled, n);
  if (numeric && !first) {
    out->has_range = true;
    out->min = mn;
    out->max = mx;
  }
}

}  // namespace

bool Graph::RebuildStats() {
  std::shared_ptr<const GraphStats> prev = catalog_.stats();
  SnapshotHandle pin = PinSnapshot();  // keep version chains resolvable
  Version at = pin.version();
  // A compaction swap changes the sampled degree distributions without
  // advancing the version; its dirty flag forces a re-sample that the
  // built_at short-circuit would otherwise skip.
  const bool dirty = stats_dirty_.exchange(false, std::memory_order_acq_rel);
  if (!dirty && prev != nullptr && prev->built_at == at) return false;

  auto stats = std::make_shared<GraphStats>();
  stats->built_at = at;

  // Vertex counts per label.
  stats->label_vertices.resize(catalog_.num_vertex_labels(), 0);
  for (size_t l = 0; l < catalog_.num_vertex_labels(); ++l) {
    stats->label_vertices[l] =
        NumVertices(static_cast<LabelId>(l), at);
  }

  // Mean degree per adjacency table, sampled over the source label's
  // vertices (stride keeps the pass bounded on large labels).
  stats->degrees.resize(NumRelations());
  std::vector<VertexId> verts;
  for (size_t r = 0; r < NumRelations(); ++r) {
    RelationId rel = static_cast<RelationId>(r);
    DegreeHistogram& h = stats->degrees[r];
    h.base_avg_degree = AvgDegree(rel);
    verts.clear();
    ScanLabel(RelationKeyOf(rel).src_label, at, &verts);
    if (verts.empty()) continue;
    size_t stride = verts.size() > kMaxSampledVerticesPerRelation
                        ? (verts.size() + kMaxSampledVerticesPerRelation - 1) /
                              kMaxSampledVerticesPerRelation
                        : 1;
    for (size_t i = 0; i < verts.size(); i += stride) {
      uint32_t d = Degree(rel, verts[i], at);
      if (d == 0) continue;
      ++h.sampled_sources;
      h.sampled_edges += d;
    }
  }

  // Property NDV / min-max from the base columns (the overlay delta is
  // deliberately ignored, as with adjacency metadata).
  for (size_t l = 0; l < catalog_.num_vertex_labels(); ++l) {
    LabelId label = static_cast<LabelId>(l);
    for (const auto& [prop, type] : catalog_.LabelProperties(label)) {
      const ValueVector* col = BasePropertyColumn(label, prop);
      if (col == nullptr) continue;
      PropertyStats ps;
      SampleColumn(*col, &ps);
      stats->properties[GraphStats::PropKey(label, prop)] = ps;
    }
  }

  catalog_.InstallStats(std::move(stats));
  return true;
}

}  // namespace ges

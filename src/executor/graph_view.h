// A read snapshot of the graph handed to executors (unified storage access
// interface in Figure 1).
#ifndef GES_EXECUTOR_GRAPH_VIEW_H_
#define GES_EXECUTOR_GRAPH_VIEW_H_

#include <vector>

#include "common/types.h"
#include "common/value.h"
#include "storage/graph.h"
#include "storage/intersect.h"

namespace ges {

class GraphView {
 public:
  GraphView(const Graph* graph, Version version)
      : graph_(graph), version_(version) {}
  // Snapshot at the current version.
  explicit GraphView(const Graph* graph)
      : GraphView(graph, graph->CurrentVersion()) {}

  const Graph& graph() const { return *graph_; }
  Version version() const { return version_; }

  // `scratch` backs decoding when the relation is compacted (DESIGN.md
  // §16); the returned span is valid until the scratch is reused. Call
  // sites holding one span at a time reuse one scratch.
  AdjSpan Neighbors(RelationId rel, VertexId v,
                    AdjScratch* scratch = nullptr) const {
    return graph_->Neighbors(rel, v, version_, scratch);
  }
  uint32_t Degree(RelationId rel, VertexId v) const {
    return graph_->Degree(rel, v, version_);
  }
  Value Property(VertexId v, PropertyId p) const {
    return graph_->GetProperty(v, p, version_);
  }
  // Batched gather: appends `p` of ids[0..n) to `out`, zero placeholders
  // for rows deselected by the byte mask `sel` (may be null). Resolves the
  // MVCC snapshot once per batch; see Graph::GatherProperties.
  void GatherProperties(const VertexId* ids, size_t n, const uint8_t* sel,
                        PropertyId p, ValueVector* out) const {
    graph_->GatherProperties(ids, n, sel, p, version_, out);
  }
  LabelId LabelOf(VertexId v) const { return graph_->LabelOf(v, version_); }
  VertexId FindByExtId(LabelId label, int64_t ext_id) const {
    return graph_->FindByExtId(label, ext_id, version_);
  }
  void ScanLabel(LabelId label, std::vector<VertexId>* out) const {
    graph_->ScanLabel(label, version_, out);
  }

  // True if an edge v -> w exists in any of `rels`. Galloping search over
  // the sorted neighbor list; `stats` may be null. The probe consumes each
  // span before fetching the next, so one scratch serves all rels.
  bool HasEdge(const std::vector<RelationId>& rels, VertexId v, VertexId w,
               IntersectOpStats* stats = nullptr,
               AdjScratch* scratch = nullptr) const {
    for (RelationId rel : rels) {
      if (SpanContains(Neighbors(rel, v, scratch), w, stats)) return true;
    }
    return false;
  }

 private:
  const Graph* graph_;
  Version version_;
};

}  // namespace ges

#endif  // GES_EXECUTOR_GRAPH_VIEW_H_

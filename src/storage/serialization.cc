#include "storage/serialization.h"

#include <algorithm>
#include <fstream>

#include "common/crc32c.h"
#include "common/wire.h"

namespace ges {

namespace {

constexpr std::string_view kMagic = "GESSNAP4";
constexpr std::string_view kMagicFamily = "GESSNAP";

// String-value subtags.
constexpr uint8_t kStrInline = 0;  // u64 length + bytes follow
constexpr uint8_t kStrCode = 1;    // u32 dictionary code follows

using PropList = std::vector<std::pair<PropertyId, ValueType>>;

struct RelSpec {
  LabelId src, edge, dst;
  bool has_stamp;
};

// Snapshot strings (names, dictionary entries, inline values) carry a u64
// length where the wire's carry a u32.
void PutString64(WireBuf* out, std::string_view s) {
  out->PutU64(s.size());
  out->PutBytes(s);
}

std::string GetString64(WireReader* in) {
  return std::string(in->GetBytes(in->GetU64()));
}

// A string value is a dictionary code when the graph dictionary holds it;
// every other type is the shared tagged Value.
void PutSnapshotValue(WireBuf* out, const Value& v, const StringDict& dict) {
  if (v.type() != ValueType::kString) return PutValue(out, v);
  out->PutU8(static_cast<uint8_t>(ValueType::kString));
  uint32_t code = dict.Find(v.AsString());
  if (code != StringDict::kInvalidCode) {
    out->PutU8(kStrCode);
    out->PutU32(code);
  } else {  // overlay value never interned: inline
    out->PutU8(kStrInline);
    PutString64(out, v.AsString());
  }
}

Value GetSnapshotValue(WireReader* in, const std::vector<std::string>& dict) {
  WireReader after_tag = *in;  // peek the tag; GetValue re-reads it
  if (static_cast<ValueType>(after_tag.GetU8()) != ValueType::kString) {
    return GetValue(in);
  }
  *in = after_tag;
  switch (in->GetU8()) {
    case kStrCode: {
      uint32_t code = in->GetU32();
      if (code < dict.size()) return Value::String(dict[code]);
      break;
    }
    case kStrInline:
      return Value::String(GetString64(in));
  }
  in->MarkBad();
  return Value::Null();
}

// Bounds an element count read from a section by the bytes left in it,
// given the fewest bytes one element occupies, so a corrupt count fails
// here instead of driving a huge allocation or loop.
Status CheckCount(const WireReader& in, uint64_t n, size_t min_bytes,
                  const char* what) {
  if (!in.ok()) return Status::Error(std::string("truncated ") + what);
  if (n > in.remaining() / min_bytes) {
    return Status::Error(std::string(what) + " count " + std::to_string(n) +
                         " exceeds the " + std::to_string(in.remaining()) +
                         " bytes left");
  }
  return Status::OK();
}

// --- section writers ---

void WriteDictSection(WireBuf* out, const StringDict& dict) {
  out->PutU64(dict.size());
  for (uint32_t c = 0; c < dict.size(); ++c) PutString64(out, dict.Get(c));
}

void WriteCatalogSection(WireBuf* out, const Catalog& catalog) {
  out->PutU64(catalog.num_vertex_labels());
  for (size_t l = 0; l < catalog.num_vertex_labels(); ++l) {
    PutString64(out, catalog.VertexLabelName(static_cast<LabelId>(l)));
    const auto& props = catalog.LabelProperties(static_cast<LabelId>(l));
    out->PutU64(props.size());
    for (const auto& [prop, type] : props) {
      PutString64(out, catalog.PropertyName(prop));
      out->PutU8(static_cast<uint8_t>(type));
    }
  }
  out->PutU64(catalog.num_edge_labels());
  for (size_t l = 0; l < catalog.num_edge_labels(); ++l) {
    PutString64(out, catalog.EdgeLabelName(static_cast<LabelId>(l)));
  }
}

void WriteRelationsSection(WireBuf* out,
                           const std::vector<Graph::RelationInfo>& rels) {
  out->PutU64(rels.size());
  for (const Graph::RelationInfo& r : rels) {
    out->PutU64(r.key.src_label);
    out->PutU64(r.key.edge_label);
    out->PutU64(r.key.dst_label);
    out->PutU8(r.has_stamp ? 1 : 0);
  }
}

void WriteVertexSection(WireBuf* out, const Graph& graph, LabelId label,
                        Version snap) {
  const auto& props = graph.catalog().LabelProperties(label);
  std::vector<VertexId> vertices;
  graph.ScanLabel(label, snap, &vertices);
  out->PutU64(vertices.size());
  for (VertexId v : vertices) {
    out->PutI64(graph.ExtIdOf(v, snap));
    for (const auto& [prop, type] : props) {
      PutSnapshotValue(out, graph.GetProperty(v, prop, snap),
                       graph.string_dict());
    }
  }
}

// Edge section: edges grouped by source, destinations sorted by external
// id and delta+varint compressed (zigzag first, non-negative gaps). Stamps
// ride along in destination order with the same null suppression as the
// in-memory varint level: one mode byte per source, 0 when every stamp is
// zero.
//
//   varint num_sources
//   per source:
//     zigzag src_ext | varint degree |
//     zigzag dst_ext[0], varint dst_ext[i]-dst_ext[i-1] ... |
//     [has_stamp: mode | mode==1: zigzag s[0], zigzag s[i]-s[i-1] ...]
void WriteEdgeSection(WireBuf* out, const Graph& graph,
                      const Graph::RelationInfo& r, Version snap) {
  RelationId rel = graph.FindRelation(r.key.src_label, r.key.edge_label,
                                      r.key.dst_label, Direction::kOut);
  std::vector<VertexId> sources;
  AdjScratch adj;
  graph.ScanLabel(r.key.src_label, snap, &sources);
  uint64_t num_sources = 0;
  for (VertexId v : sources) {
    if (graph.Degree(rel, v, snap) > 0) ++num_sources;
  }
  out->PutVarint(num_sources);
  std::vector<std::pair<int64_t, int64_t>> dsts;  // (dst_ext, stamp)
  for (VertexId v : sources) {
    AdjSpan span = graph.Neighbors(rel, v, snap, &adj);
    dsts.clear();
    for (uint32_t i = 0; i < span.size; ++i) {
      dsts.emplace_back(graph.ExtIdOf(span.ids[i], snap),
                        span.stamps == nullptr ? 0 : span.stamps[i]);
    }
    if (dsts.empty()) continue;
    std::sort(dsts.begin(), dsts.end());
    out->PutZigZag(graph.ExtIdOf(v, snap));
    out->PutVarint(dsts.size());
    out->PutZigZag(dsts[0].first);
    for (size_t i = 1; i < dsts.size(); ++i) {
      out->PutVarint(static_cast<uint64_t>(dsts[i].first - dsts[i - 1].first));
    }
    if (r.has_stamp) {
      bool all_zero = std::all_of(dsts.begin(), dsts.end(),
                                  [](const auto& d) { return d.second == 0; });
      out->PutU8(all_zero ? 0 : 1);
      if (!all_zero) {
        out->PutZigZag(dsts[0].second);
        for (size_t i = 1; i < dsts.size(); ++i) {
          out->PutZigZag(dsts[i].second - dsts[i - 1].second);
        }
      }
    }
  }
}

// Segments manifest: the relations compacted (holding a varint level) at
// save time, identified by their catalog keys.
void WriteSegmentsManifest(WireBuf* out, const Graph& graph,
                           const std::vector<Graph::RelationInfo>& rels) {
  std::vector<const Graph::RelationInfo*> compacted;
  for (const Graph::RelationInfo& r : rels) {
    RelationId rel = graph.FindRelation(r.key.src_label, r.key.edge_label,
                                        r.key.dst_label, Direction::kOut);
    if (rel != kInvalidRelation && graph.RelationCompacted(rel)) {
      compacted.push_back(&r);
    }
  }
  out->PutU64(compacted.size());
  for (const Graph::RelationInfo* r : compacted) {
    out->PutU64(r->key.src_label);
    out->PutU64(r->key.edge_label);
    out->PutU64(r->key.dst_label);
  }
}

// --- section parsers. Each reads one CRC-verified section; a reader left
// poisoned or with bytes over is reported by the caller. ---

Status ParseDictSection(WireReader* in, std::vector<std::string>* out) {
  uint64_t n = in->GetU64();
  GES_RETURN_IF_ERROR(CheckCount(*in, n, 8, "dictionary"));
  out->reserve(n);
  for (uint64_t i = 0; i < n && in->ok(); ++i) out->push_back(GetString64(in));
  return Status::OK();
}

Status ParseCatalogSection(WireReader* in, Graph* graph,
                           std::vector<PropList>* label_props) {
  Catalog& catalog = graph->catalog();
  uint64_t num_vlabels = in->GetU64();
  GES_RETURN_IF_ERROR(CheckCount(*in, num_vlabels, 16, "vertex label"));
  label_props->resize(num_vlabels);
  for (uint64_t l = 0; l < num_vlabels && in->ok(); ++l) {
    LabelId label = catalog.AddVertexLabel(GetString64(in));
    if (label != l) return Status::Error("duplicate vertex label");
    uint64_t num_props = in->GetU64();
    GES_RETURN_IF_ERROR(CheckCount(*in, num_props, 9, "property"));
    for (uint64_t p = 0; p < num_props && in->ok(); ++p) {
      std::string name = GetString64(in);
      uint8_t tag = in->GetU8();
      if (tag > static_cast<uint8_t>(ValueType::kVertex)) {
        return Status::Error("invalid property type " + std::to_string(tag));
      }
      ValueType type = static_cast<ValueType>(tag);
      (*label_props)[l].emplace_back(catalog.AddProperty(label, name, type),
                                     type);
    }
  }
  uint64_t num_elabels = in->GetU64();
  GES_RETURN_IF_ERROR(CheckCount(*in, num_elabels, 8, "edge label"));
  for (uint64_t l = 0; l < num_elabels && in->ok(); ++l) {
    catalog.AddEdgeLabel(GetString64(in));
  }
  return Status::OK();
}

Status ParseRelationsSection(WireReader* in, Graph* graph,
                             std::vector<RelSpec>* rels) {
  const Catalog& catalog = graph->catalog();
  uint64_t num_rels = in->GetU64();
  GES_RETURN_IF_ERROR(CheckCount(*in, num_rels, 25, "relation"));
  for (uint64_t r = 0; r < num_rels && in->ok(); ++r) {
    uint64_t src = in->GetU64();
    uint64_t edge = in->GetU64();
    uint64_t dst = in->GetU64();
    bool has_stamp = in->GetU8() != 0;
    if (src >= catalog.num_vertex_labels() ||
        dst >= catalog.num_vertex_labels() ||
        edge >= catalog.num_edge_labels()) {
      return Status::Error("relation references an unknown label");
    }
    RelSpec spec{static_cast<LabelId>(src), static_cast<LabelId>(edge),
                 static_cast<LabelId>(dst), has_stamp};
    graph->RegisterRelation(spec.src, spec.edge, spec.dst, spec.has_stamp);
    rels->push_back(spec);
  }
  return Status::OK();
}

Status ParseVertexSection(WireReader* in, Graph* graph, LabelId label,
                          const PropList& props,
                          const std::vector<std::string>& dict) {
  uint64_t count = in->GetU64();
  // Each vertex: an i64 ext id and at least a tag byte per property.
  GES_RETURN_IF_ERROR(CheckCount(*in, count, 8 + props.size(), "vertex"));
  for (uint64_t i = 0; i < count && in->ok(); ++i) {
    VertexId v = graph->AddVertexBulk(label, in->GetI64());
    for (const auto& [prop, type] : props) {
      Value value = GetSnapshotValue(in, dict);
      if (!value.is_null()) graph->SetPropertyBulk(v, prop, value);
    }
  }
  return Status::OK();
}

// Wrapping adds: a corrupt gap must not be signed overflow.
int64_t WrapAdd(int64_t a, uint64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + b);
}

Status ParseEdgeSection(WireReader* in, Graph* graph, const RelSpec& spec) {
  uint64_t num_sources = in->GetVarint();
  // Each group: at least a source id, a degree and one destination byte.
  GES_RETURN_IF_ERROR(CheckCount(*in, num_sources, 3, "edge group"));
  std::vector<int64_t> dst_exts;
  std::vector<int64_t> stamps;
  for (uint64_t s = 0; s < num_sources; ++s) {
    int64_t src_ext = in->GetZigZag();
    uint64_t degree = in->GetVarint();
    GES_RETURN_IF_ERROR(CheckCount(*in, degree, 1, "edge group degree"));
    if (degree == 0) return Status::Error("empty edge group");
    VertexId src = graph->FindByExtId(spec.src, src_ext, 0);
    if (src == kInvalidVertex) {
      return Status::Error("edge references unknown source vertex");
    }
    dst_exts.resize(degree);
    dst_exts[0] = in->GetZigZag();
    for (uint64_t i = 1; i < degree; ++i) {
      dst_exts[i] = WrapAdd(dst_exts[i - 1], in->GetVarint());
    }
    stamps.assign(degree, 0);
    if (spec.has_stamp) {
      uint8_t mode = in->GetU8();
      if (mode == 1) {
        stamps[0] = in->GetZigZag();
        for (uint64_t i = 1; i < degree; ++i) {
          stamps[i] =
              WrapAdd(stamps[i - 1], static_cast<uint64_t>(in->GetZigZag()));
        }
      } else if (mode != 0) {
        return Status::Error("invalid stamp mode");
      }
    }
    if (!in->ok()) return Status::Error("truncated edge group");
    for (uint64_t i = 0; i < degree; ++i) {
      VertexId dst = graph->FindByExtId(spec.dst, dst_exts[i], 0);
      if (dst == kInvalidVertex) {
        return Status::Error("edge references unknown vertex");
      }
      graph->AddEdgeBulk(spec.edge, src, dst, stamps[i]);
    }
  }
  return Status::OK();
}

Status ParseSegmentsManifest(WireReader* in, std::vector<RelationKey>* keys) {
  uint64_t count = in->GetU64();
  GES_RETURN_IF_ERROR(CheckCount(*in, count, 24, "manifest"));
  for (uint64_t i = 0; i < count && in->ok(); ++i) {
    uint64_t src = in->GetU64();
    uint64_t edge = in->GetU64();
    uint64_t dst = in->GetU64();
    keys->push_back(RelationKey{static_cast<LabelId>(src),
                                static_cast<LabelId>(edge),
                                static_cast<LabelId>(dst), Direction::kOut});
  }
  return Status::OK();
}

Status SectionError(const std::string& name, const std::string& what) {
  return Status::Error("snapshot section '" + name + "' " + what);
}

std::string EdgeSectionName(const Catalog& catalog, const RelSpec& spec) {
  return std::string("edges[") + catalog.VertexLabelName(spec.src) + "-" +
         catalog.EdgeLabelName(spec.edge) + "->" +
         catalog.VertexLabelName(spec.dst) + "]";
}

}  // namespace

Status SaveGraph(const Graph& graph, std::string* out) {
  if (!graph.finalized()) {
    return Status::InvalidArgument("graph must be finalized before saving");
  }
  const Catalog& catalog = graph.catalog();
  Version snap = graph.CurrentVersion();
  std::vector<Graph::RelationInfo> rels = graph.Relations();

  out->append(kMagic);
  auto section = [out](auto&& fill) {
    WireBuf body;
    fill(&body);
    WireBuf frame;
    frame.PutU64(body.data().size());
    frame.PutU32(Crc32c(body.data()));
    out->append(frame.data());
    out->append(body.data());
  };
  // Header: the snapshot version, restored on load so recovery can skip
  // WAL transactions already folded into this snapshot.
  section([&](WireBuf* s) { s->PutU64(snap); });
  section([&](WireBuf* s) { WriteDictSection(s, graph.string_dict()); });
  section([&](WireBuf* s) { WriteCatalogSection(s, catalog); });
  section([&](WireBuf* s) { WriteRelationsSection(s, rels); });
  for (size_t l = 0; l < catalog.num_vertex_labels(); ++l) {
    section([&](WireBuf* s) {
      WriteVertexSection(s, graph, static_cast<LabelId>(l), snap);
    });
  }
  for (const Graph::RelationInfo& r : rels) {
    section([&](WireBuf* s) { WriteEdgeSection(s, graph, r, snap); });
  }
  section([&](WireBuf* s) { WriteSegmentsManifest(s, graph, rels); });
  return Status::OK();
}

Status LoadGraph(std::string_view image, Graph* graph) {
  std::string_view magic = image.substr(0, kMagic.size());
  if (magic.size() < kMagic.size() ||
      magic.substr(0, kMagicFamily.size()) != kMagicFamily) {
    return Status::InvalidArgument("not a GES snapshot (bad magic)");
  }
  if (magic != kMagic) {
    return Status::InvalidArgument("unsupported snapshot format " +
                                   std::string(magic) + " (only " +
                                   std::string(kMagic) + " loads)");
  }
  WireReader in(image.substr(kMagic.size()));

  // Every section is bounds-checked, CRC-verified, then parsed in place;
  // any framing or parse failure names the section instead of loading
  // partial data.
  auto section = [&in](const std::string& name, auto&& parse) -> Status {
    uint64_t len = in.GetU64();
    uint32_t crc = in.GetU32();
    if (!in.ok()) return SectionError(name, "truncated (missing frame header)");
    if (len > in.remaining()) {
      return SectionError(name, "truncated (frame claims " +
                                    std::to_string(len) + " bytes, " +
                                    std::to_string(in.remaining()) + " left)");
    }
    std::string_view bytes = in.GetBytes(len);
    if (Crc32c(bytes) != crc) {
      return SectionError(name, "corrupt (CRC32C mismatch)");
    }
    WireReader body(bytes);
    Status s = parse(&body);
    if (s.ok() && !body.ok()) s = Status::Error("truncated");
    if (s.ok() && !body.AtEnd()) s = Status::Error("trailing bytes");
    if (!s.ok()) return SectionError(name, "invalid: " + s.message());
    return Status::OK();
  };

  uint64_t snapshot_version = 0;
  std::vector<std::string> dict;
  std::vector<PropList> label_props;
  std::vector<RelSpec> rels;
  std::vector<RelationKey> segment_keys;
  GES_RETURN_IF_ERROR(section("header", [&](WireReader* s) {
    snapshot_version = s->GetU64();
    return Status::OK();
  }));
  GES_RETURN_IF_ERROR(section(
      "dict", [&](WireReader* s) { return ParseDictSection(s, &dict); }));
  GES_RETURN_IF_ERROR(section("catalog", [&](WireReader* s) {
    return ParseCatalogSection(s, graph, &label_props);
  }));
  GES_RETURN_IF_ERROR(section("relations", [&](WireReader* s) {
    return ParseRelationsSection(s, graph, &rels);
  }));
  const Catalog& catalog = graph->catalog();
  for (uint64_t l = 0; l < label_props.size(); ++l) {
    LabelId label = static_cast<LabelId>(l);
    std::string name =
        std::string("vertices[") + catalog.VertexLabelName(label) + "]";
    GES_RETURN_IF_ERROR(section(name, [&](WireReader* s) {
      return ParseVertexSection(s, graph, label, label_props[l], dict);
    }));
  }
  for (const RelSpec& spec : rels) {
    GES_RETURN_IF_ERROR(
        section(EdgeSectionName(catalog, spec), [&](WireReader* s) {
          return ParseEdgeSection(s, graph, spec);
        }));
  }
  GES_RETURN_IF_ERROR(section("segments", [&](WireReader* s) {
    return ParseSegmentsManifest(s, &segment_keys);
  }));
  if (!in.AtEnd()) {
    return Status::Error("snapshot has " + std::to_string(in.remaining()) +
                         " trailing bytes after its last section");
  }

  graph->FinalizeBulk();
  graph->RestoreVersionForRecovery(snapshot_version);
  if (!segment_keys.empty()) {
    // Re-compact the relations the snapshot had compacted.
    // Internal vertex ids are not stable across a save/load cycle, so the
    // blobs are re-encoded by a forced compaction pass over exactly the
    // manifested relations; the parked pre-swap storage is freed
    // immediately (no reader can exist during load).
    CompactionOptions copts;
    copts.force = true;
    for (const RelationKey& key : segment_keys) {
      RelationId rel = graph->FindRelation(key.src_label, key.edge_label,
                                           key.dst_label, Direction::kOut);
      if (rel != kInvalidRelation) copts.only.push_back(rel);
    }
    if (!copts.only.empty()) {
      graph->CompactRelations(copts);
      graph->ForceReclaimRetiredForRecovery();
    }
  }
  return Status::OK();
}

Status LoadGraphFile(const std::string& path, Graph* graph) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string image(static_cast<size_t>(in.tellg()), '\0');
  in.seekg(0);
  if (!in.read(image.data(), static_cast<std::streamsize>(image.size()))) {
    return Status::Error("read failure: " + path);
  }
  return LoadGraph(image, graph);
}

}  // namespace ges

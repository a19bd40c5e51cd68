#include "storage/serialization.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/crc32c.h"

namespace ges {

namespace {

constexpr char kMagicV1[8] = {'G', 'E', 'S', 'S', 'N', 'A', 'P', '1'};
constexpr char kMagicV2[8] = {'G', 'E', 'S', 'S', 'N', 'A', 'P', '2'};
constexpr char kMagicV3[8] = {'G', 'E', 'S', 'S', 'N', 'A', 'P', '3'};
constexpr char kMagicV4[8] = {'G', 'E', 'S', 'S', 'N', 'A', 'P', '4'};

// V2/V3 string-value subtags.
constexpr uint8_t kStrInline = 0;  // length + bytes follow
constexpr uint8_t kStrCode = 1;    // uint32 dictionary code follows

// --- little-endian primitives ---

void WriteU64(std::ostream& out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out.write(buf, 8);
}

bool ReadU64(std::istream& in, uint64_t* v) {
  char buf[8];
  if (!in.read(buf, 8)) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<unsigned char>(buf[i]))
          << (8 * i);
  }
  return true;
}

void WriteI64(std::ostream& out, int64_t v) {
  WriteU64(out, static_cast<uint64_t>(v));
}

bool ReadI64(std::istream& in, int64_t* v) {
  uint64_t u;
  if (!ReadU64(in, &u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

void WriteU32(std::ostream& out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out.write(buf, 4);
}

bool ReadU32(std::istream& in, uint32_t* v) {
  char buf[4];
  if (!in.read(buf, 4)) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<unsigned char>(buf[i]))
          << (8 * i);
  }
  return true;
}

// LEB128 varints + zigzag, used by the V4 delta-compressed edge sections
// (the same codec the in-memory compressed segments use).
void WriteVarint(std::ostream& out, uint64_t v) {
  while (v >= 0x80) {
    out.put(static_cast<char>(static_cast<uint8_t>(v) | 0x80));
    v >>= 7;
  }
  out.put(static_cast<char>(v));
}

bool ReadVarint(std::istream& in, uint64_t* v) {
  *v = 0;
  int shift = 0;
  while (true) {
    int c = in.get();
    if (c < 0 || shift > 63) return false;
    *v |= static_cast<uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) return true;
    shift += 7;
  }
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void WriteString(std::ostream& out, const std::string& s) {
  WriteU64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool ReadString(std::istream& in, std::string* s) {
  uint64_t n;
  if (!ReadU64(in, &n)) return false;
  if (n > (1u << 30)) return false;  // sanity bound
  s->resize(n);
  return static_cast<bool>(in.read(s->data(), static_cast<std::streamsize>(n)));
}

// `dict` non-null => V2/V3 encoding: string values carry a subtag and, when
// the string is in the graph dictionary, are written as a uint32 code.
void WriteValue(std::ostream& out, const Value& v, const StringDict* dict) {
  out.put(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kDouble: {
      double d = v.AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      WriteU64(out, bits);
      break;
    }
    case ValueType::kString: {
      const std::string& s = v.AsString();
      if (dict != nullptr) {
        uint32_t code = dict->Find(s);
        if (code != StringDict::kInvalidCode) {
          out.put(static_cast<char>(kStrCode));
          WriteU32(out, code);
        } else {  // overlay value never interned: inline
          out.put(static_cast<char>(kStrInline));
          WriteString(out, s);
        }
      } else {
        WriteString(out, s);
      }
      break;
    }
    default:
      WriteI64(out, v.AsInt());
      break;
  }
}

// `dict` non-null => V2/V3 decoding (the dictionary section already
// loaded).
bool ReadValue(std::istream& in, Value* v,
               const std::vector<std::string>* dict) {
  int tag = in.get();
  if (tag < 0) return false;
  ValueType type = static_cast<ValueType>(tag);
  switch (type) {
    case ValueType::kNull:
      *v = Value::Null();
      return true;
    case ValueType::kBool: {
      int64_t i;
      if (!ReadI64(in, &i)) return false;
      *v = Value::Bool(i != 0);
      return true;
    }
    case ValueType::kInt64: {
      int64_t i;
      if (!ReadI64(in, &i)) return false;
      *v = Value::Int(i);
      return true;
    }
    case ValueType::kDouble: {
      uint64_t bits;
      if (!ReadU64(in, &bits)) return false;
      double d;
      std::memcpy(&d, &bits, 8);
      *v = Value::Double(d);
      return true;
    }
    case ValueType::kString: {
      if (dict != nullptr) {
        int sub = in.get();
        if (sub < 0) return false;
        if (sub == kStrCode) {
          uint32_t code;
          if (!ReadU32(in, &code)) return false;
          if (code >= dict->size()) return false;
          *v = Value::String((*dict)[code]);
          return true;
        }
        if (sub != kStrInline) return false;
      }
      std::string s;
      if (!ReadString(in, &s)) return false;
      *v = Value::String(std::move(s));
      return true;
    }
    case ValueType::kDate: {
      int64_t i;
      if (!ReadI64(in, &i)) return false;
      *v = Value::Date(i);
      return true;
    }
    case ValueType::kVertex: {
      int64_t i;
      if (!ReadI64(in, &i)) return false;
      *v = Value::Vertex(static_cast<VertexId>(i));
      return true;
    }
  }
  return false;
}

// --- section writers, shared across formats. In V1/V2 the sections are
// concatenated directly; in V3 each one is CRC32C-framed. ---

struct RelSpec {
  LabelId src, edge, dst;
  bool has_stamp;
};

void WriteDictSection(std::ostream& out, const StringDict& dict) {
  WriteU64(out, dict.size());
  for (uint32_t c = 0; c < dict.size(); ++c) {
    WriteString(out, dict.Get(c));
  }
}

void WriteCatalogSection(std::ostream& out, const Catalog& catalog) {
  WriteU64(out, catalog.num_vertex_labels());
  for (size_t l = 0; l < catalog.num_vertex_labels(); ++l) {
    WriteString(out, catalog.VertexLabelName(static_cast<LabelId>(l)));
    const auto& props = catalog.LabelProperties(static_cast<LabelId>(l));
    WriteU64(out, props.size());
    for (const auto& [prop, type] : props) {
      WriteString(out, catalog.PropertyName(prop));
      out.put(static_cast<char>(type));
    }
  }
  WriteU64(out, catalog.num_edge_labels());
  for (size_t l = 0; l < catalog.num_edge_labels(); ++l) {
    WriteString(out, catalog.EdgeLabelName(static_cast<LabelId>(l)));
  }
}

void WriteRelationsSection(std::ostream& out,
                           const std::vector<Graph::RelationInfo>& rels) {
  WriteU64(out, rels.size());
  for (const Graph::RelationInfo& r : rels) {
    WriteU64(out, r.key.src_label);
    WriteU64(out, r.key.edge_label);
    WriteU64(out, r.key.dst_label);
    out.put(r.has_stamp ? 1 : 0);
  }
}

void WriteVertexSection(std::ostream& out, const Graph& graph, LabelId label,
                        Version snap, const StringDict* dict) {
  const auto& props = graph.catalog().LabelProperties(label);
  std::vector<VertexId> vertices;
  graph.ScanLabel(label, snap, &vertices);
  WriteU64(out, vertices.size());
  for (VertexId v : vertices) {
    WriteI64(out, graph.ExtIdOf(v, snap));
    for (const auto& [prop, type] : props) {
      WriteValue(out, graph.GetProperty(v, prop, snap), dict);
    }
  }
}

void WriteEdgeSection(std::ostream& out, const Graph& graph,
                      const Graph::RelationInfo& r, Version snap) {
  RelationId rel = graph.FindRelation(r.key.src_label, r.key.edge_label,
                                      r.key.dst_label, Direction::kOut);
  std::vector<VertexId> sources;
  AdjScratch adj;
  graph.ScanLabel(r.key.src_label, snap, &sources);
  uint64_t count = 0;
  for (VertexId v : sources) count += graph.Degree(rel, v, snap);
  WriteU64(out, count);
  for (VertexId v : sources) {
    AdjSpan span = graph.Neighbors(rel, v, snap, &adj);
    int64_t src_ext = graph.ExtIdOf(v, snap);
    for (uint32_t i = 0; i < span.size; ++i) {
      WriteI64(out, src_ext);
      WriteI64(out, graph.ExtIdOf(span.ids[i], snap));
      if (r.has_stamp) {
        WriteI64(out, span.stamps == nullptr ? 0 : span.stamps[i]);
      }
    }
  }
}

// V4 edge section: edges grouped by source, destinations sorted by
// external id and delta+varint compressed (zigzag first, non-negative
// gaps). Stamps ride along in destination order with the same null
// suppression as the in-memory segment codec: one mode byte per source, 0
// when every stamp is zero.
//
//   varint num_sources
//   per source:
//     zigzag src_ext | varint degree |
//     zigzag dst_ext[0], varint dst_ext[i]-dst_ext[i-1] ... |
//     [has_stamp: mode | mode==1: zigzag s[0], zigzag s[i]-s[i-1] ...]
void WriteEdgeSectionV4(std::ostream& out, const Graph& graph,
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
  WriteVarint(out, num_sources);
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
    WriteVarint(out, ZigZag(graph.ExtIdOf(v, snap)));
    WriteVarint(out, dsts.size());
    WriteVarint(out, ZigZag(dsts[0].first));
    for (size_t i = 1; i < dsts.size(); ++i) {
      WriteVarint(out,
                  static_cast<uint64_t>(dsts[i].first - dsts[i - 1].first));
    }
    if (r.has_stamp) {
      bool all_zero = true;
      for (const auto& [d, s] : dsts) {
        if (s != 0) {
          all_zero = false;
          break;
        }
      }
      if (all_zero) {
        out.put(0);
      } else {
        out.put(1);
        WriteVarint(out, ZigZag(dsts[0].second));
        for (size_t i = 1; i < dsts.size(); ++i) {
          WriteVarint(out, ZigZag(dsts[i].second - dsts[i - 1].second));
        }
      }
    }
  }
}

// V4 segments manifest: the relations with a compressed CSR segment
// installed at save time, identified by their catalog keys.
void WriteSegmentsManifest(std::ostream& out, const Graph& graph,
                           const std::vector<Graph::RelationInfo>& rels) {
  std::vector<const Graph::RelationInfo*> compacted;
  for (const Graph::RelationInfo& r : rels) {
    RelationId rel = graph.FindRelation(r.key.src_label, r.key.edge_label,
                                        r.key.dst_label, Direction::kOut);
    if (rel != kInvalidRelation && graph.RelationCompacted(rel)) {
      compacted.push_back(&r);
    }
  }
  WriteU64(out, compacted.size());
  for (const Graph::RelationInfo* r : compacted) {
    WriteU64(out, r->key.src_label);
    WriteU64(out, r->key.edge_label);
    WriteU64(out, r->key.dst_label);
  }
}

// --- section parsers, shared across formats ---

Status ParseDictSection(std::istream& in, std::vector<std::string>* out) {
  uint64_t n;
  if (!ReadU64(in, &n)) return Status::Error("truncated dictionary");
  if (n > (1u << 31)) return Status::Error("dictionary too large");
  out->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!ReadString(in, &(*out)[i])) {
      return Status::Error("truncated dictionary entry");
    }
  }
  return Status::OK();
}

Status ParseCatalogSection(
    std::istream& in, Graph* graph,
    std::vector<std::vector<std::pair<PropertyId, ValueType>>>* label_props) {
  Catalog& catalog = graph->catalog();
  uint64_t num_vlabels;
  if (!ReadU64(in, &num_vlabels)) return Status::Error("truncated header");
  label_props->resize(num_vlabels);
  for (uint64_t l = 0; l < num_vlabels; ++l) {
    std::string name;
    if (!ReadString(in, &name)) return Status::Error("truncated label");
    LabelId label = catalog.AddVertexLabel(name);
    uint64_t num_props;
    if (!ReadU64(in, &num_props)) return Status::Error("truncated props");
    for (uint64_t p = 0; p < num_props; ++p) {
      std::string pname;
      if (!ReadString(in, &pname)) return Status::Error("truncated prop");
      int tag = in.get();
      if (tag < 0) return Status::Error("truncated prop type");
      PropertyId prop =
          catalog.AddProperty(label, pname, static_cast<ValueType>(tag));
      (*label_props)[l].emplace_back(prop, static_cast<ValueType>(tag));
    }
  }
  uint64_t num_elabels;
  if (!ReadU64(in, &num_elabels)) return Status::Error("truncated");
  for (uint64_t l = 0; l < num_elabels; ++l) {
    std::string name;
    if (!ReadString(in, &name)) return Status::Error("truncated edge label");
    catalog.AddEdgeLabel(name);
  }
  return Status::OK();
}

Status ParseRelationsSection(std::istream& in, Graph* graph,
                             std::vector<RelSpec>* rels) {
  uint64_t num_rels;
  if (!ReadU64(in, &num_rels)) return Status::Error("truncated");
  for (uint64_t r = 0; r < num_rels; ++r) {
    uint64_t src, edge, dst;
    if (!ReadU64(in, &src) || !ReadU64(in, &edge) || !ReadU64(in, &dst)) {
      return Status::Error("truncated relation");
    }
    int has_stamp = in.get();
    if (has_stamp < 0) return Status::Error("truncated relation");
    RelSpec spec{static_cast<LabelId>(src), static_cast<LabelId>(edge),
                 static_cast<LabelId>(dst), has_stamp != 0};
    graph->RegisterRelation(spec.src, spec.edge, spec.dst, spec.has_stamp);
    rels->push_back(spec);
  }
  return Status::OK();
}

Status ParseVertexSection(
    std::istream& in, Graph* graph, LabelId label,
    const std::vector<std::pair<PropertyId, ValueType>>& props,
    const std::vector<std::string>* dict) {
  uint64_t count;
  if (!ReadU64(in, &count)) return Status::Error("truncated vertices");
  for (uint64_t i = 0; i < count; ++i) {
    int64_t ext;
    if (!ReadI64(in, &ext)) return Status::Error("truncated vertex");
    VertexId v = graph->AddVertexBulk(label, ext);
    for (const auto& [prop, type] : props) {
      Value value;
      if (!ReadValue(in, &value, dict)) {
        return Status::Error("truncated value");
      }
      if (!value.is_null()) graph->SetPropertyBulk(v, prop, value);
    }
  }
  return Status::OK();
}

Status ParseEdgeSection(std::istream& in, Graph* graph, const RelSpec& spec) {
  uint64_t count;
  if (!ReadU64(in, &count)) return Status::Error("truncated edges");
  for (uint64_t i = 0; i < count; ++i) {
    int64_t src_ext, dst_ext, stamp = 0;
    if (!ReadI64(in, &src_ext) || !ReadI64(in, &dst_ext)) {
      return Status::Error("truncated edge");
    }
    if (spec.has_stamp && !ReadI64(in, &stamp)) {
      return Status::Error("truncated stamp");
    }
    VertexId src = graph->FindByExtId(spec.src, src_ext, 0);
    VertexId dst = graph->FindByExtId(spec.dst, dst_ext, 0);
    if (src == kInvalidVertex || dst == kInvalidVertex) {
      return Status::Error("edge references unknown vertex");
    }
    graph->AddEdgeBulk(spec.edge, src, dst, stamp);
  }
  return Status::OK();
}

Status ParseEdgeSectionV4(std::istream& in, Graph* graph,
                          const RelSpec& spec) {
  uint64_t num_sources;
  if (!ReadVarint(in, &num_sources)) return Status::Error("truncated edges");
  for (uint64_t s = 0; s < num_sources; ++s) {
    uint64_t zsrc, degree;
    if (!ReadVarint(in, &zsrc) || !ReadVarint(in, &degree)) {
      return Status::Error("truncated edge group");
    }
    if (degree == 0 || degree > (1ull << 32)) {
      return Status::Error("invalid edge group degree");
    }
    int64_t src_ext = UnZigZag(zsrc);
    VertexId src = graph->FindByExtId(spec.src, src_ext, 0);
    if (src == kInvalidVertex) {
      return Status::Error("edge references unknown source vertex");
    }
    std::vector<int64_t> dst_exts(degree);
    uint64_t zfirst;
    if (!ReadVarint(in, &zfirst)) return Status::Error("truncated edge");
    dst_exts[0] = UnZigZag(zfirst);
    for (uint64_t i = 1; i < degree; ++i) {
      uint64_t gap;
      if (!ReadVarint(in, &gap)) return Status::Error("truncated edge");
      dst_exts[i] = dst_exts[i - 1] + static_cast<int64_t>(gap);
    }
    std::vector<int64_t> stamps(degree, 0);
    if (spec.has_stamp) {
      int mode = in.get();
      if (mode < 0) return Status::Error("truncated stamp mode");
      if (mode == 1) {
        uint64_t z;
        if (!ReadVarint(in, &z)) return Status::Error("truncated stamp");
        stamps[0] = UnZigZag(z);
        for (uint64_t i = 1; i < degree; ++i) {
          if (!ReadVarint(in, &z)) return Status::Error("truncated stamp");
          stamps[i] = stamps[i - 1] + UnZigZag(z);
        }
      } else if (mode != 0) {
        return Status::Error("invalid stamp mode");
      }
    }
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

Status ParseSegmentsManifest(std::istream& in,
                             std::vector<RelationKey>* keys) {
  uint64_t count;
  if (!ReadU64(in, &count)) return Status::Error("truncated manifest");
  if (count > (1u << 20)) return Status::Error("manifest too large");
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t src, edge, dst;
    if (!ReadU64(in, &src) || !ReadU64(in, &edge) || !ReadU64(in, &dst)) {
      return Status::Error("truncated manifest entry");
    }
    keys->push_back(RelationKey{static_cast<LabelId>(src),
                                static_cast<LabelId>(edge),
                                static_cast<LabelId>(dst), Direction::kOut});
  }
  return Status::OK();
}

// --- V3 section framing: [u64 len][u32 crc32c(bytes)][bytes] ---

void WriteFramed(std::ostream& out, const std::string& payload) {
  WriteU64(out, payload.size());
  WriteU32(out, Crc32c(payload));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

Status SectionError(const std::string& name, const std::string& what) {
  return Status::Error("snapshot section '" + name + "' " + what);
}

Status ReadFramed(std::istream& in, const std::string& name,
                  std::string* buf) {
  uint64_t len;
  uint32_t crc;
  if (!ReadU64(in, &len) || !ReadU32(in, &crc)) {
    return SectionError(name, "truncated (missing frame header)");
  }
  if (len > (1ull << 33)) return SectionError(name, "implausibly large");
  buf->resize(len);
  if (len > 0 &&
      !in.read(buf->data(), static_cast<std::streamsize>(len))) {
    return SectionError(name, "truncated");
  }
  if (Crc32c(*buf) != crc) {
    return SectionError(name, "corrupt (CRC32C mismatch)");
  }
  return Status::OK();
}

std::string EdgeSectionName(const Catalog& catalog, const RelSpec& spec) {
  return std::string("edges[") + catalog.VertexLabelName(spec.src) + "-" +
         catalog.EdgeLabelName(spec.edge) + "->" +
         catalog.VertexLabelName(spec.dst) + "]";
}

}  // namespace

Status SaveGraph(const Graph& graph, std::ostream& out,
                 SnapshotFormat format) {
  if (!graph.finalized()) {
    return Status::InvalidArgument("graph must be finalized before saving");
  }
  const Catalog& catalog = graph.catalog();
  Version snap = graph.CurrentVersion();
  const StringDict* dict =
      format == SnapshotFormat::kV1 ? nullptr : &graph.string_dict();
  std::vector<Graph::RelationInfo> rels = graph.Relations();

  switch (format) {
    case SnapshotFormat::kV1:
      out.write(kMagicV1, 8);
      break;
    case SnapshotFormat::kV2:
      out.write(kMagicV2, 8);
      break;
    case SnapshotFormat::kV3:
      out.write(kMagicV3, 8);
      break;
    case SnapshotFormat::kV4:
      out.write(kMagicV4, 8);
      break;
  }

  if (format == SnapshotFormat::kV3 || format == SnapshotFormat::kV4) {
    const bool v4 = format == SnapshotFormat::kV4;
    auto framed = [&out](auto&& fill) {
      std::ostringstream section;
      fill(section);
      WriteFramed(out, section.str());
    };
    // Header: the snapshot version, restored on load so recovery can skip
    // WAL transactions already folded into this snapshot.
    framed([&](std::ostream& s) { WriteU64(s, snap); });
    framed([&](std::ostream& s) { WriteDictSection(s, *dict); });
    framed([&](std::ostream& s) { WriteCatalogSection(s, catalog); });
    framed([&](std::ostream& s) { WriteRelationsSection(s, rels); });
    for (size_t l = 0; l < catalog.num_vertex_labels(); ++l) {
      framed([&](std::ostream& s) {
        WriteVertexSection(s, graph, static_cast<LabelId>(l), snap, dict);
      });
    }
    for (const Graph::RelationInfo& r : rels) {
      framed([&](std::ostream& s) {
        if (v4) {
          WriteEdgeSectionV4(s, graph, r, snap);
        } else {
          WriteEdgeSection(s, graph, r, snap);
        }
      });
    }
    if (v4) {
      framed(
          [&](std::ostream& s) { WriteSegmentsManifest(s, graph, rels); });
    }
  } else {
    if (dict != nullptr) WriteDictSection(out, *dict);
    WriteCatalogSection(out, catalog);
    WriteRelationsSection(out, rels);
    for (size_t l = 0; l < catalog.num_vertex_labels(); ++l) {
      WriteVertexSection(out, graph, static_cast<LabelId>(l), snap, dict);
    }
    for (const Graph::RelationInfo& r : rels) {
      WriteEdgeSection(out, graph, r, snap);
    }
  }
  if (!out) return Status::Error("write failure");
  return Status::OK();
}

Status LoadGraph(std::istream& in, Graph* graph) {
  char magic[8];
  if (!in.read(magic, 8)) {
    return Status::InvalidArgument("not a GES snapshot (bad magic)");
  }
  bool v4 = std::memcmp(magic, kMagicV4, 8) == 0;
  bool v3 = std::memcmp(magic, kMagicV3, 8) == 0;
  bool v2 = std::memcmp(magic, kMagicV2, 8) == 0;
  if (!v4 && !v3 && !v2 && std::memcmp(magic, kMagicV1, 8) != 0) {
    return Status::InvalidArgument("not a GES snapshot (bad magic)");
  }

  std::vector<std::string> dict_strings;
  const std::vector<std::string>* dict =
      (v2 || v3 || v4) ? &dict_strings : nullptr;
  std::vector<std::vector<std::pair<PropertyId, ValueType>>> label_props;
  std::vector<RelSpec> rels;

  if (v3 || v4) {
    // Every section is read fully, CRC-verified, then parsed; any framing
    // or parse failure names the section instead of loading partial data.
    auto section = [&in](const std::string& name, auto&& parse) -> Status {
      std::string buf;
      GES_RETURN_IF_ERROR(ReadFramed(in, name, &buf));
      std::istringstream sec(buf);
      Status s = parse(sec);
      if (!s.ok()) {
        return SectionError(name, "invalid: " + s.message());
      }
      return Status::OK();
    };

    uint64_t snapshot_version = 0;
    GES_RETURN_IF_ERROR(section("header", [&](std::istream& s) {
      return ReadU64(s, &snapshot_version)
                 ? Status::OK()
                 : Status::Error("missing snapshot version");
    }));
    GES_RETURN_IF_ERROR(section("dict", [&](std::istream& s) {
      return ParseDictSection(s, &dict_strings);
    }));
    GES_RETURN_IF_ERROR(section("catalog", [&](std::istream& s) {
      return ParseCatalogSection(s, graph, &label_props);
    }));
    GES_RETURN_IF_ERROR(section("relations", [&](std::istream& s) {
      return ParseRelationsSection(s, graph, &rels);
    }));
    const Catalog& catalog = graph->catalog();
    for (uint64_t l = 0; l < label_props.size(); ++l) {
      LabelId label = static_cast<LabelId>(l);
      std::string name =
          std::string("vertices[") + catalog.VertexLabelName(label) + "]";
      GES_RETURN_IF_ERROR(section(name, [&](std::istream& s) {
        return ParseVertexSection(s, graph, label, label_props[l], dict);
      }));
    }
    for (const RelSpec& spec : rels) {
      GES_RETURN_IF_ERROR(
          section(EdgeSectionName(catalog, spec), [&](std::istream& s) {
            return v4 ? ParseEdgeSectionV4(s, graph, spec)
                      : ParseEdgeSection(s, graph, spec);
          }));
    }
    std::vector<RelationKey> segment_keys;
    if (v4) {
      GES_RETURN_IF_ERROR(section("segments", [&](std::istream& s) {
        return ParseSegmentsManifest(s, &segment_keys);
      }));
    }
    graph->FinalizeBulk();
    graph->RestoreVersionForRecovery(snapshot_version);
    if (!segment_keys.empty()) {
      // Rebuild the compressed segments the snapshot had installed.
      // Internal vertex ids are not stable across a save/load cycle, so
      // the blobs are re-encoded by a forced compaction pass over exactly
      // the manifested relations; the parked pre-swap storage is freed
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

  // Legacy V1/V2: the same sections, concatenated without framing.
  if (v2) {
    GES_RETURN_IF_ERROR(ParseDictSection(in, &dict_strings));
  }
  GES_RETURN_IF_ERROR(ParseCatalogSection(in, graph, &label_props));
  GES_RETURN_IF_ERROR(ParseRelationsSection(in, graph, &rels));
  for (uint64_t l = 0; l < label_props.size(); ++l) {
    GES_RETURN_IF_ERROR(ParseVertexSection(
        in, graph, static_cast<LabelId>(l), label_props[l], dict));
  }
  for (const RelSpec& spec : rels) {
    GES_RETURN_IF_ERROR(ParseEdgeSection(in, graph, spec));
  }
  graph->FinalizeBulk();
  return Status::OK();
}

Status SaveGraphFile(const Graph& graph, const std::string& path,
                     SnapshotFormat format) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open " + path);
  return SaveGraph(graph, out, format);
}

Status LoadGraphFile(const std::string& path, Graph* graph) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  return LoadGraph(in, graph);
}

}  // namespace ges

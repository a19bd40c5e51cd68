#include "storage/csv_loader.h"

#include <cstdlib>
#include <sstream>

namespace ges {

namespace {

// Days per month in a non-leap year, cumulative.
constexpr int kCumDays[12] = {0,   31,  59,  90,  120, 151,
                              181, 212, 243, 273, 304, 334};

bool IsLeap(int y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }

// "YYYY-MM-DD" -> epoch milliseconds (UTC midnight). Returns false on
// malformed input.
bool ParseIsoDate(const std::string& s, int64_t* millis) {
  if (s.size() < 10 || s[4] != '-' || s[7] != '-') return false;
  int y = std::atoi(s.substr(0, 4).c_str());
  int m = std::atoi(s.substr(5, 2).c_str());
  int d = std::atoi(s.substr(8, 2).c_str());
  if (y < 1 || m < 1 || m > 12 || d < 1 || d > 31) return false;
  // Days since 1970-01-01.
  int64_t days = 0;
  if (y >= 1970) {
    for (int yy = 1970; yy < y; ++yy) days += IsLeap(yy) ? 366 : 365;
  } else {
    for (int yy = y; yy < 1970; ++yy) days -= IsLeap(yy) ? 366 : 365;
  }
  days += kCumDays[m - 1] + (m > 2 && IsLeap(y) ? 1 : 0) + (d - 1);
  *millis = days * 86'400'000LL;
  return true;
}

}  // namespace

std::vector<std::string> SplitCsvLine(const std::string& line,
                                      char delimiter) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (true) {
    size_t next = line.find(delimiter, pos);
    if (next == std::string::npos) {
      out.push_back(line.substr(pos));
      break;
    }
    out.push_back(line.substr(pos, next - pos));
    pos = next + 1;
  }
  // Trim a trailing '\r' from the last field (Windows line endings).
  if (!out.empty() && !out.back().empty() && out.back().back() == '\r') {
    out.back().pop_back();
  }
  return out;
}

Status ParseCsvValue(const std::string& text, ValueType type, Value* out) {
  switch (type) {
    case ValueType::kNull:
      *out = Value::Null();
      return Status::OK();
    case ValueType::kBool:
      *out = Value::Bool(text == "true" || text == "1");
      return Status::OK();
    case ValueType::kInt64:
      *out = Value::Int(std::atoll(text.c_str()));
      return Status::OK();
    case ValueType::kDouble:
      *out = Value::Double(std::atof(text.c_str()));
      return Status::OK();
    case ValueType::kString:
      *out = Value::String(text);
      return Status::OK();
    case ValueType::kVertex:
      *out = Value::Vertex(
          static_cast<VertexId>(std::strtoull(text.c_str(), nullptr, 10)));
      return Status::OK();
    case ValueType::kDate: {
      int64_t millis;
      if (ParseIsoDate(text, &millis)) {
        *out = Value::Date(millis);
      } else {
        *out = Value::Date(std::atoll(text.c_str()));
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown value type");
}

Status LoadVerticesCsv(std::istream& in, LabelId label, Graph* graph,
                       size_t* count, const CsvOptions& options) {
  *count = 0;
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty CSV (missing header)");
  }
  std::vector<std::string> header = SplitCsvLine(line, options.delimiter);
  const Catalog& catalog = graph->catalog();

  // Resolve each header column to a property (or the id column).
  int id_col = -1;
  std::vector<std::pair<PropertyId, ValueType>> columns(header.size(),
                                                        {kInvalidProperty,
                                                         ValueType::kNull});
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "id") id_col = static_cast<int>(i);
    PropertyId prop = catalog.Property(header[i]);
    if (prop == kInvalidProperty) {
      if (header[i] == "id") continue;  // id need not be a property
      return Status::NotFound("property '" + header[i] +
                              "' not declared in catalog");
    }
    ValueType type = catalog.PropertyType(label, prop);
    if (type == ValueType::kNull) {
      return Status::InvalidArgument("property '" + header[i] +
                                     "' not declared on label");
    }
    columns[i] = {prop, type};
  }
  if (id_col < 0) {
    return Status::InvalidArgument("vertex CSV needs an 'id' column");
  }

  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line, options.delimiter);
    if (fields.size() != header.size()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": expected " +
          std::to_string(header.size()) + " fields, got " +
          std::to_string(fields.size()));
    }
    int64_t ext_id = std::atoll(fields[id_col].c_str());
    VertexId v = graph->AddVertexBulk(label, ext_id);
    for (size_t i = 0; i < fields.size(); ++i) {
      if (columns[i].first == kInvalidProperty) continue;
      if (columns[i].second == ValueType::kString) {
        // Fast path: the field goes straight into the per-graph string
        // dictionary — no Value boxing, no extra copy.
        graph->SetPropertyBulkString(v, columns[i].first, fields[i]);
        continue;
      }
      Value value;
      GES_RETURN_IF_ERROR(
          ParseCsvValue(fields[i], columns[i].second, &value));
      graph->SetPropertyBulk(v, columns[i].first, value);
    }
    ++*count;
  }
  return Status::OK();
}

Status LoadEdgesCsv(std::istream& in, LabelId edge_label, LabelId src_label,
                    LabelId dst_label, Graph* graph, size_t* count,
                    const CsvOptions& options) {
  *count = 0;
  if (graph->FindRelation(src_label, edge_label, dst_label,
                          Direction::kOut) == kInvalidRelation) {
    return Status::NotFound("relation not registered");
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty CSV (missing header)");
  }
  std::vector<std::string> header = SplitCsvLine(line, options.delimiter);
  if (header.size() != 2 && header.size() != 3) {
    return Status::InvalidArgument(
        "edge CSV needs 2 or 3 columns (src|dst[|stamp])");
  }
  bool has_stamp = header.size() == 3;

  Version snap = graph->CurrentVersion();
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line, options.delimiter);
    if (fields.size() != header.size()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": wrong field count");
    }
    VertexId src =
        graph->FindByExtId(src_label, std::atoll(fields[0].c_str()), snap);
    VertexId dst =
        graph->FindByExtId(dst_label, std::atoll(fields[1].c_str()), snap);
    if (src == kInvalidVertex || dst == kInvalidVertex) {
      return Status::NotFound("line " + std::to_string(line_no) +
                              ": unknown endpoint id");
    }
    int64_t stamp = 0;
    if (has_stamp) {
      Value v;
      GES_RETURN_IF_ERROR(ParseCsvValue(fields[2], ValueType::kDate, &v));
      stamp = v.AsInt();
    }
    graph->AddEdgeBulk(edge_label, src, dst, stamp);
    ++*count;
  }
  return Status::OK();
}

Status ExportVerticesCsv(const Graph& graph, LabelId label, std::ostream& out,
                         const CsvOptions& options) {
  const Catalog& catalog = graph.catalog();
  const auto& props = catalog.LabelProperties(label);
  Version snap = graph.CurrentVersion();

  out << "id";
  // Avoid duplicating an explicit "id" property column.
  std::vector<std::pair<PropertyId, ValueType>> cols;
  for (const auto& [prop, type] : props) {
    if (catalog.PropertyName(prop) == "id") continue;
    cols.emplace_back(prop, type);
    out << options.delimiter << catalog.PropertyName(prop);
  }
  out << '\n';

  std::vector<VertexId> vertices;
  graph.ScanLabel(label, snap, &vertices);
  PropertyId id_prop = catalog.Property("id");
  for (VertexId v : vertices) {
    out << graph.GetProperty(v, id_prop, snap).AsInt();
    for (const auto& [prop, type] : cols) {
      out << options.delimiter
          << graph.GetProperty(v, prop, snap).ToString();
    }
    out << '\n';
  }
  return Status::OK();
}

Status ExportEdgesCsv(const Graph& graph, LabelId edge_label,
                      LabelId src_label, LabelId dst_label, std::ostream& out,
                      const CsvOptions& options) {
  RelationId rel =
      graph.FindRelation(src_label, edge_label, dst_label, Direction::kOut);
  if (rel == kInvalidRelation) {
    return Status::NotFound("relation not registered");
  }
  Version snap = graph.CurrentVersion();
  const Catalog& catalog = graph.catalog();
  PropertyId id_prop = catalog.Property("id");

  // Probe one span for stamps.
  bool has_stamp = false;
  std::vector<VertexId> sources;
  AdjScratch adj;
  graph.ScanLabel(src_label, snap, &sources);
  for (VertexId v : sources) {
    AdjSpan span = graph.Neighbors(rel, v, snap, &adj);
    if (span.size > 0) {
      has_stamp = span.stamps != nullptr;
      break;
    }
  }

  out << catalog.VertexLabelName(src_label) << ".id" << options.delimiter
      << catalog.VertexLabelName(dst_label) << ".id";
  if (has_stamp) out << options.delimiter << "stamp";
  out << '\n';

  for (VertexId v : sources) {
    AdjSpan span = graph.Neighbors(rel, v, snap, &adj);
    int64_t src_ext = graph.GetProperty(v, id_prop, snap).AsInt();
    for (uint32_t i = 0; i < span.size; ++i) {
      out << src_ext << options.delimiter
          << graph.GetProperty(span.ids[i], id_prop, snap).AsInt();
      if (has_stamp) {
        out << options.delimiter << (span.stamps ? span.stamps[i] : 0);
      }
      out << '\n';
    }
  }
  return Status::OK();
}

}  // namespace ges

// CSV bulk import/export for LPG graphs.
//
// The official LDBC SNB Datagen (and most graph tooling) exchanges graphs
// as per-label CSV files. This module loads such files into a Graph —
// vertex files carry an `id` column plus properties, edge files carry
// `src|dst[|stamp]` — and can export a Graph back to the same layout, so a
// round trip reproduces the graph exactly.
//
// Format (pipe-separated by default, first line is the header):
//
//   persons.csv:   id|firstName|lastName|birthday
//   knows.csv:     Person.id|Person.id|creationDate
//
// Vertex property types are taken from the catalog (the schema must be
// declared before loading). External ids are arbitrary int64 keys; edge
// files reference them.
#ifndef GES_STORAGE_CSV_LOADER_H_
#define GES_STORAGE_CSV_LOADER_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/graph.h"

namespace ges {

struct CsvOptions {
  char delimiter = '|';
};

// --- import (bulk phase; call before Graph::FinalizeBulk) ---

// Loads vertices of `label` from `in`. The header names properties declared
// on `label` in the catalog; a column named "id" provides the external id
// (required, first column by convention but matched by name). Returns the
// number of vertices loaded via `*count`.
Status LoadVerticesCsv(std::istream& in, LabelId label, Graph* graph,
                       size_t* count, const CsvOptions& options = {});

// Loads edges of `edge_label` from `in`: two external-id columns (source of
// `src_label`, destination of `dst_label`) and an optional third stamp
// column. The relation must be registered.
Status LoadEdgesCsv(std::istream& in, LabelId edge_label, LabelId src_label,
                    LabelId dst_label, Graph* graph, size_t* count,
                    const CsvOptions& options = {});

// --- export (any finalized graph, at the current version) ---

// Writes all vertices of `label` with their declared properties.
Status ExportVerticesCsv(const Graph& graph, LabelId label, std::ostream& out,
                         const CsvOptions& options = {});

// Writes all edges of the OUT table (src_label)-[edge_label]->(dst_label)
// as external-id pairs (+ stamp when the relation has one).
Status ExportEdgesCsv(const Graph& graph, LabelId edge_label,
                      LabelId src_label, LabelId dst_label, std::ostream& out,
                      const CsvOptions& options = {});

// --- helpers shared with tests ---

// Splits one CSV line on `delimiter` (no quoting; LDBC datagen does not
// quote either).
std::vector<std::string> SplitCsvLine(const std::string& line,
                                      char delimiter);

// Parses `text` into a Value of `type`. Dates accept raw int64 epoch
// milliseconds or "YYYY-MM-DD".
Status ParseCsvValue(const std::string& text, ValueType type, Value* out);

}  // namespace ges

#endif  // GES_STORAGE_CSV_LOADER_H_

// Binary graph snapshots: save a graph (schema + data, at the current
// version) as one byte image and load it back.
//
// Snapshots are self-describing: loading reconstructs the catalog and
// relations, so a loaded graph serves queries immediately. Overlay versions
// are folded into the snapshot (the save captures the graph as of
// Graph::CurrentVersion()).
//
// One on-disk format, "GESSNAP4" (DESIGN.md §9, §10, §16), encoded with
// common/wire.h. After the 8-byte magic comes a run of sections, each
// framed as [u64 len][u32 crc32c][bytes] and verified on load:
//  * header — the snapshot version, so recovery can skip WAL transactions
//    the snapshot already contains;
//  * dict — the per-graph string dictionary;
//  * catalog, relations — the schema;
//  * vertices[L] per label — ext id plus one tagged value per property.
//    String values carry a subtag: 0 = inline u64-length bytes,
//    1 = u32 dictionary code;
//  * edges[R] per relation — grouped by source and delta+varint compressed
//    (zigzag first id, non-negative gaps, null-suppressed stamp runs);
//  * segments — the relations that had a compressed CSR segment installed
//    at save time. Loading rebuilds those segments with a forced
//    compaction pass (internal vertex ids are not stable across a
//    save/load cycle, so the encoded blobs themselves cannot be reused).
// A corrupt, truncated or implausible image fails with a Status naming the
// offending section; every length and count is bounded by the bytes left,
// so a crafted image cannot drive a huge allocation. The retired
// GESSNAP1-3 formats are refused by name.
#ifndef GES_STORAGE_SERIALIZATION_H_
#define GES_STORAGE_SERIALIZATION_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/graph.h"

namespace ges {

// Appends the snapshot image of `graph` (which must be finalized) to `out`.
Status SaveGraph(const Graph& graph, std::string* out);

// Loads an image into `graph`, which must be freshly constructed (no
// schema, no data). The loaded graph is finalized and ready for reads and
// MV2PL writes.
Status LoadGraph(std::string_view image, Graph* graph);
Status LoadGraphFile(const std::string& path, Graph* graph);

}  // namespace ges

#endif  // GES_STORAGE_SERIALIZATION_H_

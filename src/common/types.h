// Core identifier and enum types shared across the GES reproduction.
#ifndef GES_COMMON_TYPES_H_
#define GES_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>

namespace ges {

// Internal dense vertex identifier. Vertices of all labels share one id
// space; the catalog maps (label, external id) <-> VertexId.
using VertexId = uint64_t;

// Label of a vertex (PERSON, POST, ...) or an edge (KNOWS, LIKES, ...).
using LabelId = uint16_t;

// Property key identifier, scoped to the catalog.
using PropertyId = uint16_t;

// Monotonically increasing transaction/snapshot version (MV2PL).
using Version = uint64_t;

inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();
inline constexpr LabelId kInvalidLabel = std::numeric_limits<LabelId>::max();
inline constexpr PropertyId kInvalidProperty =
    std::numeric_limits<PropertyId>::max();

// Traversal direction of an adjacency list. The storage keys adjacency
// metadata by (srcLabel, edgeLabel, dstLabel, direction), per Section 5 of
// the paper.
enum class Direction : uint8_t { kOut = 0, kIn = 1, kBoth = 2 };

}  // namespace ges

#endif  // GES_COMMON_TYPES_H_

// GESSNAP3/GESSNAP4 integrity tests: per-section CRC32C framing,
// corruption and truncation detection with section-naming errors, the V4
// delta+varint edge codec and compacted-segment manifest, legacy format
// loading, and snapshot-version restoration for recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "storage/serialization.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::TinyGraph;

std::string SaveV3(const Graph& g) {
  std::stringstream buf;
  EXPECT_TRUE(SaveGraph(g, buf, SnapshotFormat::kV3).ok());
  return buf.str();
}

std::string SaveV4(const Graph& g) {
  std::stringstream buf;
  EXPECT_TRUE(SaveGraph(g, buf, SnapshotFormat::kV4).ok());
  return buf.str();
}

// Neighbor set of `v` as (ext_id, stamp) pairs, sorted — internal ids are
// not stable across save/load, external ids are.
std::vector<std::pair<int64_t, int64_t>> EdgeSet(const Graph& g,
                                                 RelationId rel, VertexId v,
                                                 Version snap) {
  AdjScratch scratch;
  AdjSpan span = g.Neighbors(rel, v, snap, &scratch);
  std::vector<std::pair<int64_t, int64_t>> out;
  for (uint32_t i = 0; i < span.size; ++i) {
    out.emplace_back(g.ExtIdOf(span.ids[i], snap),
                     span.stamps != nullptr ? span.stamps[i] : 0);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status LoadBytes(const std::string& bytes, Graph* g) {
  std::stringstream buf(bytes);
  return LoadGraph(buf, g);
}

TEST(SnapshotIntegrityTest, DefaultFormatIsV4) {
  TinyGraph tiny;
  std::stringstream buf;
  ASSERT_TRUE(SaveGraph(*tiny.graph, buf).ok());
  EXPECT_EQ(buf.str().substr(0, 8), "GESSNAP4");
}

TEST(SnapshotIntegrityTest, V3RoundTrips) {
  TinyGraph tiny;
  std::string bytes = SaveV3(*tiny.graph);
  Graph loaded;
  Status s = LoadBytes(bytes, &loaded);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(loaded.NumVerticesTotal(), tiny.graph->NumVerticesTotal());
  EXPECT_EQ(loaded.NumEdgesTotal(), tiny.graph->NumEdgesTotal());
  Version v = loaded.CurrentVersion();
  VertexId m0 = loaded.FindByExtId(loaded.catalog().VertexLabel("MESSAGE"),
                                   0, v);
  ASSERT_NE(m0, kInvalidVertex);
  EXPECT_EQ(loaded.GetProperty(m0, loaded.catalog().Property("len"), v),
            Value::Int(140));
}

TEST(SnapshotIntegrityTest, RestoresSnapshotVersion) {
  TinyGraph tiny;
  for (int i = 0; i < 3; ++i) {
    auto txn = tiny.graph->BeginWrite({tiny.messages[i]});
    txn->SetProperty(tiny.messages[i], tiny.len, Value::Int(i));
    ASSERT_NE(txn->Commit(), 0u);
  }
  ASSERT_EQ(tiny.graph->CurrentVersion(), 3u);

  Graph loaded;
  ASSERT_TRUE(LoadBytes(SaveV3(*tiny.graph), &loaded).ok());
  // Recovery depends on this: WAL transactions with commit_version <= 3
  // must be skipped after loading this snapshot.
  EXPECT_EQ(loaded.CurrentVersion(), 3u);
}

TEST(SnapshotIntegrityTest, TruncationAnywhereIsDetected) {
  TinyGraph tiny;
  const std::string bytes = SaveV3(*tiny.graph);
  // Sample a spread of truncation points (every byte would be slow on the
  // bigger sections; boundaries and interiors are all hit).
  for (size_t cut = 8; cut < bytes.size();
       cut += 1 + (bytes.size() - cut) / 97) {
    Graph g;
    Status s = LoadBytes(bytes.substr(0, cut), &g);
    EXPECT_FALSE(s.ok()) << "cut at byte " << cut;
  }
}

TEST(SnapshotIntegrityTest, TruncationErrorNamesSection) {
  TinyGraph tiny;
  const std::string bytes = SaveV3(*tiny.graph);
  Graph g;
  Status s = LoadBytes(bytes.substr(0, bytes.size() - 3), &g);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("section"), std::string::npos) << s.message();
}

TEST(SnapshotIntegrityTest, BitFlipIsDetectedAndNamesSection) {
  TinyGraph tiny;
  const std::string bytes = SaveV3(*tiny.graph);
  // Flip one payload byte in a handful of spots across the file (past the
  // magic, which has its own check).
  for (size_t off = 9; off < bytes.size();
       off += 1 + (bytes.size() - off) / 53) {
    std::string damaged = bytes;
    damaged[off] = static_cast<char>(damaged[off] ^ 0x10);
    Graph g;
    Status s = LoadBytes(damaged, &g);
    EXPECT_FALSE(s.ok()) << "flip at byte " << off;
    if (!s.ok()) {
      EXPECT_NE(s.message().find("section"), std::string::npos)
          << "flip at byte " << off << ": " << s.message();
    }
  }
}

TEST(SnapshotIntegrityTest, LegacyFormatsStillLoad) {
  TinyGraph tiny;
  for (SnapshotFormat f : {SnapshotFormat::kV1, SnapshotFormat::kV2,
                           SnapshotFormat::kV3}) {
    std::stringstream buf;
    ASSERT_TRUE(SaveGraph(*tiny.graph, buf, f).ok());
    const std::string magic = buf.str().substr(0, 8);
    const char* want = f == SnapshotFormat::kV1   ? "GESSNAP1"
                       : f == SnapshotFormat::kV2 ? "GESSNAP2"
                                                  : "GESSNAP3";
    EXPECT_EQ(magic, want);
    Graph loaded;
    Status s = LoadGraph(buf, &loaded);
    ASSERT_TRUE(s.ok()) << s.message();
    EXPECT_EQ(loaded.NumVerticesTotal(), tiny.graph->NumVerticesTotal());
    EXPECT_EQ(loaded.NumEdgesTotal(), tiny.graph->NumEdgesTotal());
  }
}

TEST(SnapshotIntegrityTest, V3CapturesCommittedOverlayState) {
  TinyGraph tiny;
  {
    auto txn = tiny.graph->BeginWrite({tiny.persons[0], tiny.persons[3]});
    ASSERT_TRUE(
        txn->AddEdge(tiny.knows, tiny.persons[0], tiny.persons[3], 777).ok());
    txn->SetProperty(tiny.messages[0], tiny.len, Value::Int(555));
    ASSERT_NE(txn->Commit(), 0u);
  }
  Graph loaded;
  ASSERT_TRUE(LoadBytes(SaveV3(*tiny.graph), &loaded).ok());
  Version v = loaded.CurrentVersion();
  EXPECT_EQ(v, 1u);
  RelationId knows = loaded.FindRelation(tiny.person, tiny.knows,
                                         tiny.person, Direction::kOut);
  VertexId p0 = loaded.FindByExtId(tiny.person, 0, v);
  EXPECT_EQ(loaded.Degree(knows, p0, v), 3u);
  VertexId m0 = loaded.FindByExtId(loaded.catalog().VertexLabel("MESSAGE"),
                                   0, v);
  EXPECT_EQ(loaded.GetProperty(m0, loaded.catalog().Property("len"), v),
            Value::Int(555));
}

TEST(SnapshotIntegrityTest, V4RoundTripsEdgesStampsAndOverlay) {
  TinyGraph tiny;
  {
    auto txn = tiny.graph->BeginWrite(
        {tiny.persons[0], tiny.persons[1], tiny.persons[3]});
    ASSERT_TRUE(
        txn->AddEdge(tiny.knows, tiny.persons[0], tiny.persons[3], 777).ok());
    ASSERT_TRUE(
        txn->RemoveEdge(tiny.knows, tiny.persons[0], tiny.persons[1]).ok());
    txn->SetProperty(tiny.messages[0], tiny.len, Value::Int(555));
    ASSERT_NE(txn->Commit(), 0u);
  }
  Graph loaded;
  Status s = LoadBytes(SaveV4(*tiny.graph), &loaded);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(loaded.CurrentVersion(), tiny.graph->CurrentVersion());
  EXPECT_EQ(loaded.NumVerticesTotal(), tiny.graph->NumVerticesTotal());
  RelationId knows = loaded.FindRelation(tiny.person, tiny.knows,
                                         tiny.person, Direction::kOut);
  ASSERT_NE(knows, kInvalidRelation);
  Version sv = tiny.graph->CurrentVersion();
  Version lv = loaded.CurrentVersion();
  for (int i = 0; i < 4; ++i) {
    VertexId lp = loaded.FindByExtId(tiny.person, i, lv);
    ASSERT_NE(lp, kInvalidVertex);
    // The codec stores ext-id gaps + per-source stamp deltas; the decoded
    // (ext_id, stamp) multiset must match exactly.
    EXPECT_EQ(EdgeSet(loaded, knows, lp, lv),
              EdgeSet(*tiny.graph, tiny.knows_out, tiny.persons[i], sv))
        << "person " << i;
  }
  VertexId m0 = loaded.FindByExtId(tiny.message, 0, lv);
  EXPECT_EQ(loaded.GetProperty(m0, loaded.catalog().Property("len"), lv),
            Value::Int(555));
}

TEST(SnapshotIntegrityTest, V4ManifestRebuildsCompactedSegments) {
  TinyGraph tiny;
  CompactionOptions copts;
  copts.force = true;
  copts.only.push_back(tiny.knows_out);
  CompactionStats cs = tiny.graph->CompactRelations(copts);
  ASSERT_EQ(cs.relations_compacted, 1u);
  ASSERT_TRUE(tiny.graph->RelationCompacted(tiny.knows_out));

  Graph loaded;
  Status s = LoadBytes(SaveV4(*tiny.graph), &loaded);
  ASSERT_TRUE(s.ok()) << s.message();
  // The manifest names KNOWS as compacted; the loader must rebuild its
  // segment (internal ids differ, so segments cannot ship in the file).
  RelationId knows = loaded.FindRelation(tiny.person, tiny.knows,
                                         tiny.person, Direction::kOut);
  RelationId creator = loaded.FindRelation(tiny.message, tiny.has_creator,
                                           tiny.person, Direction::kOut);
  EXPECT_TRUE(loaded.RelationCompacted(knows));
  EXPECT_FALSE(loaded.RelationCompacted(creator));
  Version sv = tiny.graph->CurrentVersion();
  Version lv = loaded.CurrentVersion();
  for (int i = 0; i < 4; ++i) {
    VertexId lp = loaded.FindByExtId(tiny.person, i, lv);
    EXPECT_EQ(EdgeSet(loaded, knows, lp, lv),
              EdgeSet(*tiny.graph, tiny.knows_out, tiny.persons[i], sv))
        << "person " << i;
  }
}

// Every relation's neighbor lists (as ext-id/stamp sets) for every vertex.
std::vector<std::vector<std::pair<int64_t, int64_t>>> AllEdgeSets(
    const Graph& g) {
  Version now = g.CurrentVersion();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> out;
  for (RelationId rel = 0; rel < g.NumRelations(); ++rel) {
    for (VertexId v = 0; v < g.NumVerticesTotal(); ++v) {
      out.push_back(EdgeSet(g, rel, v, now));
    }
  }
  return out;
}

// Over the per-source-label base CSR of a two-label graph with overlay
// edits (including a post-bulk vertex): compaction changes no list, and a
// save -> load -> save cycle reproduces the snapshot byte for byte, both
// before and after compaction.
TEST(SnapshotIntegrityTest, V4ResaveAndCompactionAreByteIdentical) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  {
    auto txn = g.BeginWrite({tiny.persons[0], tiny.persons[1],
                             tiny.persons[2], tiny.messages[5]});
    VertexId fresh = txn->CreateVertex(tiny.person, 4, {{tiny.id,
                                                         Value::Int(4)}});
    ASSERT_TRUE(txn->AddEdge(tiny.knows, fresh, tiny.persons[2], 9).ok());
    ASSERT_TRUE(txn->AddEdge(tiny.knows, tiny.persons[2], fresh, 9).ok());
    ASSERT_TRUE(
        txn->RemoveEdge(tiny.knows, tiny.persons[0], tiny.persons[1]).ok());
    ASSERT_TRUE(
        txn->AddEdge(tiny.has_creator, tiny.messages[5], fresh).ok());
    ASSERT_NE(txn->Commit(), 0u);
  }
  auto resave = [](const std::string& bytes) {
    Graph loaded;
    Status s = LoadBytes(bytes, &loaded);
    EXPECT_TRUE(s.ok()) << s.message();
    return SaveV4(loaded);
  };
  const std::string plain = SaveV4(g);
  EXPECT_EQ(resave(plain), plain);

  const auto before = AllEdgeSets(g);
  CompactionOptions force;
  force.force = true;
  CompactionStats cs = g.CompactRelations(force);
  EXPECT_GT(cs.relations_compacted, 0u);
  EXPECT_EQ(AllEdgeSets(g), before);
  const std::string compacted = SaveV4(g);
  EXPECT_EQ(resave(compacted), compacted);
}

TEST(SnapshotIntegrityTest, V4TruncationAnywhereIsDetected) {
  TinyGraph tiny;
  const std::string bytes = SaveV4(*tiny.graph);
  for (size_t cut = 8; cut < bytes.size();
       cut += 1 + (bytes.size() - cut) / 97) {
    Graph g;
    Status s = LoadBytes(bytes.substr(0, cut), &g);
    EXPECT_FALSE(s.ok()) << "cut at byte " << cut;
  }
}

TEST(SnapshotIntegrityTest, V4BitFlipIsDetectedAndNamesSection) {
  TinyGraph tiny;
  const std::string bytes = SaveV4(*tiny.graph);
  for (size_t off = 9; off < bytes.size();
       off += 1 + (bytes.size() - off) / 53) {
    std::string damaged = bytes;
    damaged[off] = static_cast<char>(damaged[off] ^ 0x10);
    Graph g;
    Status s = LoadBytes(damaged, &g);
    EXPECT_FALSE(s.ok()) << "flip at byte " << off;
    if (!s.ok()) {
      EXPECT_NE(s.message().find("section"), std::string::npos)
          << "flip at byte " << off << ": " << s.message();
    }
  }
}

}  // namespace
}  // namespace ges

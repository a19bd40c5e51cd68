// GESSNAP4 integrity tests: per-section CRC32C framing, corruption and
// truncation detection with section-naming errors, bounds on crafted
// lengths and counts, the delta+varint edge codec and compacted-segment
// manifest, refusal of the retired formats, and snapshot-version
// restoration for recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/wire.h"
#include "storage/serialization.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::TinyGraph;

std::string Save(const Graph& g) {
  std::string image;
  Status s = SaveGraph(g, &image);
  EXPECT_TRUE(s.ok()) << s.message();
  return image;
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

TEST(SnapshotIntegrityTest, DefaultFormatIsV4) {
  TinyGraph tiny;
  EXPECT_EQ(Save(*tiny.graph).substr(0, 8), "GESSNAP4");
}

// The two V3* tests keep the names they had when they pinned the retired
// GESSNAP3 writer; the sectioned layout they checked lives on in GESSNAP4,
// which is what they now save and load.
TEST(SnapshotIntegrityTest, V3RoundTrips) {
  TinyGraph tiny;
  Graph loaded;
  Status s = LoadGraph(Save(*tiny.graph), &loaded);
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
  ASSERT_TRUE(LoadGraph(Save(*tiny.graph), &loaded).ok());
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

TEST(SnapshotIntegrityTest, RestoresSnapshotVersion) {
  TinyGraph tiny;
  for (int i = 0; i < 3; ++i) {
    auto txn = tiny.graph->BeginWrite({tiny.messages[i]});
    txn->SetProperty(tiny.messages[i], tiny.len, Value::Int(i));
    ASSERT_NE(txn->Commit(), 0u);
  }
  ASSERT_EQ(tiny.graph->CurrentVersion(), 3u);

  Graph loaded;
  ASSERT_TRUE(LoadGraph(Save(*tiny.graph), &loaded).ok());
  // Recovery depends on this: WAL transactions with commit_version <= 3
  // must be skipped after loading this snapshot.
  EXPECT_EQ(loaded.CurrentVersion(), 3u);
}

TEST(SnapshotIntegrityTest, TruncationAnywhereIsDetected) {
  TinyGraph tiny;
  const std::string bytes = Save(*tiny.graph);
  // Sample a spread of truncation points (every byte would be slow on the
  // bigger sections; boundaries and interiors are all hit).
  for (size_t cut = 8; cut < bytes.size();
       cut += 1 + (bytes.size() - cut) / 97) {
    Graph g;
    Status s = LoadGraph(bytes.substr(0, cut), &g);
    EXPECT_FALSE(s.ok()) << "cut at byte " << cut;
  }
}

TEST(SnapshotIntegrityTest, TruncationErrorNamesSection) {
  TinyGraph tiny;
  const std::string bytes = Save(*tiny.graph);
  Graph g;
  Status s = LoadGraph(bytes.substr(0, bytes.size() - 3), &g);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("section"), std::string::npos) << s.message();
}

TEST(SnapshotIntegrityTest, BitFlipIsDetectedAndNamesSection) {
  TinyGraph tiny;
  const std::string bytes = Save(*tiny.graph);
  // Flip one payload byte in a handful of spots across the file (past the
  // magic, which has its own check).
  for (size_t off = 9; off < bytes.size();
       off += 1 + (bytes.size() - off) / 53) {
    std::string damaged = bytes;
    damaged[off] = static_cast<char>(damaged[off] ^ 0x10);
    Graph g;
    Status s = LoadGraph(damaged, &g);
    EXPECT_FALSE(s.ok()) << "flip at byte " << off;
    if (!s.ok()) {
      EXPECT_NE(s.message().find("section"), std::string::npos)
          << "flip at byte " << off << ": " << s.message();
    }
  }
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
  Status s = LoadGraph(Save(*tiny.graph), &loaded);
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
  Status s = LoadGraph(Save(*tiny.graph), &loaded);
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
    Status s = LoadGraph(bytes, &loaded);
    EXPECT_TRUE(s.ok()) << s.message();
    return Save(loaded);
  };
  const std::string plain = Save(g);
  EXPECT_EQ(resave(plain), plain);

  const auto before = AllEdgeSets(g);
  CompactionOptions force;
  force.force = true;
  CompactionStats cs = g.CompactRelations(force);
  EXPECT_GT(cs.relations_compacted, 0u);
  EXPECT_EQ(AllEdgeSets(g), before);
  const std::string compacted = Save(g);
  EXPECT_EQ(resave(compacted), compacted);
}

// TinyGraph after an overlay edit and a forced compaction of KNOWS: the
// image carries an overlay edge, a restored version and a non-empty
// segments manifest, so damage lands in those paths too.
std::string EditedCompactedImage() {
  TinyGraph tiny;
  {
    auto txn = tiny.graph->BeginWrite({tiny.persons[0], tiny.persons[3]});
    EXPECT_TRUE(
        txn->AddEdge(tiny.knows, tiny.persons[0], tiny.persons[3], 777).ok());
    txn->SetProperty(tiny.messages[0], tiny.len, Value::Int(555));
    EXPECT_NE(txn->Commit(), 0u);
  }
  CompactionOptions copts;
  copts.force = true;
  copts.only.push_back(tiny.knows_out);
  EXPECT_EQ(tiny.graph->CompactRelations(copts).relations_compacted, 1u);
  return Save(*tiny.graph);
}

TEST(SnapshotIntegrityTest, V4TruncationAnywhereIsDetected) {
  const std::string bytes = EditedCompactedImage();
  for (size_t cut = 8; cut < bytes.size();
       cut += 1 + (bytes.size() - cut) / 97) {
    Graph g;
    Status s = LoadGraph(bytes.substr(0, cut), &g);
    EXPECT_FALSE(s.ok()) << "cut at byte " << cut;
  }
}

TEST(SnapshotIntegrityTest, V4BitFlipIsDetectedAndNamesSection) {
  const std::string bytes = EditedCompactedImage();
  for (size_t off = 9; off < bytes.size();
       off += 1 + (bytes.size() - off) / 53) {
    std::string damaged = bytes;
    damaged[off] = static_cast<char>(damaged[off] ^ 0x10);
    Graph g;
    Status s = LoadGraph(damaged, &g);
    EXPECT_FALSE(s.ok()) << "flip at byte " << off;
    if (!s.ok()) {
      EXPECT_NE(s.message().find("section"), std::string::npos)
          << "flip at byte " << off << ": " << s.message();
    }
  }
}

TEST(SnapshotIntegrityTest, RetiredFormatsAreRefusedByName) {
  TinyGraph tiny;
  std::string image = Save(*tiny.graph);
  for (char version : {'1', '2', '3'}) {
    image[7] = version;
    Graph g;
    Status s = LoadGraph(image, &g);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("invalid argument"), std::string::npos)
        << s.message();
    EXPECT_NE(s.message().find(std::string("GESSNAP") + version),
              std::string::npos)
        << s.message();
  }
}

// A 20-byte image whose first frame header claims far more bytes than
// follow must fail by name, before anything is allocated for it.
TEST(SnapshotIntegrityTest, OversizedFrameHeaderIsANamedError) {
  for (uint64_t claim : {uint64_t{1} << 33, uint64_t{1} << 62, ~uint64_t{0}}) {
    WireBuf image;
    image.PutBytes("GESSNAP4");
    image.PutU64(claim);
    image.PutU32(0);
    Graph g;
    Status s = LoadGraph(image.data(), &g);
    ASSERT_FALSE(s.ok()) << "claim " << claim;
    EXPECT_NE(s.message().find("section 'header'"), std::string::npos)
        << s.message();
  }
}

// The section bodies of a well-formed image, in order.
std::vector<std::string> SplitSections(const std::string& image) {
  std::vector<std::string> out;
  WireReader in(std::string_view(image).substr(8));
  while (in.ok() && !in.AtEnd()) {
    uint64_t len = in.GetU64();
    in.GetU32();
    out.emplace_back(in.GetBytes(len));
  }
  return out;
}

// Reframes section bodies with fresh CRCs, so a planted section passes the
// checksum and reaches its parser.
std::string Reframe(const std::vector<std::string>& sections) {
  WireBuf out;
  out.PutBytes("GESSNAP4");
  for (const std::string& body : sections) {
    out.PutU64(body.size());
    out.PutU32(Crc32c(body));
    out.PutBytes(body);
  }
  return out.Take();
}

// A CRC-valid section with hostile contents must fail by name: a count
// beyond its bytes before any container is sized from it, and a reference
// outside the catalog before anything indexes with it.
TEST(SnapshotIntegrityTest, PlantedSectionsFailByName) {
  TinyGraph tiny;
  const std::vector<std::string> sections = SplitSections(Save(*tiny.graph));
  // header, dict, catalog, relations, 2 vertex sections, 2 edge sections,
  // segments.
  ASSERT_EQ(sections.size(), 9u);
  struct Case {
    size_t index;
    std::string name;
    std::string error;
    WireBuf body;
  };
  std::vector<Case> cases(8);
  cases[0] = {1, "dict", "exceeds", {}};
  cases[0].body.PutU64(uint64_t{1} << 31);
  cases[1] = {2, "catalog", "exceeds", {}};
  cases[1].body.PutU64(uint64_t{1} << 40);
  cases[2] = {2, "catalog", "duplicate vertex label", {}};
  cases[2].body.PutU64(2);
  for (int i = 0; i < 2; ++i) {
    cases[2].body.PutU64(1);
    cases[2].body.PutBytes("X");
    cases[2].body.PutU64(0);  // no properties
  }
  cases[3] = {2, "catalog", "invalid property type", {}};
  cases[3].body.PutU64(1);
  cases[3].body.PutU64(1);
  cases[3].body.PutBytes("X");
  cases[3].body.PutU64(1);
  cases[3].body.PutU64(1);
  cases[3].body.PutBytes("p");
  cases[3].body.PutU8(0xee);
  cases[4] = {3, "relations", "unknown label", {}};
  cases[4].body.PutU64(1);
  cases[4].body.PutU64(99);  // src label
  cases[4].body.PutU64(0);
  cases[4].body.PutU64(0);
  cases[4].body.PutU8(0);
  cases[5] = {4, "vertices[PERSON]", "exceeds", {}};
  cases[5].body.PutU64(uint64_t{1} << 40);
  cases[6] = {6, "edges[PERSON-KNOWS->PERSON]", "exceeds", {}};
  cases[6].body.PutVarint(1);
  cases[6].body.PutZigZag(0);
  cases[6].body.PutVarint(uint64_t{1} << 32);  // degree
  cases[7] = {8, "segments", "exceeds", {}};
  cases[7].body.PutU64(uint64_t{1} << 30);
  for (const Case& c : cases) {
    std::vector<std::string> planted = sections;
    planted[c.index] = c.body.data();
    Graph g;
    Status s = LoadGraph(Reframe(planted), &g);
    ASSERT_FALSE(s.ok()) << c.name << ": " << c.error;
    EXPECT_NE(s.message().find("section '" + c.name + "'"), std::string::npos)
        << s.message();
    EXPECT_NE(s.message().find(c.error), std::string::npos) << s.message();
  }
}

}  // namespace
}  // namespace ges

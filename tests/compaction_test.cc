// Background delta-merge compaction (DESIGN.md §16): fragmentation
// trigger selection, memory reclamation after update churn, pinned-reader
// byte identity across the segment swap, retire-list draining, the
// concurrent churn storm and the lock-free swap readers the TSan flavor
// runs, the storage-accounting regression (update churn must be visible
// to the gauges), and the service-level driver (reaper cadence + stats
// report).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/client.h"
#include "service/server.h"
#include "storage/graph.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::TinyGraph;

// A PERSON ring of `n` vertices with stamped LINK edges: i -> (i+1) % n,
// finalized, plus catalog plumbing for churn transactions.
struct RingGraph {
  std::unique_ptr<Graph> graph = std::make_unique<Graph>();
  LabelId person, link;
  RelationId out;
  std::vector<VertexId> vertices;

  explicit RingGraph(int n) {
    Catalog& c = graph->catalog();
    person = c.AddVertexLabel("PERSON");
    link = c.AddEdgeLabel("LINK");
    graph->RegisterRelation(person, link, person, /*has_stamp=*/true);
    for (int i = 0; i < n; ++i) {
      vertices.push_back(graph->AddVertexBulk(person, i));
    }
    for (int i = 0; i < n; ++i) {
      graph->AddEdgeBulk(link, vertices[i], vertices[(i + 1) % n], i);
    }
    graph->FinalizeBulk();
    out = graph->FindRelation(person, link, person, Direction::kOut);
  }

  // One committed transaction: add `fan` edges from `src` (to distinct
  // targets derived from `salt`), remove the ring edge if `remove`. MV2PL
  // locks both endpoints, so every touched vertex is in the write set.
  void Churn(int src, int fan, int salt, bool remove) {
    int n = static_cast<int>(vertices.size());
    std::vector<int> dsts;
    for (int f = 0; f < fan; ++f) {
      dsts.push_back((src + 2 + (salt * fan + f) % (n - 3)) % n);
    }
    std::vector<VertexId> write_set = {vertices[src]};
    for (int d : dsts) write_set.push_back(vertices[d]);
    if (remove) write_set.push_back(vertices[(src + 1) % n]);
    auto txn = graph->BeginWrite(std::move(write_set));
    for (int f = 0; f < fan; ++f) {
      ASSERT_TRUE(
          txn->AddEdge(link, vertices[src], vertices[dsts[f]], salt * 100 + f)
              .ok());
    }
    if (remove) {
      ASSERT_TRUE(
          txn->RemoveEdge(link, vertices[src], vertices[(src + 1) % n]).ok());
    }
    ASSERT_NE(txn->Commit(), 0u);
  }

  // One committed transaction creating PERSON `ext` (post-bulk) with LINK
  // edges to and from `fan` ring vertices; returns the new vertex.
  VertexId AddVertex(int64_t ext, int fan) {
    int n = static_cast<int>(vertices.size());
    std::vector<VertexId> ring_ends;
    for (int f = 0; f < fan; ++f) {
      ring_ends.push_back(vertices[(ext * 7 + f) % n]);
    }
    auto txn = graph->BeginWrite(ring_ends);
    VertexId v = txn->CreateVertex(person, ext, {});
    for (VertexId w : ring_ends) {
      EXPECT_TRUE(txn->AddEdge(link, v, w, ext).ok());
      EXPECT_TRUE(txn->AddEdge(link, w, v, -ext).ok());
    }
    EXPECT_NE(txn->Commit(), 0u);
    return v;
  }
};

// Neighbor multiset of `v` as sorted (id, stamp) pairs.
std::vector<std::pair<VertexId, int64_t>> EdgePairs(const Graph& g,
                                                    RelationId rel,
                                                    VertexId v, Version s) {
  AdjScratch scratch;
  AdjSpan span = g.Neighbors(rel, v, s, &scratch);
  std::vector<std::pair<VertexId, int64_t>> out;
  for (uint32_t i = 0; i < span.size; ++i) {
    out.emplace_back(span.ids[i], span.stamps ? span.stamps[i] : 0);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t RssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<size_t>(resident) * 4096;
}

TEST(CompactionTest, TriggerSelectsOnlyFragmentedRelations) {
  RingGraph ring(64);
  Graph& g = *ring.graph;

  // Freshly finalized: nothing is reclaimable, the trigger pass is a no-op.
  CompactionOptions opts;
  opts.trigger_frag_pct = 0.30;
  CompactionStats none = g.CompactRelations(opts);
  EXPECT_EQ(none.relations_compacted, 0u);
  EXPECT_FALSE(g.RelationCompacted(ring.out));

  // Heavy churn: overlay chains push the reclaimable share of LINK past
  // the threshold.
  for (int i = 0; i < 64; ++i) ring.Churn(i, /*fan=*/6, i, /*remove=*/true);
  g.PruneVersions();
  CompactionStats did = g.CompactRelations(opts);
  EXPECT_GE(did.relations_compacted, 1u);
  EXPECT_TRUE(g.RelationCompacted(ring.out));
  EXPECT_GT(did.edges_encoded, 0u);
  EXPECT_GT(did.bytes_before, did.bytes_after);

  // Immediately re-running finds nothing above the threshold again.
  CompactionStats again = g.CompactRelations(opts);
  EXPECT_EQ(again.relations_compacted, 0u);
}

TEST(CompactionTest, ReclaimsMemoryAfterUpdateChurn) {
  // Two identical churned graphs; one compacts, one does not. The
  // compacted graph must shed >= 30% of MemoryBytes() (the bench_compaction
  // acceptance gate, in unit-test form).
  auto build = [] {
    auto ring = std::make_unique<RingGraph>(512);
    for (int round = 0; round < 6; ++round) {
      for (int i = 0; i < 512; ++i) {
        ring->Churn(i, /*fan=*/4, round * 512 + i, /*remove=*/round == 0);
      }
      ring->graph->PruneVersions();
    }
    return ring;
  };
  auto control = build();
  auto compacted = build();

  size_t before = compacted->graph->MemoryBytes();
  ASSERT_EQ(before, control->graph->MemoryBytes());

  CompactionOptions opts;
  opts.force = true;
  compacted->graph->CompactRelations(opts);
  // Reclaim needs the watermark strictly past the install version (a pin
  // taken at exactly the install version may still hold pre-swap spans),
  // so one trailing commit un-parks the retired batch. Mirror it on the
  // control graph to keep the two comparable.
  compacted->Churn(0, /*fan=*/1, 9999, /*remove=*/false);
  control->Churn(0, /*fan=*/1, 9999, /*remove=*/false);
  compacted->graph->PruneVersions();
  control->graph->PruneVersions();
  EXPECT_EQ(compacted->graph->RetiredBytes(), 0u);
  size_t after = compacted->graph->MemoryBytes();

  EXPECT_LT(after, before - before * 3 / 10)
      << "compaction reclaimed only " << before - after << " of " << before;
  // Content identical to the uncompacted control at head.
  Version cv = compacted->graph->CurrentVersion();
  ASSERT_EQ(cv, control->graph->CurrentVersion());
  for (int i = 0; i < 512; ++i) {
    ASSERT_EQ(EdgePairs(*compacted->graph, compacted->out,
                        compacted->vertices[i], cv),
              EdgePairs(*control->graph, control->out, control->vertices[i],
                        cv))
        << "vertex " << i;
  }
}

TEST(CompactionTest, PinnedReaderStaysByteIdenticalAcrossSwap) {
  RingGraph ring(128);
  Graph& g = *ring.graph;
  for (int i = 0; i < 128; ++i) ring.Churn(i, /*fan=*/3, i, /*remove=*/true);
  // Post-bulk vertices land in the segment's tail.
  std::vector<VertexId> all = ring.vertices;
  for (int k = 0; k < 8; ++k) all.push_back(ring.AddVertex(1000 + k, 3));
  const RelationId in = g.ReverseRelation(ring.out);

  SnapshotHandle pin = g.PinSnapshot();
  Version s = pin.version();
  std::vector<std::vector<std::pair<VertexId, int64_t>>> expected;
  for (VertexId v : all) {
    expected.push_back(EdgePairs(g, ring.out, v, s));
    expected.push_back(EdgePairs(g, in, v, s));
  }

  // Post-pin churn + swap: the pin predates the install version, so the
  // replaced storage parks on the retire list instead of being freed.
  for (int i = 0; i < 128; ++i) ring.Churn(i, /*fan=*/2, 1000 + i, false);
  for (int k = 0; k < 4; ++k) ring.AddVertex(2000 + k, 2);
  CompactionOptions opts;
  opts.force = true;
  ASSERT_GE(g.CompactRelations(opts).relations_compacted, 1u);
  g.PruneVersions();
  EXPECT_GT(g.RetiredBytes(), 0u) << "retired batch freed under a live pin";

  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(EdgePairs(g, ring.out, all[i], s), expected[2 * i])
        << "vertex " << all[i] << " at pinned snapshot " << s;
    EXPECT_EQ(EdgePairs(g, in, all[i], s), expected[2 * i + 1])
        << "vertex " << all[i] << " (IN) at pinned snapshot " << s;
  }

  // Releasing the pin (plus one commit to push the watermark strictly
  // past the install version) lets the next pass drain the park.
  pin.Release();
  ring.Churn(0, /*fan=*/1, 9999, /*remove=*/false);
  g.PruneVersions();
  EXPECT_EQ(g.RetiredBytes(), 0u);
}

// The TSan target: concurrent writers, head readers, and a compactor
// looping force-merge + prune. No assertion beyond "no race, no torn
// span": readers re-verify that every decoded neighbor id is a live
// vertex and stamps arrive iff the relation has them.
TEST(CompactionTest, ConcurrentChurnStormIsRaceFree) {
  RingGraph ring(64);
  Graph& g = *ring.graph;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&ring, t] {
      for (int i = 0; i < 150; ++i) {
        ring.Churn((t * 31 + i) % 64, /*fan=*/2, t * 1000 + i,
                   /*remove=*/i % 4 == 0);
        // Post-bulk vertices, so swaps also rebuild segment tails.
        if (i % 10 == 0) ring.AddVertex(100000 + t * 1000 + i, /*fan=*/2);
      }
    });
  }
  std::thread compactor([&g, &stop] {
    CompactionOptions opts;
    opts.force = true;
    // do-while: on a loaded single-core box the writers can finish before
    // this thread is first scheduled; at least one pass must still run so
    // the run-counter assertion below holds.
    do {
      g.CompactRelations(opts);
      g.PruneVersions();
    } while (!stop.load(std::memory_order_acquire));
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      SnapshotHandle pin = g.PinSnapshot();
      size_t n = g.NumVerticesTotal();
      for (int i = 0; i < 64; ++i) {
        auto pairs = EdgePairs(g, ring.out, ring.vertices[i], pin.version());
        for (const auto& [id, stamp] : pairs) {
          ASSERT_LT(id, n) << "decoded neighbor out of range";
        }
      }
      pin.Release();
    }
  });

  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  compactor.join();
  reader.join();
  g.PruneVersions();
  EXPECT_GT(g.compaction_runs_total(), 0u);
}

// The compaction swap against lock-free readers, for TSan: a reader that
// found no overlay entry or no segment reads the next level while the
// first forced swap collapses the chains and detaches the base. Every read
// must return the list as of the last commit (from an overlay entry, the
// base or the segment's copy), and the lock-free MemoryBytes() poll must
// not tear.
TEST(CompactionTest, BaseReadersRaceFreeAcrossDetach) {
  constexpr int kN = 64;
  for (int round = 0; round < 20; ++round) {
    RingGraph ring(kN);
    Graph& g = *ring.graph;
    // Half the vertices get an overlay entry, half keep their base list.
    for (int i = 0; i < kN; i += 2) ring.Churn(i, /*fan=*/1, i, false);
    std::vector<std::vector<std::pair<VertexId, int64_t>>> want;
    for (int i = 0; i < kN; ++i) {
      want.push_back(
          EdgePairs(g, ring.out, ring.vertices[i], g.CurrentVersion()));
    }
    // More readers than cores, so some are preempted mid-lookup.
    std::atomic<int> started{0};
    std::atomic<bool> stop{false};
    auto read = [&] {
      bool first = true;
      do {
        SnapshotHandle pin = g.PinSnapshot();
        for (int i = 0; i < kN; ++i) {
          ASSERT_EQ(EdgePairs(g, ring.out, ring.vertices[i], pin.version()),
                    want[i])
              << "vertex " << i;
          EXPECT_GT(g.MemoryBytes(), 0u);
        }
        pin.Release();
        if (first) started.fetch_add(1, std::memory_order_release);
        first = false;
      } while (!stop.load(std::memory_order_acquire));
    };
    std::vector<std::thread> readers;
    for (int r = 0; r < 8; ++r) readers.emplace_back(read);
    while (started.load(std::memory_order_acquire) < 8) {
      std::this_thread::yield();
    }
    CompactionOptions opts;
    opts.force = true;
    g.CompactRelations(opts);
    stop.store(true, std::memory_order_release);
    for (auto& r : readers) r.join();
    EXPECT_TRUE(g.RelationCompacted(ring.out));
  }
}

// A segment indexes its relation's source label, not the graph: compacting
// an 8-vertex label's relation next to a 20,000-vertex label costs bytes in
// proportion to the 8 (a global index would cost 12 B per graph vertex,
// 240 KB here), while the reverse relation pays for its 20,000 sources.
TEST(CompactionTest, SegmentIndexScalesWithSourceLabel) {
  Graph g;
  Catalog& c = g.catalog();
  LabelId big = c.AddVertexLabel("BIG");
  LabelId small = c.AddVertexLabel("SMALL");
  LabelId owns = c.AddEdgeLabel("OWNS");
  g.RegisterRelation(small, owns, big, /*has_stamp=*/true);
  std::vector<VertexId> bigs, smalls;
  for (int i = 0; i < 20000; ++i) bigs.push_back(g.AddVertexBulk(big, i));
  for (int i = 0; i < 8; ++i) smalls.push_back(g.AddVertexBulk(small, i));
  for (int i = 0; i < 8; ++i) {
    for (int k = 0; k < 4; ++k) {
      g.AddEdgeBulk(owns, smalls[i], bigs[i * 2500 + k], 10 * i + k);
    }
  }
  g.FinalizeBulk();
  const RelationId out = g.FindRelation(small, owns, big, Direction::kOut);
  const RelationId in = g.ReverseRelation(out);

  CompactionOptions opts;
  opts.force = true;
  opts.only = {out};
  ASSERT_EQ(g.CompactRelations(opts).relations_compacted, 1u);
  // 9 offsets + 8 degrees, ~10 encoded bytes per source and the header.
  EXPECT_LT(g.RelationMemoryBytes(out), 512u);
  opts.only = {in};
  ASSERT_EQ(g.CompactRelations(opts).relations_compacted, 1u);
  EXPECT_GE(g.RelationMemoryBytes(in), 20000u * 2 * sizeof(uint32_t));

  const Version v = g.CurrentVersion();
  for (int i = 0; i < 8; ++i) {
    std::vector<std::pair<VertexId, int64_t>> want;
    for (int k = 0; k < 4; ++k) want.emplace_back(bigs[i * 2500 + k], 10 * i + k);
    EXPECT_EQ(EdgePairs(g, out, smalls[i], v), want) << "small " << i;
    EXPECT_EQ(EdgePairs(g, in, bigs[i * 2500], v),
              (std::vector<std::pair<VertexId, int64_t>>{{smalls[i], 10 * i}}))
        << "big " << i * 2500;
  }
  // A vertex outside the source label reads empty from either segment.
  EXPECT_TRUE(EdgePairs(g, out, bigs[0], v).empty());
  EXPECT_TRUE(EdgePairs(g, in, smalls[0], v).empty());
}

// TailSlot's bucket directory against a linear scan, on a tail whose ids
// are clustered, gapped and sparse: every tail id finds its slot and list,
// every other id (between, before and after them) gets kNoSlot.
TEST(CompactionTest, SegmentTailLookupMatchesLinearScan) {
  std::vector<VertexId> tail;
  for (VertexId v = 1000; v < 1400; v += 1 + (v % 7)) tail.push_back(v);
  for (VertexId v = 50000; v < 50040; ++v) tail.push_back(v);
  tail.push_back(1u << 30);
  CompressedSegment::Builder builder(/*has_stamp=*/false);
  const VertexId bulk_ids[2] = {7, 9};
  builder.Add(bulk_ids, nullptr, 2);
  builder.Add(nullptr, nullptr, 0);
  for (VertexId v : tail) {
    const VertexId ids[2] = {v, v + 1};
    builder.AddTail(v, ids, nullptr, 2);
  }
  std::shared_ptr<const CompressedSegment> seg = builder.Build(/*cut=*/1);

  AdjScratch scratch;
  EXPECT_EQ(seg->Decode(0, &scratch).size, 2u);
  EXPECT_EQ(seg->DegreeAt(1), 0u);
  for (size_t p = 0; p < tail.size(); ++p) {
    const uint32_t slot = seg->TailSlot(tail[p]);
    ASSERT_EQ(slot, 2 + p) << "tail id " << tail[p];
    AdjSpan span = seg->Decode(slot, &scratch);
    ASSERT_EQ(span.size, 2u);
    EXPECT_EQ(span.ids[0], tail[p]);
    EXPECT_EQ(span.ids[1], tail[p] + 1);
  }
  for (VertexId v : {VertexId{0}, VertexId{999}, VertexId{1001},
                     VertexId{40000}, VertexId{50040},
                     VertexId{(1u << 30) - 1}, VertexId{(1u << 30) + 1}}) {
    EXPECT_EQ(seg->TailSlot(v), CompressedSegment::kNoSlot) << v;
  }
  for (VertexId v = 1000; v < 1400; ++v) {
    const bool in_tail = std::binary_search(tail.begin(), tail.end(), v);
    EXPECT_EQ(seg->TailSlot(v) != CompressedSegment::kNoSlot, in_tail) << v;
  }
  EXPECT_EQ(seg->num_sources(), 1 + tail.size());
  EXPECT_EQ(seg->num_edges(), 2 + 2 * tail.size());
}

// Post-bulk vertices across swaps. A source-label vertex whose edges
// committed before the cut reads from the segment's tail once the swap has
// collapsed its chain; one created after the cut reads through the overlay;
// a vertex of another label, bulk or post-bulk, reads empty. A second pass
// carries the old tail forward.
TEST(CompactionTest, PostBulkVerticesResolveAcrossSwaps) {
  using Pairs = std::vector<std::pair<VertexId, int64_t>>;
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  VertexId p10, m10;
  {
    auto txn = g.BeginWrite({tiny.persons[0], tiny.persons[1]});
    p10 = txn->CreateVertex(tiny.person, 10, {});
    m10 = txn->CreateVertex(tiny.message, 10, {});
    ASSERT_TRUE(txn->AddEdge(tiny.knows, p10, tiny.persons[0], 7).ok());
    ASSERT_TRUE(txn->AddEdge(tiny.knows, p10, tiny.persons[1], 8).ok());
    ASSERT_TRUE(txn->AddEdge(tiny.has_creator, m10, p10).ok());
    ASSERT_NE(txn->Commit(), 0u);
  }
  CompactionOptions opts;
  opts.force = true;
  ASSERT_GE(g.CompactRelations(opts).relations_compacted, 1u);
  ASSERT_TRUE(g.RelationCompacted(tiny.knows_out));
  VertexId p11;
  {
    auto txn = g.BeginWrite({tiny.persons[2]});
    p11 = txn->CreateVertex(tiny.person, 11, {});
    ASSERT_TRUE(txn->AddEdge(tiny.knows, p11, tiny.persons[2], 9).ok());
    ASSERT_NE(txn->Commit(), 0u);
  }

  // A list decoded from a segment is the scratch's own buffer; overlay
  // entries and the base CSR point elsewhere.
  auto from_segment = [&g](RelationId rel, VertexId v) {
    AdjScratch scratch;
    AdjSpan span = g.Neighbors(rel, v, g.CurrentVersion(), &scratch);
    return span.size > 0 && span.ids == scratch.ids.data();
  };
  auto check = [&](bool p11_in_segment) {
    const Version v = g.CurrentVersion();
    EXPECT_EQ(EdgePairs(g, tiny.knows_out, p10, v),
              (Pairs{{tiny.persons[0], 7}, {tiny.persons[1], 8}}));
    EXPECT_EQ(g.Degree(tiny.knows_out, p10, v), 2u);
    EXPECT_TRUE(from_segment(tiny.knows_out, p10)) << "not in the tail";
    EXPECT_EQ(EdgePairs(g, tiny.msg_creator, m10, v), (Pairs{{p10, 0}}));
    EXPECT_EQ(EdgePairs(g, tiny.person_messages, p10, v), (Pairs{{m10, 0}}));
    EXPECT_EQ(EdgePairs(g, tiny.knows_out, p11, v),
              (Pairs{{tiny.persons[2], 9}}));
    EXPECT_EQ(from_segment(tiny.knows_out, p11), p11_in_segment);
    for (VertexId other : {tiny.messages[0], m10}) {
      EXPECT_TRUE(EdgePairs(g, tiny.knows_out, other, v).empty()) << other;
      EXPECT_EQ(g.Degree(tiny.knows_out, other, v), 0u) << other;
    }
    EXPECT_TRUE(EdgePairs(g, tiny.msg_creator, p10, v).empty());
  };
  check(/*p11_in_segment=*/false);
  ASSERT_GE(g.CompactRelations(opts).relations_compacted, 1u);
  check(/*p11_in_segment=*/true);
}

// IC3-style multi-relation Expands over compacted relations: rows of both
// labels probe both labels' relations, post-bulk vertices included. Every
// ExecMode must agree with the uncompacted twin graph.
TEST(CompactionTest, MixedLabelExpandAgreesAcrossModesWhenCompacted) {
  TinyGraph compacted, control;
  auto update = [](TinyGraph& t, int64_t ext, bool compact_after) {
    {
      auto txn =
          t.graph->BeginWrite({t.persons[1], t.persons[3], t.messages[0]});
      VertexId p = txn->CreateVertex(t.person, ext, {{t.id, Value::Int(ext)}});
      VertexId m =
          txn->CreateVertex(t.message, ext, {{t.id, Value::Int(ext)}});
      ASSERT_TRUE(txn->AddEdge(t.knows, p, t.persons[1], ext).ok());
      ASSERT_TRUE(txn->AddEdge(t.knows, t.persons[1], p, ext).ok());
      ASSERT_TRUE(txn->AddEdge(t.has_creator, m, t.persons[1]).ok());
      ASSERT_TRUE(txn->AddEdge(t.has_creator, t.messages[0], p).ok());
      if (ext == 10) {
        ASSERT_TRUE(
            txn->RemoveEdge(t.knows, t.persons[1], t.persons[3]).ok());
      }
      ASSERT_NE(txn->Commit(), 0u);
    }
    if (compact_after) {
      CompactionOptions opts;
      opts.force = true;
      ASSERT_GE(t.graph->CompactRelations(opts).relations_compacted, 1u);
    }
  };
  update(compacted, 10, /*compact_after=*/true);
  update(control, 10, /*compact_after=*/false);
  update(compacted, 11, /*compact_after=*/false);
  update(control, 11, /*compact_after=*/false);
  ASSERT_TRUE(compacted.graph->RelationCompacted(compacted.person_messages));

  auto plan = [](const TinyGraph& t) {
    PlanBuilder b("t");
    b.NodeByIdSeek("p", t.person, 1)
        .Expand("p", "x", {t.knows_out, t.person_messages})
        .Expand("x", "y", {t.knows_out, t.msg_creator})
        .GetProperty("x", t.id, ValueType::kInt64, "xid")
        .GetProperty("y", t.id, ValueType::kInt64, "yid")
        .Output({"xid", "yid"});
    return b.Build();
  };
  auto run = [&plan](ExecMode mode, const TinyGraph& t) {
    GraphView view(t.graph.get());
    return testutil::SortedRows(Executor(mode).Run(plan(t), view).table);
  };
  const std::vector<std::string> want = run(ExecMode::kVolcano, control);
  ASSERT_FALSE(want.empty());
  for (ExecMode mode : {ExecMode::kVolcano, ExecMode::kFlat,
                        ExecMode::kFactorized, ExecMode::kFactorizedFused}) {
    EXPECT_EQ(run(mode, compacted), want) << "mode=" << ExecModeName(mode);
  }
}

// Regression: storage grown by update churn used to be invisible to
// MemoryBytes()/OverlayBytes(), so a churned graph reported far less than
// its actual footprint and the service GC byte-trigger never fired.
// Cross-check the gauge against the process RSS delta while building a
// deliberately churn-heavy graph.
TEST(CompactionTest, MemoryGaugeTracksRssDeltaOnChurn) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer shadow memory distorts RSS";
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer shadow memory distorts RSS";
#endif
#endif
  size_t rss_before = RssBytes();
  if (rss_before == 0) GTEST_SKIP() << "/proc/self/statm unavailable";

  auto ring = std::make_unique<RingGraph>(4096);
  size_t gauge_floor = ring->graph->MemoryBytes();
  // Churn: every AddEdge commit lands in overlay chains; every 4th txn of
  // the first round also removes an edge.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 4096; ++i) {
      ring->Churn(i, /*fan=*/4, round * 4096 + i,
                  /*remove=*/round == 0 && i % 4 == 0);
    }
    ring->graph->PruneVersions();
  }
  size_t rss_delta = RssBytes() - rss_before;
  size_t gauge_delta = ring->graph->MemoryBytes() - gauge_floor;
  ASSERT_GT(rss_delta, 8u << 20) << "churn too small to measure via RSS";

  // Generous bounds: RSS includes allocator slop, freed-but-cached pages
  // and test scaffolding, so the gauge may undershoot — but a gauge blind
  // to churn undershot by an order of magnitude. It must also
  // never exceed what the process actually grew by.
  EXPECT_GE(gauge_delta, rss_delta / 4)
      << "gauge " << gauge_delta << " vs RSS delta " << rss_delta;
  EXPECT_LE(gauge_delta, rss_delta * 2)
      << "gauge " << gauge_delta << " vs RSS delta " << rss_delta;
#endif
}

// The report's compaction line, built from the graph that owns the totals.
std::string CompactionLine(const Graph& g) {
  return "compaction: runs=" + std::to_string(g.compaction_runs_total()) +
         " bytes_reclaimed=" +
         std::to_string(g.compaction_bytes_reclaimed_total()) +
         " segments=" + std::to_string(g.CompactedSegments());
}

// The line of `report` that starts with `prefix` ("" if none does).
std::string ReportLine(const std::string& report, const std::string& prefix) {
  // Padding with a newline makes `at` the prefix's offset in `report`.
  size_t at = ("\n" + report).find("\n" + prefix);
  if (at == std::string::npos) return "";
  return report.substr(at, report.find('\n', at) - at);
}

// Service driver: with compact_interval_seconds set, the reaper submits
// passes through the shared TaskScheduler; the stats report shows the
// graph's compaction totals.
TEST(CompactionServiceTest, ReaperDrivesCompactionAndExportsStats) {
  testutil::SnbFixture fx(/*sf=*/0.01, /*seed=*/7);
  // Churn so the trigger has something to select.
  service::ServiceConfig config;
  config.compact_interval_seconds = 0.05;
  config.compact_trigger_frag_pct = 0.0;  // every non-clean relation
  service::Server server(&fx.graph, &fx.data, config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  bool compacted = false;
  for (int i = 0; i < 100 && !compacted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    compacted = fx.graph.compaction_runs_total() > 0;
  }
  EXPECT_TRUE(compacted) << "reaper never drove a compaction pass";
  server.Drain(1.0);
  EXPECT_EQ(ReportLine(server.StatsReport(), "compaction:"),
            CompactionLine(fx.graph));
}

// The stats report carries the compaction line (ops debugging reads this
// dump; a counter that exists but is not printed is lost).
TEST(CompactionServiceTest, StatsDumpHasCompactionLine) {
  TinyGraph tiny;
  SnbData empty;
  service::Server server(tiny.graph.get(), &empty, {});
  EXPECT_NE(server.StatsReport().find("compaction:"), std::string::npos);
}

// The report reads each statistic from its owner as it renders, so a
// compaction pass run from outside the server shows at once, and so does
// one run after Drain has stopped the reaper.
TEST(ServiceStatsTest, ReportIsCurrentWithoutAReaperTick) {
  RingGraph ring(512);
  SnbData empty;
  service::ServiceConfig config;
  config.gc_interval_seconds = 0;  // background compaction is off too
  config.gc_trigger_bytes = 0;
  config.query_workers = 1;
  config.queue_capacity = 1;
  service::Server server(ring.graph.get(), &empty, config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  for (int i = 0; i < 256; ++i) ring.Churn(i, /*fan=*/2, i, /*remove=*/false);
  CompactionOptions force;
  force.force = true;
  ring.graph->CompactRelations(force);
  ASSERT_EQ(ring.graph->compaction_runs_total(), 1u);
  ASSERT_GT(ring.graph->CompactedSegments(), 0u);
  EXPECT_EQ(ReportLine(server.StatsReport(), "compaction:"),
            CompactionLine(*ring.graph));

  // Pipelined sleeps overflow the one-slot queue, so the admission line
  // has refusals to show.
  service::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()))
      << client.last_error();
  constexpr int kQueries = 4;
  for (int i = 0; i < kQueries; ++i) {
    service::QueryRequest req;
    req.query_id = client.AllocQueryId();
    req.kind = service::QueryKind::kSleep;
    req.seed = 20;  // ms
    ASSERT_TRUE(client.Send(req));
  }
  for (int i = 0; i < kQueries; ++i) {
    service::QueryResponse resp;
    ASSERT_TRUE(client.ReadResponse(&resp)) << client.last_error();
  }
  client.Close();

  server.Drain(1.0);
  ring.Churn(300, /*fan=*/2, 300, /*remove=*/false);
  ring.graph->CompactRelations(force);
  EXPECT_EQ(ReportLine(server.StatsReport(), "compaction:"),
            CompactionLine(*ring.graph));
  const service::AdmissionStats& adm = server.admission().stats();
  EXPECT_GT(adm.rejected.load(), 0u);
  EXPECT_EQ(ReportLine(server.StatsReport(), "admission:"),
            "admission: rejected_short=" +
                std::to_string(adm.rejected_short.load()) +
                " rejected_long=" + std::to_string(adm.rejected_long.load()) +
                " queue_depth=" + std::to_string(server.admission().queued()));
}

}  // namespace
}  // namespace ges

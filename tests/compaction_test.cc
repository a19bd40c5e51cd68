// Background delta-merge compaction (DESIGN.md §16): fragmentation
// trigger selection, memory reclamation after update churn, pinned-reader
// byte identity across the segment swap, retire-list draining, the
// concurrent churn storm and the lock-free swap readers the TSan flavor
// runs, the storage-accounting regression (update churn must be visible
// to the gauges), and the service-level driver (reaper cadence + stats
// mirroring).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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
};

// Neighbor multiset of `v` as sorted (id, stamp) pairs, tombstone-pruned.
std::vector<std::pair<VertexId, int64_t>> EdgePairs(const Graph& g,
                                                    RelationId rel,
                                                    VertexId v, Version s) {
  AdjScratch scratch;
  AdjSpan span = g.Neighbors(rel, v, s, &scratch);
  std::vector<std::pair<VertexId, int64_t>> out;
  for (uint32_t i = 0; i < span.size; ++i) {
    if (span.ids[i] == kInvalidVertex) continue;
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

  SnapshotHandle pin = g.PinSnapshot();
  Version s = pin.version();
  std::vector<std::vector<std::pair<VertexId, int64_t>>> expected;
  for (int i = 0; i < 128; ++i) {
    expected.push_back(EdgePairs(g, ring.out, ring.vertices[i], s));
  }

  // Post-pin churn + swap: the pin predates the install version, so the
  // replaced storage parks on the retire list instead of being freed.
  for (int i = 0; i < 128; ++i) ring.Churn(i, /*fan=*/2, 1000 + i, false);
  CompactionOptions opts;
  opts.force = true;
  ASSERT_GE(g.CompactRelations(opts).relations_compacted, 1u);
  g.PruneVersions();
  EXPECT_GT(g.RetiredBytes(), 0u) << "retired batch freed under a live pin";

  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(EdgePairs(g, ring.out, ring.vertices[i], s), expected[i])
        << "vertex " << i << " at pinned snapshot " << s;
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

// Service driver: with compact_interval_seconds set, the reaper submits
// passes through the shared TaskScheduler and mirrors the graph's
// compaction totals into ServiceStats.
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
    compacted = server.stats().compaction_runs.load() > 0;
  }
  EXPECT_TRUE(compacted) << "reaper never drove a compaction pass";
  server.Drain(1.0);
  EXPECT_EQ(server.stats().compaction_segments.load(),
            fx.graph.CompactedSegments());
  EXPECT_EQ(server.stats().compaction_runs.load(),
            fx.graph.compaction_runs_total());
}

// ServiceStats::ToString carries the compaction line (ops debugging
// reads this dump; a counter that exists but is not printed is lost).
TEST(CompactionServiceTest, StatsDumpHasCompactionLine) {
  TinyGraph tiny;
  SnbData empty;
  service::Server server(tiny.graph.get(), &empty, {});
  EXPECT_NE(server.stats().ToString().find("compaction:"), std::string::npos);
}

}  // namespace
}  // namespace ges

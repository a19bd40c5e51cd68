// MV2PL concurrency-control tests: snapshot isolation, copy-on-write
// versions, non-blocking reads, concurrent writers.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "queries/ldbc.h"
#include "service/client.h"
#include "service/server.h"
#include "storage/graph.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::TinyGraph;

TEST(MvccTest, CommitAdvancesVersion) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  Version v0 = g.CurrentVersion();
  auto txn = g.BeginWrite({tiny.persons[0], tiny.persons[3]});
  ASSERT_TRUE(txn->AddEdge(tiny.knows, tiny.persons[0], tiny.persons[3], 7)
                  .ok());
  Version commit = txn->Commit();
  EXPECT_EQ(commit, v0 + 1);
  EXPECT_EQ(g.CurrentVersion(), commit);
}

TEST(MvccTest, OldSnapshotDoesNotSeeNewEdge) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  Version before = g.CurrentVersion();
  EXPECT_EQ(g.Degree(tiny.knows_out, tiny.persons[0], before), 2u);

  auto txn = g.BeginWrite({tiny.persons[0], tiny.persons[3]});
  ASSERT_TRUE(txn->AddEdge(tiny.knows, tiny.persons[0], tiny.persons[3], 7)
                  .ok());
  Version after = txn->Commit();

  EXPECT_EQ(g.Degree(tiny.knows_out, tiny.persons[0], before), 2u)
      << "old snapshot must not observe the new edge";
  EXPECT_EQ(g.Degree(tiny.knows_out, tiny.persons[0], after), 3u);
}

TEST(MvccTest, RemoveEdgeVersioned) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  Version before = g.CurrentVersion();
  auto txn = g.BeginWrite({tiny.persons[0], tiny.persons[1]});
  ASSERT_TRUE(txn->RemoveEdge(tiny.knows, tiny.persons[0], tiny.persons[1])
                  .ok());
  Version after = txn->Commit();
  EXPECT_EQ(g.Degree(tiny.knows_out, tiny.persons[0], before), 2u);
  EXPECT_EQ(g.Degree(tiny.knows_out, tiny.persons[0], after), 1u);
  // The IN direction is updated too.
  EXPECT_EQ(g.Degree(g.FindRelation(tiny.person, tiny.knows, tiny.person,
                                    Direction::kIn),
                     tiny.persons[1], after),
            1u);
}

TEST(MvccTest, PropertyWriteVersioned) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  Version before = g.CurrentVersion();
  auto txn = g.BeginWrite({tiny.messages[0]});
  txn->SetProperty(tiny.messages[0], tiny.len, Value::Int(999));
  Version after = txn->Commit();
  EXPECT_EQ(g.GetProperty(tiny.messages[0], tiny.len, before),
            Value::Int(140));
  EXPECT_EQ(g.GetProperty(tiny.messages[0], tiny.len, after),
            Value::Int(999));
}

TEST(MvccTest, CreateVertexVisibleOnlyAfterCommit) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  Version before = g.CurrentVersion();
  auto txn = g.BeginWrite({tiny.persons[0]});
  VertexId nv = txn->CreateVertex(tiny.person, 100,
                                  {{tiny.id, Value::Int(100)}});
  ASSERT_TRUE(txn->AddEdge(tiny.knows, tiny.persons[0], nv, 1).ok());
  EXPECT_EQ(g.LabelOf(nv, before), kInvalidLabel);
  Version after = txn->Commit();

  EXPECT_EQ(g.LabelOf(nv, after), tiny.person);
  EXPECT_EQ(g.LabelOf(nv, before), kInvalidLabel);
  EXPECT_EQ(g.FindByExtId(tiny.person, 100, after), nv);
  EXPECT_EQ(g.FindByExtId(tiny.person, 100, before), kInvalidVertex);
  EXPECT_EQ(g.NumVertices(tiny.person, after), 5u);
  EXPECT_EQ(g.NumVertices(tiny.person, before), 4u);
  EXPECT_EQ(g.GetProperty(nv, tiny.id, after), Value::Int(100));
  // New vertex reachable via the new edge at the new snapshot.
  AdjSpan s = g.Neighbors(tiny.knows_out, tiny.persons[0], after);
  bool found = false;
  for (uint32_t i = 0; i < s.size; ++i) found |= s.ids[i] == nv;
  EXPECT_TRUE(found);
}

TEST(MvccTest, AbortDiscardsChanges) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  Version before = g.CurrentVersion();
  {
    auto txn = g.BeginWrite({tiny.persons[0], tiny.persons[3]});
    ASSERT_TRUE(txn->AddEdge(tiny.knows, tiny.persons[0], tiny.persons[3], 7)
                    .ok());
    txn->Abort();
  }
  EXPECT_EQ(g.CurrentVersion(), before);
  EXPECT_EQ(g.Degree(tiny.knows_out, tiny.persons[0], g.CurrentVersion()),
            2u);
}

TEST(MvccTest, EdgeEndpointsMustBeInWriteSet) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  auto txn = g.BeginWrite({tiny.persons[0]});
  Status s = txn->AddEdge(tiny.knows, tiny.persons[0], tiny.persons[3], 7);
  EXPECT_FALSE(s.ok());
  txn->Abort();
}

TEST(MvccTest, SequentialTransactionsStackVersions) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  std::vector<Version> versions;
  for (int i = 0; i < 5; ++i) {
    auto txn = g.BeginWrite({tiny.persons[0], tiny.persons[3]});
    ASSERT_TRUE(
        txn->AddEdge(tiny.knows, tiny.persons[0], tiny.persons[3], i).ok());
    versions.push_back(txn->Commit());
  }
  // Each snapshot sees exactly the edges committed up to it.
  for (size_t i = 0; i < versions.size(); ++i) {
    EXPECT_EQ(g.Degree(tiny.knows_out, tiny.persons[0], versions[i]),
              2u + i + 1);
  }
}

// Concurrency: readers run against snapshots while writers commit; readers
// must always observe a consistent degree pair (the symmetric KNOWS edge is
// added to both endpoints atomically at commit).
TEST(MvccTest, ConcurrentReadersSeeAtomicCommits) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  RelationId knows_in =
      g.FindRelation(tiny.person, tiny.knows, tiny.person, Direction::kIn);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread reader([&] {
    while (!stop.load()) {
      Version v = g.CurrentVersion();
      uint32_t out_deg = g.Degree(tiny.knows_out, tiny.persons[0], v);
      uint32_t in_deg = g.Degree(knows_in, tiny.persons[3], v);
      // Writer adds p0->p3 and p3->p0 in one transaction: at any snapshot,
      // p0's extra out-degree == p3's extra in-degree.
      if (out_deg - 2 != in_deg - 2) violations.fetch_add(1);
    }
  });

  for (int i = 0; i < 200; ++i) {
    auto txn = g.BeginWrite({tiny.persons[0], tiny.persons[3]});
    ASSERT_TRUE(
        txn->AddEdge(tiny.knows, tiny.persons[0], tiny.persons[3], i).ok());
    ASSERT_TRUE(
        txn->AddEdge(tiny.knows, tiny.persons[3], tiny.persons[0], i).ok());
    txn->Commit();
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(MvccTest, ConcurrentWritersAllCommit) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 50;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&g, &tiny, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        VertexId a = tiny.persons[t % 4];
        VertexId b = tiny.persons[(t + 1) % 4];
        auto txn = g.BeginWrite({a, b});
        ASSERT_TRUE(txn->AddEdge(tiny.knows, a, b, i).ok());
        txn->Commit();
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(g.CurrentVersion(), uint64_t{kThreads * kTxnsPerThread});
  // Total knows out-degree grew by exactly the number of inserted edges.
  Version v = g.CurrentVersion();
  uint32_t total = 0;
  for (VertexId p : tiny.persons) total += g.Degree(tiny.knows_out, p, v);
  EXPECT_EQ(total, 8u + kThreads * kTxnsPerThread);
}

TEST(MvccTest, VersionCounterMonotoneUnderContention) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  std::atomic<bool> stop{false};
  std::atomic<int> regressions{0};
  std::thread watcher([&] {
    Version last = 0;
    while (!stop.load()) {
      Version v = g.CurrentVersion();
      if (v < last) regressions.fetch_add(1);
      last = v;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&g, &tiny, t] {
      for (int i = 0; i < 100; ++i) {
        auto txn = g.BeginWrite({tiny.persons[t]});
        txn->SetProperty(tiny.persons[t], tiny.id, Value::Int(i));
        txn->Commit();
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  watcher.join();
  EXPECT_EQ(regressions.load(), 0);
}

// --- first touches: the touched bits in front of the overlays ---

std::vector<VertexId> Ids(AdjSpan span) {
  return std::vector<VertexId>(span.ids, span.ids + span.size);
}

std::vector<int64_t> GatherInts(const Graph& g,
                                const std::vector<VertexId>& ids,
                                PropertyId prop, Version snapshot) {
  ValueVector out(ValueType::kInt64);
  g.GatherProperties(ids.data(), ids.size(), nullptr, prop, snapshot, &out);
  std::vector<int64_t> values;
  for (size_t i = 0; i < out.size(); ++i) values.push_back(out.GetInt(i));
  return values;
}

// The commit that first touches a bulk vertex in a relation, after another
// vertex of that relation already has overlay entries: a snapshot from
// before it reads the old list, one from after reads the new list.
TEST(MvccTest, FirstTouchOfBulkVertexVisibleFromItsCommit) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  const VertexId p0 = tiny.persons[0], p3 = tiny.persons[3];
  RelationId knows_in =
      g.FindRelation(tiny.person, tiny.knows, tiny.person, Direction::kIn);
  {
    auto txn = g.BeginWrite({p0, tiny.persons[1]});
    ASSERT_TRUE(txn->RemoveEdge(tiny.knows, p0, tiny.persons[1]).ok());
    ASSERT_GT(txn->Commit(), 0u);
  }
  const Version before = g.CurrentVersion();
  auto txn = g.BeginWrite({p3, p0});
  ASSERT_TRUE(txn->AddEdge(tiny.knows, p3, p0, 7).ok());
  const Version after = txn->Commit();
  ASSERT_GT(after, before);

  const std::vector<VertexId> old_list = {tiny.persons[1], tiny.persons[2]};
  const std::vector<VertexId> new_list = {p0, tiny.persons[1],
                                          tiny.persons[2]};
  EXPECT_EQ(Ids(g.Neighbors(tiny.knows_out, p3, before)), old_list);
  EXPECT_EQ(g.Degree(tiny.knows_out, p3, before), 2u);
  EXPECT_EQ(Ids(g.Neighbors(tiny.knows_out, p3, after)), new_list);
  EXPECT_EQ(g.Degree(tiny.knows_out, p3, after), 3u);
  // The reverse direction of the same commit first-touches p0's IN list.
  EXPECT_EQ(Ids(g.Neighbors(knows_in, p0, before)),
            (std::vector<VertexId>{tiny.persons[1], tiny.persons[2]}));
  EXPECT_EQ(Ids(g.Neighbors(knows_in, p0, after)),
            (std::vector<VertexId>{tiny.persons[1], tiny.persons[2], p3}));
  // Stamps travel with the first-touch entry.
  AdjSpan span = g.Neighbors(tiny.knows_out, p3, after);
  ASSERT_NE(span.stamps, nullptr);
  EXPECT_EQ(span.stamps[0], 7);
}

// The commit that first writes a bulk vertex's property, after another
// vertex's property was already written.
TEST(MvccTest, FirstPropertyWriteOfBulkVertexVisibleFromItsCommit) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  const std::vector<VertexId>& m = tiny.messages;
  {
    auto txn = g.BeginWrite({m[0]});
    txn->SetProperty(m[0], tiny.len, Value::Int(1));
    ASSERT_GT(txn->Commit(), 0u);
  }
  const Version before = g.CurrentVersion();
  auto txn = g.BeginWrite({m[2]});
  txn->SetProperty(m[2], tiny.len, Value::Int(777));
  const Version after = txn->Commit();

  EXPECT_EQ(g.GetProperty(m[2], tiny.len, before), Value::Int(120));
  EXPECT_EQ(g.GetProperty(m[2], tiny.len, after), Value::Int(777));
  EXPECT_EQ(GatherInts(g, m, tiny.len, before),
            (std::vector<int64_t>{1, 123, 120, 130, 100, 126}));
  EXPECT_EQ(GatherInts(g, m, tiny.len, after),
            (std::vector<int64_t>{1, 123, 777, 130, 100, 126}));
  // Another property of the written vertex still reads its base column.
  EXPECT_EQ(g.GetProperty(m[2], tiny.id, after), Value::Int(2));
}

// Vertices no touched bit covers keep the overlay probe: a post-bulk vertex
// in every relation, and a vertex passed to a relation of another label.
// Both still resolve after a forced compaction and further commits, as do
// bulk vertices whose chains the compaction absorbed (their bits cleared)
// or kept (a pinned reader held the cut below their newest entry).
TEST(MvccTest, UncoveredAndCompactedVerticesResolveAcrossCompaction) {
  TinyGraph tiny;
  Graph& g = *tiny.graph;
  const std::vector<VertexId>& p = tiny.persons;
  AdjScratch scratch;  // compacted levels decode into it
  auto commit_edge = [&](VertexId a, VertexId b, int64_t stamp) {
    auto txn = g.BeginWrite({a, b});
    EXPECT_TRUE(txn->AddEdge(tiny.knows, a, b, stamp).ok());
    return txn->Commit();
  };

  VertexId nv;
  Version created;
  {
    auto txn = g.BeginWrite({p[1]});
    nv = txn->CreateVertex(tiny.person, 100, {{tiny.id, Value::Int(100)}});
    ASSERT_TRUE(txn->AddEdge(tiny.knows, nv, p[1], 1).ok());
    created = txn->Commit();
  }
  commit_edge(p[3], p[0], 2);  // p3's chain: absorbed by the compaction
  const Version kept_floor = commit_edge(p[2], p[1], 3);
  SnapshotHandle pin = g.PinSnapshot();  // cut = kept_floor
  const Version p2_head = commit_edge(p[2], p[0], 4);  // above the cut

  auto check = [&](const char* when) {
    SCOPED_TRACE(when);
    const Version now = g.CurrentVersion();
    EXPECT_EQ(Ids(g.Neighbors(tiny.knows_out, nv, now, &scratch)),
              std::vector<VertexId>{p[1]});
    EXPECT_EQ(g.GetProperty(nv, tiny.id, now), Value::Int(100));
    EXPECT_EQ(GatherInts(g, {p[0], nv}, tiny.id, now),
              (std::vector<int64_t>{0, 100}));
    // A MESSAGE passed to the PERSON relation reads empty; its own
    // relation still serves it.
    EXPECT_EQ(g.Degree(tiny.knows_out, tiny.messages[3], now), 0u);
    EXPECT_EQ(
        Ids(g.Neighbors(tiny.msg_creator, tiny.messages[3], now, &scratch)),
        std::vector<VertexId>{p[3]});
    EXPECT_EQ(Ids(g.Neighbors(tiny.knows_out, p[3], now, &scratch)),
              (std::vector<VertexId>{p[0], p[1], p[2]}));
    EXPECT_EQ(Ids(g.Neighbors(tiny.knows_out, p[2], kept_floor, &scratch)),
              (std::vector<VertexId>{p[0], p[1], p[3]}));
    EXPECT_EQ(g.Degree(tiny.knows_out, p[2], p2_head), 4u);
  };
  check("before compaction");
  EXPECT_EQ(g.Degree(tiny.knows_out, nv, created - 1), 0u);
  CompactionOptions force;
  force.force = true;
  ASSERT_GT(g.CompactRelations(force).relations_compacted, 0u);
  check("after compaction");

  // The pinned reader still sees the state at the cut.
  EXPECT_EQ(g.Degree(tiny.knows_out, p[2], pin.version()), 3u);
  pin.Release();

  // Commits after the compaction: p3 (bit cleared by it), p2 (bit kept)
  // and the post-bulk vertex are touched again.
  const Version mid = g.CurrentVersion();
  commit_edge(p[3], p[3], 5);
  commit_edge(p[2], p[2], 6);
  commit_edge(nv, p[0], 7);
  const Version last = g.CurrentVersion();
  EXPECT_EQ(g.Degree(tiny.knows_out, p[3], mid), 3u);
  EXPECT_EQ(g.Degree(tiny.knows_out, p[3], last), 4u);
  EXPECT_EQ(g.Degree(tiny.knows_out, p[2], mid), 4u);
  EXPECT_EQ(g.Degree(tiny.knows_out, p[2], last), 5u);
  EXPECT_EQ(Ids(g.Neighbors(tiny.knows_out, nv, mid, &scratch)),
            std::vector<VertexId>{p[1]});
  EXPECT_EQ(Ids(g.Neighbors(tiny.knows_out, nv, last, &scratch)),
            (std::vector<VertexId>{p[0], p[1]}));
  EXPECT_EQ(g.Degree(tiny.knows_out, tiny.messages[3], last), 0u);
}

// Readers pin snapshots while a writer first-touches one fresh vertex per
// commit (an edge and a property) and a compactor absorbs the chains
// behind the pins: every pinned snapshot sees exactly the commits at or
// below it, through all four read paths.
TEST(MvccTest, ConcurrentReadersSeeFirstTouchesAtTheirSnapshots) {
  constexpr int kPersons = 256;
  Graph g;
  Catalog& c = g.catalog();
  const LabelId person = c.AddVertexLabel("PERSON");
  const LabelId knows = c.AddEdgeLabel("KNOWS");
  const PropertyId val = c.AddProperty(person, "val", ValueType::kInt64);
  g.RegisterRelation(person, knows, person);
  std::vector<VertexId> persons;
  for (int i = 0; i < kPersons; ++i) {
    persons.push_back(g.AddVertexBulk(person, i));
    g.SetPropertyBulk(persons.back(), val, Value::Int(0));
  }
  for (int i = 0; i < kPersons; ++i) {
    g.AddEdgeBulk(knows, persons[i], persons[(i + 1) % kPersons]);
  }
  g.FinalizeBulk();
  const RelationId out =
      g.FindRelation(person, knows, person, Direction::kOut);
  const Version base = g.CurrentVersion();
  // Commit i (version base + i + 1) adds i -> i + kPersons / 2 and sets
  // val(i) = i + 1.
  auto visible = [&](int i, Version s) { return base + i + 1 <= s; };

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      AdjScratch scratch;
      // One more pass after the writer stops, over every commit.
      for (bool last = false; !last;) {
        last = stop.load();
        SnapshotHandle pin = g.PinSnapshot();
        const Version s = pin.version();
        ValueVector gathered(ValueType::kInt64);
        g.GatherProperties(persons.data(), persons.size(), nullptr, val, s,
                           &gathered);
        for (int i = t; i < kPersons; i += 2) {
          const bool seen = visible(i, s);
          const uint32_t want = seen ? 2u : 1u;
          const int64_t want_val = seen ? i + 1 : 0;
          if (g.Degree(out, persons[i], s) != want ||
              g.Neighbors(out, persons[i], s, &scratch).size != want ||
              !(g.GetProperty(persons[i], val, s) == Value::Int(want_val)) ||
              gathered.GetInt(i) != want_val) {
            violations.fetch_add(1);
          }
        }
      }
    });
  }
  CompactionOptions force;
  force.force = true;
  for (int i = 0; i < kPersons; ++i) {
    VertexId a = persons[i], b = persons[(i + kPersons / 2) % kPersons];
    auto txn = g.BeginWrite({a, b});
    // EXPECT, not ASSERT: returning early would skip the readers' join.
    EXPECT_TRUE(txn->AddEdge(knows, a, b).ok());
    txn->SetProperty(a, val, Value::Int(i + 1));
    EXPECT_EQ(txn->Commit(), base + i + 1);
    std::this_thread::yield();
    if (i % 64 == 63) {
      g.CompactRelations(force);
      g.PruneVersions();
    }
  }
  stop.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0);
}

// Writes pick an edge's relations from its endpoints' own labels
// (WriteTxn::AddEdge/RemoveEdge), and WAL replay and the replica apply path
// go through them, so a bulk vertex never has an entry in a relation of
// another label and reads there as empty without an overlay probe. After
// IUs, on the primary and on a replica that applied the shipped
// transactions, a multi-relation Expand over posts and comments reads each
// message's own list, and every engine agrees with kFlat.
TEST(MvccTest, MultiRelationExpandReadsOwnLabelAfterUpdates) {
  testutil::SnbFixture primary;
  testutil::SnbFixture replica;
  LdbcContext ctx = LdbcContext::Resolve(primary.graph, primary.data.schema);
  std::vector<WalTxn> shipped;
  primary.graph.SetCommitListener(
      [&](Version v, const std::vector<WalRecord>& records) {
        WalTxn tx;
        tx.txid = tx.commit_version = v;
        tx.committed = true;
        for (const WalRecord& r : records) {
          if (r.type != WalRecordType::kBeginTx &&
              r.type != WalRecordType::kCommitTx) {
            tx.records.push_back(r);
          }
        }
        shipped.push_back(std::move(tx));
      });
  ParamGen params(&primary.graph, &primary.data, /*seed=*/5);
  for (int i = 0; i < 800; ++i) {
    RunIU(1 + i % 8, ctx, &primary.graph, &params, 7 + i);
  }
  primary.graph.ClearCommitListener();
  ASSERT_EQ(shipped.size(), 800u);
  for (const WalTxn& tx : shipped) {
    Status st = replica.graph.ApplyReplicatedTxn(tx);
    ASSERT_TRUE(st.ok()) << st.message();
  }

  PlanBuilder b("messages_by_country");
  b.ScanByLabel("p", ctx.s.person)
      .Expand("p", "m", {ctx.person_posts, ctx.person_comments})
      .Expand("m", "c", {ctx.post_country, ctx.comment_country})
      .GetProperty("c", ctx.p_id, ValueType::kInt64, "cid")
      .Aggregate({"cid"}, {AggSpec{AggSpec::kCount, "", "cnt"}})
      .Output({"cid", "cnt"});
  Plan plan = b.Build();
  std::vector<std::string> primary_rows;
  for (testutil::SnbFixture* fx : {&primary, &replica}) {
    const Graph& g = fx->graph;
    GraphView view(&g);
    // Each message read through the relation of its own label only.
    uint64_t want = 0;
    std::vector<VertexId> persons;
    g.ScanLabel(ctx.s.person, view.version(), &persons);
    for (VertexId person : persons) {
      for (RelationId rel : {ctx.person_posts, ctx.person_comments}) {
        AdjSpan msgs = view.Neighbors(rel, person);
        for (uint32_t i = 0; i < msgs.size; ++i) {
          const VertexId m = msgs.ids[i];
          const bool post = view.LabelOf(m) == ctx.s.post;
          want += view.Degree(post ? ctx.post_country : ctx.comment_country, m);
          EXPECT_EQ(view.Degree(post ? ctx.comment_country : ctx.post_country, m),
                    0u);
        }
      }
    }
    QueryResult flat = Executor(ExecMode::kFlat).Run(plan, view);
    uint64_t got = 0;
    for (const auto& row : flat.table.rows()) got += row[1].AsInt();
    EXPECT_EQ(got, want);
    std::vector<std::string> expected = testutil::SortedRows(flat.table);
    for (ExecMode mode : {ExecMode::kVolcano, ExecMode::kFactorized,
                          ExecMode::kFactorizedFused}) {
      EXPECT_EQ(testutil::SortedRows(Executor(mode).Run(plan, view).table),
                expected)
          << ExecModeName(mode);
    }
    if (primary_rows.empty()) {
      primary_rows = expected;
    } else {
      EXPECT_EQ(expected, primary_rows) << "replica differs from primary";
    }
  }
}

// Snapshot isolation observed through the service layer: two client
// sessions pin different versions across an IU-style commit; the session on
// the old snapshot keeps reading the pre-commit adjacency (AdjOverlay::Find
// resolving to the base run) until it explicitly refreshes.
TEST(MvccServiceTest, SessionsPinSnapshotsAcrossCommit) {
  // Local fixture: this test mutates the graph, so it must not share the
  // process-wide one with read-comparison tests.
  testutil::SnbFixture fx;
  LdbcContext ldbc = LdbcContext::Resolve(fx.graph, fx.data.schema);
  service::ServiceConfig config;
  config.query_workers = 2;
  service::Server server(&fx.graph, &fx.data, config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  service::Client a_client;
  ASSERT_TRUE(a_client.Connect("127.0.0.1", server.port()));
  Version v0 = a_client.snapshot();
  ASSERT_EQ(v0, fx.graph.CurrentVersion());

  // Person `a` and a person `b` it does not yet know.
  VertexId a = fx.data.persons[0];
  AdjSpan before = fx.graph.Neighbors(ldbc.knows, a, v0);
  VertexId b = kInvalidVertex;
  for (VertexId cand : fx.data.persons) {
    if (cand == a) continue;
    bool adjacent = false;
    for (uint32_t i = 0; i < before.size; ++i) {
      if (before.ids[i] == cand) adjacent = true;
    }
    if (!adjacent) {
      b = cand;
      break;
    }
  }
  ASSERT_NE(b, kInvalidVertex);

  LdbcParams p{};
  p.person = fx.graph.GetProperty(a, ldbc.p_id, v0).AsInt();
  service::QueryResponse resp;
  ASSERT_TRUE(a_client.RunIS(3, p, &resp));
  ASSERT_EQ(resp.status, service::WireStatus::kOk);
  auto friends_v0 = testutil::SortedRows(resp.table);
  ASSERT_EQ(friends_v0.size(), static_cast<size_t>(before.size));

  // A direct writer commits the friendship while both sessions exist.
  {
    auto txn = fx.graph.BeginWrite({a, b});
    ASSERT_TRUE(txn->AddEdge(fx.data.schema.knows, a, b, 12345).ok());
    ASSERT_TRUE(txn->AddEdge(fx.data.schema.knows, b, a, 12345).ok());
    ASSERT_GT(txn->Commit(), v0);
  }

  // A fresh session pins the post-commit version and sees the new friend.
  service::Client b_client;
  ASSERT_TRUE(b_client.Connect("127.0.0.1", server.port()));
  ASSERT_GT(b_client.snapshot(), v0);
  ASSERT_TRUE(b_client.RunIS(3, p, &resp));
  ASSERT_EQ(resp.status, service::WireStatus::kOk);
  auto friends_v1 = testutil::SortedRows(resp.table);
  EXPECT_EQ(friends_v1.size(), friends_v0.size() + 1);

  // The old session still reads its pinned snapshot...
  ASSERT_TRUE(a_client.RunIS(3, p, &resp));
  ASSERT_EQ(resp.status, service::WireStatus::kOk);
  EXPECT_EQ(testutil::SortedRows(resp.table), friends_v0);
  // ...and the storage layer agrees: the overlay resolves the old version
  // to the pre-commit adjacency run.
  EXPECT_EQ(fx.graph.Neighbors(ldbc.knows, a, v0).size, before.size);
  EXPECT_EQ(fx.graph.Neighbors(ldbc.knows, a, fx.graph.CurrentVersion()).size,
            before.size + 1);

  // Refresh re-pins the session; it now matches the fresh one.
  uint64_t refreshed = 0;
  ASSERT_TRUE(a_client.RefreshSnapshot(&refreshed));
  EXPECT_GT(refreshed, v0);
  ASSERT_TRUE(a_client.RunIS(3, p, &resp));
  ASSERT_EQ(resp.status, service::WireStatus::kOk);
  EXPECT_EQ(testutil::SortedRows(resp.table), friends_v1);

  server.Drain(1.0);
}

}  // namespace
}  // namespace ges

// WAL-shipping replication (DESIGN.md §13), end to end and in-process:
// snapshot + WAL-catch-up bootstrap, live frame streaming, durable replica
// restart, semi-synchronous commit acks, per-replica lag in ServiceStats,
// read-your-writes floors (LAGGING bounces), replica-aware client routing,
// and replica promotion.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/snb_generator.h"
#include "queries/ldbc.h"
#include "replication/log_shipper.h"
#include "replication/replica.h"
#include "replication/replication_wire.h"
#include "replication/routed_client.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "storage/graph.h"
#include "storage/wal.h"

namespace ges {
namespace {

using replication::Endpoint;
using replication::Replica;
using replication::RoutedClient;
using service::Client;
using service::QueryKind;
using service::QueryRequest;
using service::QueryResponse;
using service::Server;
using service::ServiceConfig;
using service::WireStatus;

class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/ges_repl_test_XXXXXX";
    path_ = ::mkdtemp(buf);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

SnbData SmallSnb(Graph* g) {
  SnbConfig snb;
  snb.scale_factor = 0.01;
  return GenerateSnb(snb, g);
}

Replica::Options ReplicaOpts(uint16_t primary_port,
                             const std::string& name = "replica") {
  Replica::Options opts;
  opts.primary_port = primary_port;
  opts.name = name;
  return opts;
}

// Runs one IU through `client`, asserting it commits; returns the commit
// version from the response table.
uint64_t CommitIU(Client* client, int number, uint64_t seed) {
  QueryResponse resp;
  EXPECT_TRUE(client->RunIU(number, seed, &resp)) << client->last_error();
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
  EXPECT_EQ(resp.table.NumRows(), 1u);
  return resp.snapshot_version;
}

// Order- and layout-independent digest of every relation's live adjacency
// at the graph's current version, keyed by external ids. Two graphs with
// the same logical content hash equal regardless of internal id
// assignment or where each edge physically lives (base CSR, MVCC overlay,
// or compressed segment).
uint64_t GraphFingerprint(const Graph& g) {
  const Version snap = g.CurrentVersion();
  const size_t num_vertices = g.NumVerticesTotal();
  AdjScratch scratch;
  uint64_t total = 0;
  for (RelationId rel = 0; rel < g.NumRelations(); ++rel) {
    // Numeric RelationIds are not stable across snapshot save/load (the
    // bootstrap path re-registers relations in sorted-key order), so hash
    // the relation's logical identity instead of its id.
    const RelationKey& key = g.RelationKeyOf(rel);
    const uint64_t rel_tag = (uint64_t{key.src_label} << 40) ^
                             (uint64_t{key.edge_label} << 24) ^
                             (uint64_t{key.dst_label} << 8) ^
                             static_cast<uint64_t>(key.direction);
    for (VertexId v = 0; v < num_vertices; ++v) {
      AdjSpan span = g.Neighbors(rel, v, snap, &scratch);
      std::vector<std::pair<int64_t, int64_t>> edges;
      for (uint32_t i = 0; i < span.size; ++i) {
        edges.emplace_back(g.ExtIdOf(span.ids[i], snap),
                           span.stamps != nullptr ? span.stamps[i] : 0);
      }
      if (edges.empty()) continue;
      std::sort(edges.begin(), edges.end());
      uint64_t h = 1469598103934665603ull;  // FNV-1a per source vertex
      auto mix = [&h](uint64_t x) {
        h ^= x;
        h *= 1099511628211ull;
      };
      mix(rel_tag);
      mix(static_cast<uint64_t>(g.ExtIdOf(v, snap)));
      for (const auto& [ext, stamp] : edges) {
        mix(static_cast<uint64_t>(ext));
        mix(static_cast<uint64_t>(stamp));
      }
      total += h;  // commutative fold: vertex visit order is irrelevant
    }
  }
  return total;
}

TEST(ReplicationWireTest, WalFrameCodecRoundTrip) {
  std::vector<WalRecord> records;
  WalRecord begin;
  begin.type = WalRecordType::kBeginTx;
  begin.txid = 7;
  records.push_back(begin);
  WalRecord ins;
  ins.type = WalRecordType::kInsertVertex;
  ins.txid = 7;
  ins.label = static_cast<LabelId>(3);
  ins.ext_id = 123;
  records.push_back(ins);
  WalRecord commit;
  commit.type = WalRecordType::kCommitTx;
  commit.txid = 7;
  records.push_back(commit);

  std::string frame = replication::EncodeWalFrame(/*commit_version=*/7,
                                                  records);
  WireReader in(frame);
  ASSERT_EQ(static_cast<service::MsgType>(in.GetU8()),
            service::MsgType::kWalFrame);
  WalTxn tx;
  ASSERT_TRUE(replication::DecodeWalFrame(&in, &tx));
  EXPECT_EQ(tx.commit_version, 7u);
  EXPECT_TRUE(tx.committed);
  // Begin/Commit markers are stripped: the frame delimits the txn itself.
  ASSERT_EQ(tx.records.size(), 1u);
  EXPECT_EQ(tx.records[0].type, WalRecordType::kInsertVertex);
  EXPECT_EQ(tx.records[0].label, static_cast<LabelId>(3));
  EXPECT_EQ(tx.records[0].ext_id, 123);

  // Truncated payloads are rejected, not misparsed.
  std::string cut = frame.substr(0, frame.size() - 3);
  WireReader bad(cut);
  bad.GetU8();
  WalTxn garbage;
  EXPECT_FALSE(replication::DecodeWalFrame(&bad, &garbage));

  // A record count beyond the bytes left is rejected before anything is
  // sized from it.
  WireBuf lying;
  lying.PutU64(7);            // commit version
  lying.PutU32(0xffffffffu);  // record count, no records follow
  WireReader huge(lying.data());
  EXPECT_FALSE(replication::DecodeWalFrame(&huge, &garbage));
}

TEST(ReplicationTest, BootstrapSnapshotServesReadsAndRejectsWrites) {
  Graph primary_graph;
  SnbData data = SmallSnb(&primary_graph);
  Server primary(&primary_graph, &data, ServiceConfig{});
  std::string error;
  ASSERT_TRUE(primary.Start(&error)) << error;

  // One real commit so the bootstrap snapshot carries a nonzero version
  // (bulk-loaded data alone sits at v0).
  {
    Client pclient;
    ASSERT_TRUE(pclient.Connect("127.0.0.1", primary.port()));
    ASSERT_GT(CommitIU(&pclient, 1, /*seed=*/7), 0u);
    pclient.Close();
  }

  Replica replica(ReplicaOpts(primary.port()));
  Status s = replica.Start();
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(replica.applied_version(), primary_graph.CurrentVersion());
  EXPECT_EQ(replica.graph()->NumVerticesTotal(),
            primary_graph.NumVerticesTotal());
  // The bootstrap snapshot flattens the primary's MVCC overlay into the
  // base CSR, and NumEdgesTotal counts only the CSR — so the replica may
  // report MORE physical edges than the primary (whose overlay edges are
  // invisible to the counter), never fewer.
  EXPECT_GE(replica.graph()->NumEdgesTotal(), primary_graph.NumEdgesTotal());

  // Serve reads from the replica's graph through a replica-mode server.
  SnbData rdata = RebuildSnbData(replica.graph());
  ServiceConfig rcfg;
  rcfg.replica = true;
  Server replica_server(replica.graph(), &rdata, rcfg);
  ASSERT_TRUE(replica_server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", replica_server.port()));
  ParamGen gen(replica.graph(), &rdata, /*seed=*/1);
  QueryResponse resp;
  ASSERT_TRUE(client.RunIS(1, gen.Next(), &resp)) << client.last_error();
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
  EXPECT_GT(resp.snapshot_version, 0u);

  // The single-writer rule on the wire: updates bounce with READ_ONLY.
  ASSERT_TRUE(client.RunIU(1, /*seed=*/1, &resp)) << client.last_error();
  EXPECT_EQ(resp.status, WireStatus::kReadOnly);
  EXPECT_NE(resp.message.find("primary"), std::string::npos) << resp.message;

  client.Close();
  replica_server.Drain(2.0);
  replica.Stop();
  primary.Drain(2.0);
}

TEST(ReplicationTest, LiveWalStreamingAdvancesReplica) {
  Graph primary_graph;
  SnbData data = SmallSnb(&primary_graph);
  Server primary(&primary_graph, &data, ServiceConfig{});
  std::string error;
  ASSERT_TRUE(primary.Start(&error)) << error;

  Replica replica(ReplicaOpts(primary.port()));
  ASSERT_TRUE(replica.Start().ok()) << replica.last_error();

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.port()));
  uint64_t last_commit = 0;
  for (int i = 1; i <= 5; ++i) {
    last_commit = CommitIU(&client, 1 + (i % 3), /*seed=*/100 + i);
  }
  ASSERT_GT(last_commit, 0u);

  ASSERT_TRUE(replica.WaitForVersion(last_commit, /*timeout_s=*/10.0))
      << "replica stuck at v" << replica.applied_version() << ": "
      << replica.last_error();
  EXPECT_EQ(replica.applied_version(), primary_graph.CurrentVersion());
  EXPECT_EQ(replica.graph()->NumVerticesTotal(),
            primary_graph.NumVerticesTotal());
  EXPECT_EQ(replica.graph()->NumEdgesTotal(), primary_graph.NumEdgesTotal());

  client.Close();
  replica.Stop();
  primary.Drain(2.0);
}

// A replica bootstrapping while the primary's delta-merge compactor is
// swapping segments must still get an exact cut: CollectReplicationBacklog
// and the compaction swap serialize on checkpoint_mu_ + the commit mutex,
// so the snapshot either fully precedes or fully follows every swap and
// the version counter (which compaction never advances) stays gap-free.
// (Regression: an unserialized swap let the bootstrap snapshot capture a
// half-installed relation, and the replica diverged from the primary.)
TEST(ReplicationTest, BootstrapDuringCompactionStormIsConsistent) {
  Graph primary_graph;
  SnbData data = SmallSnb(&primary_graph);
  Server primary(&primary_graph, &data, ServiceConfig{});
  std::string error;
  ASSERT_TRUE(primary.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.port()));

  std::atomic<bool> stop{false};
  std::thread compactor([&primary_graph, &stop] {
    CompactionOptions opts;
    opts.force = true;
    while (!stop.load(std::memory_order_acquire)) {
      primary_graph.CompactRelations(opts);
      primary_graph.PruneVersions();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Bootstrap mid-storm, with commits continuing before and after.
  uint64_t last_commit = 0;
  for (int i = 1; i <= 3; ++i) {
    last_commit = CommitIU(&client, 1 + (i % 3), /*seed=*/300 + i);
  }
  Replica replica(ReplicaOpts(primary.port(), "midstorm"));
  ASSERT_TRUE(replica.Start().ok()) << replica.last_error();
  for (int i = 4; i <= 8; ++i) {
    last_commit = CommitIU(&client, 1 + (i % 3), /*seed=*/300 + i);
  }
  ASSERT_GT(last_commit, 0u);

  ASSERT_TRUE(replica.WaitForVersion(last_commit, /*timeout_s=*/10.0))
      << "replica stuck at v" << replica.applied_version() << ": "
      << replica.last_error();
  stop.store(true, std::memory_order_release);
  compactor.join();

  EXPECT_EQ(replica.applied_version(), primary_graph.CurrentVersion());
  EXPECT_EQ(replica.graph()->NumVerticesTotal(),
            primary_graph.NumVerticesTotal());

  // NumEdgesTotal counts only folded storage (base CSR + segments), so the
  // raw counters legitimately diverge here: the storming primary kept
  // folding post-bootstrap commits into segments while the replica's
  // counter froze at its bootstrap cut. Fold both sides at the same — now
  // quiescent — version and the counters must agree exactly.
  CompactionOptions fold;
  fold.force = true;
  primary_graph.CompactRelations(fold);
  replica.graph()->CompactRelations(fold);
  EXPECT_EQ(replica.graph()->NumEdgesTotal(), primary_graph.NumEdgesTotal());

  // The real consistency claim: edge-for-edge identical content, however
  // each side happens to lay it out.
  EXPECT_EQ(GraphFingerprint(*replica.graph()),
            GraphFingerprint(primary_graph));

  client.Close();
  replica.Stop();
  primary.Drain(2.0);
}

TEST(ReplicationTest, DurableReplicaRestartCatchesUpFromWal) {
  TempDir primary_dir;
  TempDir replica_dir;
  auto primary_graph = std::make_unique<Graph>();
  SnbData data = SmallSnb(primary_graph.get());
  ASSERT_TRUE(
      primary_graph->EnableDurability(primary_dir.path(), DurabilityOptions{})
          .ok());
  Server primary(primary_graph.get(), &data, ServiceConfig{});
  std::string error;
  ASSERT_TRUE(primary.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.port()));

  uint64_t first_commit;
  {
    Replica::Options opts = ReplicaOpts(primary.port(), "durable-replica");
    opts.data_dir = replica_dir.path();
    Replica replica(opts);
    ASSERT_TRUE(replica.Start().ok()) << replica.last_error();
    first_commit = CommitIU(&client, 1, /*seed=*/1);
    ASSERT_TRUE(replica.WaitForVersion(first_commit, 10.0));
    replica.Stop();  // replica leaves; its directory keeps v<first_commit>
  }

  // Commits the replica missed while down.
  uint64_t last_commit = 0;
  for (int i = 0; i < 3; ++i) {
    last_commit = CommitIU(&client, 2, /*seed=*/50 + i);
  }

  // Restart: local recovery first, then WAL-only catch-up from its own
  // applied version (the primary has not checkpointed past it).
  Replica::Options opts = ReplicaOpts(primary.port(), "durable-replica");
  opts.data_dir = replica_dir.path();
  Replica replica(opts);
  ASSERT_TRUE(replica.Start().ok()) << replica.last_error();
  EXPECT_GE(replica.applied_version(), first_commit);
  ASSERT_TRUE(replica.WaitForVersion(last_commit, 10.0))
      << "stuck at v" << replica.applied_version();
  EXPECT_EQ(replica.graph()->NumVerticesTotal(),
            primary_graph->NumVerticesTotal());

  replica.Stop();
  client.Close();
  primary.Drain(2.0);
}

TEST(ReplicationTest, SemisyncCommitRequiresReplicaAck) {
  Graph primary_graph;
  SnbData data = SmallSnb(&primary_graph);
  ServiceConfig cfg;
  cfg.min_replica_acks = 1;
  cfg.replica_ack_timeout_seconds = 0.3;
  Server primary(&primary_graph, &data, cfg);
  std::string error;
  ASSERT_TRUE(primary.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.port()));

  // No replica connected: the commit lands locally but the ack wait times
  // out, so the client is explicitly told it was NOT acknowledged.
  QueryResponse resp;
  ASSERT_TRUE(client.RunIU(1, /*seed=*/1, &resp)) << client.last_error();
  EXPECT_EQ(resp.status, WireStatus::kError);
  EXPECT_NE(resp.message.find("not acknowledged"), std::string::npos)
      << resp.message;
  EXPECT_GE(primary.stats().semisync_timeouts.load(), 1u);

  // With a live replica the same update is acknowledged.
  Replica replica(ReplicaOpts(primary.port()));
  ASSERT_TRUE(replica.Start().ok()) << replica.last_error();
  ASSERT_TRUE(client.RunIU(2, /*seed=*/2, &resp)) << client.last_error();
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
  EXPECT_GE(replica.applied_version(), resp.snapshot_version);

  client.Close();
  replica.Stop();
  primary.Drain(2.0);
}

TEST(ReplicationTest, PerReplicaLagExportedInStats) {
  Graph primary_graph;
  SnbData data = SmallSnb(&primary_graph);
  Server primary(&primary_graph, &data, ServiceConfig{});
  std::string error;
  ASSERT_TRUE(primary.Start(&error)) << error;

  Replica replica(ReplicaOpts(primary.port(), "lag-probe"));
  ASSERT_TRUE(replica.Start().ok()) << replica.last_error();

  // The shipper owns the lag view; wait until the replica's first ack
  // (the heartbeat/ack loop then keeps last-ack age fresh).
  std::vector<replication::ReplicaLagInfo> lag;
  for (int i = 0; i < 500; ++i) {
    lag = primary.shipper()->LagSnapshot();
    if (lag.size() == 1 && lag[0].connected &&
        lag[0].applied_version == primary_graph.CurrentVersion()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(lag.size(), 1u);
  const auto& info = lag[0];
  EXPECT_EQ(info.name, "lag-probe");
  EXPECT_TRUE(info.connected);
  EXPECT_EQ(info.applied_version, primary_graph.CurrentVersion());
  EXPECT_EQ(info.lag_commits, 0u);
  EXPECT_LT(info.last_ack_age_s, 5.0);
  std::string rendered = primary.StatsReport();
  EXPECT_NE(rendered.find("replication:"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("lag-probe"), std::string::npos) << rendered;

  replica.Stop();
  primary.Drain(2.0);
}

TEST(ReplicationTest, RywFloorAnswersLaggingWhenBehind) {
  Graph graph;
  SnbData data = SmallSnb(&graph);
  ServiceConfig cfg;
  cfg.ryw_wait_ms = 20;
  Server server(&graph, &data, cfg);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  // A floor the graph can never reach within the wait bound: the server
  // must answer LAGGING (with its applied version) instead of serving a
  // state older than the client's write.
  QueryRequest req;
  req.query_id = client.AllocQueryId();
  req.kind = QueryKind::kSleep;
  req.seed = 0;
  req.min_version = graph.CurrentVersion() + 1000;
  QueryResponse resp;
  ASSERT_TRUE(client.Run(req, &resp)) << client.last_error();
  EXPECT_EQ(resp.status, WireStatus::kLagging) << resp.message;
  EXPECT_EQ(resp.snapshot_version, graph.CurrentVersion());
  EXPECT_GE(server.stats().ryw_lagging.load(), 1u);

  // A satisfiable floor works and executes at >= the floor.
  req.query_id = client.AllocQueryId();
  req.min_version = graph.CurrentVersion();
  ASSERT_TRUE(client.Run(req, &resp)) << client.last_error();
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
  EXPECT_GE(resp.snapshot_version, req.min_version);

  client.Close();
  server.Drain(2.0);
}

TEST(ReplicationTest, RoutedClientFansOutAndHonorsReadYourWrites) {
  Graph primary_graph;
  SnbData data = SmallSnb(&primary_graph);
  Server primary(&primary_graph, &data, ServiceConfig{});
  std::string error;
  ASSERT_TRUE(primary.Start(&error)) << error;

  Replica r1(ReplicaOpts(primary.port(), "r1"));
  Replica r2(ReplicaOpts(primary.port(), "r2"));
  ASSERT_TRUE(r1.Start().ok()) << r1.last_error();
  ASSERT_TRUE(r2.Start().ok()) << r2.last_error();

  SnbData d1 = RebuildSnbData(r1.graph());
  SnbData d2 = RebuildSnbData(r2.graph());
  ServiceConfig rcfg;
  rcfg.replica = true;
  Server s1(r1.graph(), &d1, rcfg);
  Server s2(r2.graph(), &d2, rcfg);
  ASSERT_TRUE(s1.Start(&error)) << error;
  ASSERT_TRUE(s2.Start(&error)) << error;

  RoutedClient::Options ropts;
  ropts.primary = Endpoint{"127.0.0.1", primary.port()};
  ropts.replicas = {Endpoint{"127.0.0.1", s1.port()},
                    Endpoint{"127.0.0.1", s2.port()}};
  RoutedClient router(ropts);

  // Reads fan out round-robin across the two replicas.
  QueryResponse resp;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(router.RunSleep(/*millis=*/0, &resp)) << router.last_error();
    EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
  }
  EXPECT_GE(s1.stats().queries_received.load(), 2u);
  EXPECT_GE(s2.stats().queries_received.load(), 2u);
  EXPECT_EQ(primary.stats().queries_received.load(), 0u);

  // Updates go to the primary and mint the RYW token; every subsequent
  // read — wherever it lands — observes at least the token's version.
  ASSERT_TRUE(router.RunIU(1, /*seed=*/5, &resp)) << router.last_error();
  ASSERT_EQ(resp.status, WireStatus::kOk) << resp.message;
  uint64_t token = router.ryw_token();
  EXPECT_GT(token, 0u);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(router.RunSleep(/*millis=*/0, &resp)) << router.last_error();
    ASSERT_EQ(resp.status, WireStatus::kOk) << resp.message;
    EXPECT_GE(resp.snapshot_version, token)
        << "read observed a state older than the client's own write";
  }

  router.Close();
  s1.Drain(2.0);
  s2.Drain(2.0);
  r1.Stop();
  r2.Stop();
  primary.Drain(2.0);
}

TEST(ReplicationTest, PromotedReplicaAcceptsWrites) {
  auto primary_graph = std::make_unique<Graph>();
  SnbData data = SmallSnb(primary_graph.get());
  auto primary = std::make_unique<Server>(primary_graph.get(), &data,
                                          ServiceConfig{});
  std::string error;
  ASSERT_TRUE(primary->Start(&error)) << error;

  Replica replica(ReplicaOpts(primary->port(), "successor"));
  ASSERT_TRUE(replica.Start().ok()) << replica.last_error();
  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", primary->port()));
    uint64_t commit = CommitIU(&client, 1, /*seed=*/1);
    ASSERT_TRUE(replica.WaitForVersion(commit, 10.0));
  }

  SnbData rdata = RebuildSnbData(replica.graph());
  ServiceConfig rcfg;
  rcfg.replica = true;
  Server replica_server(replica.graph(), &rdata, rcfg);
  ASSERT_TRUE(replica_server.Start(&error)) << error;

  // "Failover": the primary dies, the replica is promoted.
  uint64_t applied_at_promotion = replica.applied_version();
  primary->Drain(1.0);
  primary.reset();
  primary_graph.reset();
  ASSERT_TRUE(replica.Promote().ok());
  replica_server.PromoteToPrimary();
  EXPECT_FALSE(replica_server.replica_mode());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", replica_server.port()));
  QueryResponse resp;
  ASSERT_TRUE(client.RunIU(1, /*seed=*/9, &resp)) << client.last_error();
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
  EXPECT_GT(resp.snapshot_version, applied_at_promotion);
  client.Close();
  replica_server.Drain(2.0);
}

}  // namespace
}  // namespace ges

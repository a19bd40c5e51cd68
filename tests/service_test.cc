// End-to-end tests of the query service: wire protocol, sessions,
// admission backpressure, idle reaping, drain. The server runs in-process
// on an ephemeral port; clients are real TCP connections.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "harness/service_load.h"
#include "queries/ldbc.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using service::Client;
using service::QueryRequest;
using service::QueryResponse;
using service::Server;
using service::ServiceConfig;
using service::WireStatus;

// One server per fixture-graph test; SnbFixture::Shared is mutated by IU
// queries, so reads always compare at an explicitly pinned version.
std::unique_ptr<Server> StartServer(ServiceConfig config = {}) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  auto server = std::make_unique<Server>(&fx.graph, &fx.data, config);
  std::string error;
  EXPECT_TRUE(server->Start(&error)) << error;
  return server;
}

TEST(ServiceProtocolTest, QueryRequestRoundTrip) {
  QueryRequest req;
  req.query_id = 42;
  req.kind = service::QueryKind::kIC;
  req.number = 5;
  req.deadline_ms = 1500;
  req.params.person = 123;
  req.params.first_name = "Jan";
  req.params.max_date = 99999;
  std::string payload = EncodeQueryRequest(req);
  WireReader in(payload);
  EXPECT_EQ(in.GetU8(), static_cast<uint8_t>(service::MsgType::kQuery));
  QueryRequest back;
  ASSERT_TRUE(DecodeQueryRequest(&in, &back));
  EXPECT_EQ(back.query_id, 42u);
  EXPECT_EQ(back.kind, service::QueryKind::kIC);
  EXPECT_EQ(back.number, 5);
  EXPECT_EQ(back.deadline_ms, 1500u);
  EXPECT_EQ(back.params.person, 123);
  EXPECT_EQ(back.params.first_name, "Jan");
  EXPECT_EQ(back.params.max_date, 99999);
}

TEST(ServiceProtocolTest, ReaderRejectsTruncatedPayload) {
  WireBuf b;
  b.PutU64(7);
  std::string payload = b.Take();
  payload.resize(3);  // cut mid-integer
  WireReader in(payload);
  in.GetU64();
  EXPECT_FALSE(in.ok());
}

TEST(ServiceSessionTest, HelloPingParamsSnapshot) {
  auto server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()))
      << client.last_error();
  EXPECT_GT(client.session_id(), 0u);
  EXPECT_TRUE(client.Ping());

  // The pinned snapshot matches the graph's version at connect time and
  // refresh re-pins to current.
  uint64_t refreshed = 0;
  EXPECT_TRUE(client.RefreshSnapshot(&refreshed));
  EXPECT_EQ(refreshed, client.snapshot());
  client.Close();
  EXPECT_FALSE(client.connected());
}

TEST(ServiceSessionTest, ConnectionLimitRejectsExtraClients) {
  ServiceConfig config;
  config.max_connections = 1;
  auto server = StartServer(config);
  Client first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server->port()));
  Client second;
  EXPECT_FALSE(second.Connect("127.0.0.1", server->port()));
  EXPECT_NE(second.last_error().find("RESOURCE_EXHAUSTED"),
            std::string::npos)
      << second.last_error();
  EXPECT_GE(server->stats().connections_rejected.load(), 1u);
}

TEST(ServiceSessionTest, MalformedQueryAnswersInvalidArgument) {
  auto server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  QueryRequest req;
  req.query_id = client.AllocQueryId();
  req.kind = service::QueryKind::kIC;
  req.number = 99;  // out of range
  QueryResponse resp;
  ASSERT_TRUE(client.Run(req, &resp));
  EXPECT_EQ(resp.status, WireStatus::kInvalidArgument);
}

// Acceptance: >= 4 concurrent sessions run IC/IS/IU through the wire and
// reads match direct Executor calls at the same snapshot bit-for-bit.
TEST(ServiceE2eTest, ConcurrentSessionsMatchDirectExecution) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  ServiceConfig config;
  config.query_workers = 4;
  auto server = StartServer(config);

  constexpr int kSessions = 4;
  const int ic_numbers[] = {1, 2, 5, 9, 11};
  const int is_numbers[] = {1, 2, 3, 4, 5, 6, 7};
  std::atomic<int> failures{0};
  std::vector<std::thread> sessions;
  for (int tid = 0; tid < kSessions; ++tid) {
    sessions.emplace_back([&, tid] {
      Client client;
      if (!client.Connect("127.0.0.1", server->port())) {
        ++failures;
        return;
      }
      // Each session gets its own deterministic parameter stream; the
      // snapshot pinned at connect keeps reads stable even while other
      // sessions commit IU updates.
      ParamGen gen(&fx.graph, &fx.data, /*seed=*/500 + tid);
      Version snapshot = client.snapshot();
      ExecOptions opts;
      opts.collect_stats = false;
      Executor direct(config.exec_mode, opts);
      GraphView view(&fx.graph, snapshot);

      for (int k : ic_numbers) {
        LdbcParams p = gen.Next();
        QueryResponse resp;
        if (!client.RunIC(k, p, &resp) || resp.status != WireStatus::kOk) {
          ++failures;
          continue;
        }
        QueryResult expect = direct.Run(BuildIC(k, ctx, p), view);
        if (testutil::SortedRows(resp.table) !=
            testutil::SortedRows(expect.table)) {
          ADD_FAILURE() << "IC" << k << " mismatch (session " << tid << ")";
          ++failures;
        }
      }
      for (int k : is_numbers) {
        LdbcParams p = gen.Next();
        QueryResponse resp;
        if (!client.RunIS(k, p, &resp) || resp.status != WireStatus::kOk) {
          ++failures;
          continue;
        }
        QueryResult expect = direct.Run(BuildIS(k, ctx, p), view);
        if (testutil::SortedRows(resp.table) !=
            testutil::SortedRows(expect.table)) {
          ADD_FAILURE() << "IS" << k << " mismatch (session " << tid << ")";
          ++failures;
        }
      }
      // Updates through the wire: must commit and advance this session's
      // snapshot (read-your-writes).
      QueryResponse iu;
      if (!client.RunIU(2, /*seed=*/9000 + tid, &iu) ||
          iu.status != WireStatus::kOk || iu.table.NumRows() != 1) {
        ++failures;
        return;
      }
      int64_t commit = iu.table.rows()[0][0].AsInt();
      if (commit <= static_cast<int64_t>(snapshot)) ++failures;
    });
  }
  for (auto& t : sessions) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server->stats().queries_ok.load(),
            static_cast<uint64_t>(kSessions * 13));
}

TEST(ServiceAdmissionTest, BackpressureAnswersResourceExhausted) {
  ServiceConfig config;
  config.query_workers = 1;
  config.queue_capacity = 2;
  auto server = StartServer(config);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));

  // Pipeline 8 sleeps: one runs, two queue, the rest must bounce with
  // RESOURCE_EXHAUSTED instead of growing the queue.
  constexpr int kQueries = 8;
  for (int i = 0; i < kQueries; ++i) {
    QueryRequest req;
    req.query_id = client.AllocQueryId();
    req.kind = service::QueryKind::kSleep;
    req.seed = 100;  // ms
    ASSERT_TRUE(client.Send(req));
  }
  int ok = 0, rejected = 0;
  for (int i = 0; i < kQueries; ++i) {
    QueryResponse resp;
    ASSERT_TRUE(client.ReadResponse(&resp)) << client.last_error();
    if (resp.status == WireStatus::kOk) ++ok;
    if (resp.status == WireStatus::kResourceExhausted) ++rejected;
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(ok + rejected, kQueries);
  EXPECT_EQ(server->stats().queries_rejected.load(),
            static_cast<uint64_t>(rejected));
}

TEST(ServiceAdmissionTest, CostModelLearnsFromObservations) {
  service::QueryCostModel model(/*short_threshold_ms=*/5.0);
  // Priors: complex reads start long, short reads start short.
  EXPECT_FALSE(model.IsShort("IC5"));
  EXPECT_TRUE(model.IsShort("IS3"));
  // Observations move a nominally long query under the threshold...
  for (int i = 0; i < 30; ++i) model.Observe("IC5", 0.3);
  EXPECT_TRUE(model.IsShort("IC5"));
  // ...and a nominally short one above it.
  for (int i = 0; i < 30; ++i) model.Observe("IS3", 80.0);
  EXPECT_FALSE(model.IsShort("IS3"));
}

TEST(ServiceSessionTest, IdleSessionsAreReaped) {
  ServiceConfig config;
  config.idle_timeout_seconds = 0.15;
  auto server = StartServer(config);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  ASSERT_TRUE(client.Ping());
  // Go idle — no frames at all — past the timeout; the reaper shuts the
  // connection down. (Pinging while waiting would reset the idle clock.)
  bool reaped = false;
  for (int i = 0; i < 100 && !reaped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    reaped = server->stats().sessions_reaped.load() >= 1;
  }
  EXPECT_TRUE(reaped);
  EXPECT_FALSE(client.Ping()) << "server should have closed the session";
}

TEST(ServiceDrainTest, DrainCancelsInflightAndRefusesNewConnections) {
  ServiceConfig config;
  config.query_workers = 1;
  auto server = StartServer(config);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));

  // One long sleep runs, two more wait behind it.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    QueryRequest req;
    req.query_id = client.AllocQueryId();
    req.kind = service::QueryKind::kSleep;
    req.seed = 400;  // ms, far beyond the drain grace below
    ids.push_back(req.query_id);
    ASSERT_TRUE(client.Send(req));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server->Drain(/*grace_seconds=*/0.05);
  EXPECT_TRUE(server->draining());

  // Every admitted query is still answered — with an interruption status,
  // not silence.
  int non_ok = 0, got = 0;
  for (int i = 0; i < 3; ++i) {
    QueryResponse resp;
    if (!client.ReadResponse(&resp)) break;
    ++got;
    if (resp.status != WireStatus::kOk) ++non_ok;
  }
  EXPECT_EQ(got, 3);
  EXPECT_GE(non_ok, 2) << "drain must cut the queued sleeps short";

  Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server->port()));
}

// The harness load generator against a live server: sanity for the bench
// path (closed + open loop, statuses accounted, latencies recorded).
TEST(ServiceLoadTest, ClosedAndOpenLoopRunToCompletion) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  ServiceConfig config;
  config.query_workers = 2;
  auto server = StartServer(config);
  ParamGen params(&fx.graph, &fx.data, /*seed=*/321);
  std::vector<MixEntry> mix = {{{QueryKind::kIS, 2}, 3.0},
                               {{QueryKind::kIS, 3}, 3.0},
                               {{QueryKind::kIC, 5}, 1.0}};

  ServiceLoadConfig lc;
  lc.port = server->port();
  lc.connections = 3;
  lc.total_ops = 60;
  lc.mix = mix;
  ServiceLoadReport closed = RunServiceLoad(lc, &params);
  EXPECT_EQ(closed.completed, 60u);
  EXPECT_EQ(closed.errors, 0u);
  EXPECT_EQ(closed.ok, 60u);
  EXPECT_GT(closed.AggregateAll().count(), 0u);
  EXPECT_GT(closed.AggregatePrefix("IS").count(), 0u);

  lc.open_loop_rate = 200;  // well under capacity
  ServiceLoadReport open = RunServiceLoad(lc, &params);
  EXPECT_EQ(open.completed, 60u);
  EXPECT_EQ(open.errors, 0u);
  EXPECT_GT(open.AggregateAll().count(), 0u);
}

}  // namespace
}  // namespace ges

// Cooperative cancellation and deadlines: QueryContext semantics, the
// engine's checkpoint plumbing (ParallelFor morsels, Expand rows), and the
// service-level acceptance case — a deliberately slow IC5-class expansion
// returns DEADLINE_EXCEEDED within 2x its deadline while concurrent short
// queries keep completing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "runtime/query_context.h"
#include "runtime/scheduler.h"
#include "service/client.h"
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

TEST(QueryContextTest, FreshContextIsClean) {
  QueryContext ctx;
  EXPECT_EQ(ctx.Check(), InterruptReason::kNone);
  EXPECT_FALSE(ctx.has_deadline());
  ThrowIfInterrupted(&ctx);       // no-op
  ThrowIfInterrupted(nullptr);    // nullptr contexts are always fine
}

TEST(QueryContextTest, ExpiredDeadlineTripsCheck) {
  QueryContext ctx;
  ctx.SetDeadline(-0.001);  // already in the past
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_EQ(ctx.Check(), InterruptReason::kDeadlineExceeded);
  bool threw = false;
  try {
    ThrowIfInterrupted(&ctx);
  } catch (const QueryInterrupted& e) {
    threw = true;
    EXPECT_EQ(e.reason, InterruptReason::kDeadlineExceeded);
  }
  EXPECT_TRUE(threw);
}

TEST(QueryContextTest, CancelWinsOverDeadline) {
  QueryContext ctx;
  ctx.SetDeadline(-0.001);
  ctx.Cancel();
  EXPECT_EQ(ctx.Check(), InterruptReason::kCancelled);
}

TEST(QueryContextTest, FutureDeadlineExpiresOnTime) {
  QueryContext ctx;
  ctx.SetDeadline(0.05);
  EXPECT_EQ(ctx.Check(), InterruptReason::kNone);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(ctx.Check(), InterruptReason::kDeadlineExceeded);
}

TEST(ParallelForCancellationTest, PreCancelledContextThrows) {
  TaskScheduler sched(2);
  QueryContext ctx;
  ctx.Cancel();
  std::atomic<int> executed{0};
  bool threw = false;
  try {
    sched.ParallelFor(0, 1000, 16, /*max_workers=*/2,
                      [&](size_t, size_t) { ++executed; }, &ctx);
  } catch (const QueryInterrupted& e) {
    threw = true;
    EXPECT_EQ(e.reason, InterruptReason::kCancelled);
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(executed.load(), 0) << "no morsel should start when cancelled";
}

TEST(ParallelForCancellationTest, MidRunCancelStopsEarly) {
  TaskScheduler sched(2);
  QueryContext ctx;
  std::atomic<int> executed{0};
  bool threw = false;
  try {
    sched.ParallelFor(
        0, 10000, 1, /*max_workers=*/2,
        [&](size_t begin, size_t) {
          if (begin == 0) ctx.Cancel();  // first morsel trips the context
          ++executed;
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        },
        &ctx);
  } catch (const QueryInterrupted&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  EXPECT_LT(executed.load(), 10000) << "cancel must cut the loop short";
}

// The deadline tests need a query that genuinely outlasts its deadline.
// On small fixtures the knows graph saturates the stress BFS quickly (with
// the bitmap-backed BFS, the 4-hop plan takes ~130 ms at sf=0.05), so they
// use a larger graph where the same plan runs for several hundred
// milliseconds.
testutil::SnbFixture& StressFixture() {
  static testutil::SnbFixture* fx = new testutil::SnbFixture(0.1, 42);
  return *fx;
}

// Engine-level deadline: run the stress plan directly through the Executor
// with an armed context and verify it comes back as DEADLINE_EXCEEDED well
// inside the 2x-deadline acceptance bound.
TEST(EngineDeadlineTest, StressExpandHonorsDeadline) {
  testutil::SnbFixture& fx = StressFixture();
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  GraphView view(&fx.graph);
  Plan plan = service::BuildStressExpand(ctx, /*hops=*/4);

  // Baseline: without a deadline the plan must be slow enough that the
  // deadline below actually bites (otherwise the test proves nothing).
  constexpr double kDeadlineSeconds = 0.05;
  {
    Timer t;
    ExecOptions opts;
    opts.collect_stats = false;
    Executor exec(ExecMode::kFactorizedFused, opts);
    QueryResult r = exec.Run(plan, view);
    ASSERT_EQ(r.interrupted, InterruptReason::kNone);
    if (t.ElapsedSeconds() < 3 * kDeadlineSeconds) {
      GTEST_SKIP() << "stress plan too fast on this machine ("
                   << t.ElapsedMillis() << " ms) to exercise the deadline";
    }
  }

  QueryContext qctx;
  qctx.SetDeadline(kDeadlineSeconds);
  ExecOptions opts;
  opts.collect_stats = false;
  opts.intra_query_threads = 2;  // cover the morsel checkpoint path too
  opts.context = &qctx;
  Executor exec(ExecMode::kFactorizedFused, opts);
  Timer t;
  QueryResult r = exec.Run(plan, view);
  double elapsed = t.ElapsedSeconds();
  EXPECT_EQ(r.interrupted, InterruptReason::kDeadlineExceeded);
  EXPECT_EQ(r.table.NumRows(), 0u);
  EXPECT_LT(elapsed, 2 * kDeadlineSeconds)
      << "interrupted " << elapsed * 1000 << " ms after start for a "
      << kDeadlineSeconds * 1000 << " ms deadline";
}

std::unique_ptr<Server> StartServer(ServiceConfig config = {}) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  auto server = std::make_unique<Server>(&fx.graph, &fx.data, config);
  std::string error;
  EXPECT_TRUE(server->Start(&error)) << error;
  return server;
}

// The acceptance scenario end to end: a slow IC5-class expansion with a
// deadline is interrupted on time, while a second session's short reads
// all complete during the interruption window.
TEST(ServiceDeadlineTest, SlowQueryInterruptedWhileShortsComplete) {
  testutil::SnbFixture& fx = StressFixture();
  ServiceConfig config;
  config.query_workers = 2;  // slow + shorts run concurrently
  service::Server server_obj(&fx.graph, &fx.data, config);
  std::string error;
  ASSERT_TRUE(server_obj.Start(&error)) << error;
  Server* server = &server_obj;

  constexpr uint32_t kDeadlineMs = 150;
  std::atomic<bool> slow_done{false};

  std::thread slow_thread([&] {
    Client slow;
    ASSERT_TRUE(slow.Connect("127.0.0.1", server->port()));
    QueryRequest req;
    req.query_id = slow.AllocQueryId();
    req.kind = service::QueryKind::kStress;
    req.number = 6;  // deep expansion: far beyond the deadline
    req.deadline_ms = kDeadlineMs;
    QueryResponse resp;
    Timer t;
    ASSERT_TRUE(slow.Run(req, &resp)) << slow.last_error();
    double elapsed_ms = t.ElapsedMillis();
    slow_done.store(true);
    EXPECT_EQ(resp.status, WireStatus::kDeadlineExceeded)
        << service::WireStatusName(resp.status) << ": " << resp.message;
    EXPECT_LT(elapsed_ms, 2.0 * kDeadlineMs);
  });

  // Short queries on a separate session must keep flowing while the slow
  // query burns its worker.
  Client shorts;
  ASSERT_TRUE(shorts.Connect("127.0.0.1", server->port()));
  ParamGen gen(&fx.graph, &fx.data, /*seed=*/77);
  int completed = 0;
  while (!slow_done.load()) {
    QueryResponse resp;
    ASSERT_TRUE(shorts.RunIS(2, gen.Next(), &resp));
    ASSERT_EQ(resp.status, WireStatus::kOk);
    ++completed;
  }
  slow_thread.join();
  EXPECT_GT(completed, 0) << "shorts must complete during the slow query";
  EXPECT_GE(server->stats().queries_interrupted.load(), 1u);
}

// Explicit kCancel frame: a no-deadline stress query is cancelled
// mid-flight and its own response reports CANCELLED.
TEST(ServiceCancelTest, CancelFrameInterruptsInflightQuery) {
  auto server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));

  QueryRequest req;
  req.query_id = client.AllocQueryId();
  req.kind = service::QueryKind::kSleep;
  req.seed = 2000;  // ms: would dominate the test without the cancel
  ASSERT_TRUE(client.Send(req));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(client.Cancel(req.query_id));

  QueryResponse resp;
  Timer t;
  ASSERT_TRUE(client.ReadResponse(&resp)) << client.last_error();
  EXPECT_EQ(resp.query_id, req.query_id);
  EXPECT_EQ(resp.status, WireStatus::kCancelled);
  EXPECT_LT(t.ElapsedMillis(), 1500.0) << "cancel must cut the sleep short";
}

// Disconnecting a session cancels its in-flight queries so workers are not
// stuck running for a client that will never read the result.
TEST(ServiceCancelTest, DisconnectCancelsInflightQueries) {
  ServiceConfig config;
  config.query_workers = 1;
  auto server = StartServer(config);
  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
    QueryRequest req;
    req.query_id = client.AllocQueryId();
    req.kind = service::QueryKind::kSleep;
    req.seed = 3000;  // ms
    ASSERT_TRUE(client.Send(req));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Client destructor closes the socket with the sleep still running.
  }
  // The lone worker must come free well before the sleep would finish.
  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server->port()));
  QueryResponse resp;
  Timer t;
  ASSERT_TRUE(probe.RunIS(2, ParamGen(&testutil::SnbFixture::Shared().graph,
                                      &testutil::SnbFixture::Shared().data, 5)
                                 .Next(),
                          &resp));
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_LT(t.ElapsedMillis(), 2000.0)
      << "disconnect must cancel the orphaned sleep";
}

}  // namespace
}  // namespace ges

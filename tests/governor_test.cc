// Resource governor (DESIGN.md §15): per-query memory budgets charged at
// the engine's allocation choke points, watermark shedding at admission,
// the runaway-query watchdog, the admin kKillQuery frame, and a
// multi-client soak proving the process plateaus below its watermark while
// short reads keep flowing and pinned readers stay byte-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_budget.h"
#include "common/timer.h"
#include "runtime/query_context.h"
#include "service/client.h"
#include "service/server.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using service::Client;
using service::QueryKind;
using service::QueryRequest;
using service::QueryResponse;
using service::Server;
using service::ServiceConfig;
using service::WireStatus;

// --- accounting primitives ----------------------------------------------

TEST(MemoryBudgetTest, ChargesTrackPeakAndGlobalGauge) {
  GlobalMemoryGauge gauge;
  {
    MemoryBudget b(/*limit_bytes=*/1 << 20, &gauge);
    b.Charge(1000);
    b.Charge(500);
    EXPECT_EQ(b.used(), 1500u);
    EXPECT_EQ(gauge.used(), 1500u);
    b.Release(500);
    EXPECT_EQ(b.used(), 1000u);
    EXPECT_EQ(b.peak(), 1500u);
    EXPECT_EQ(gauge.peak(), 1500u);
    EXPECT_FALSE(b.exceeded());
  }
  // Destruction returns every outstanding byte: the gauge can never leak
  // across an exception unwind.
  EXPECT_EQ(gauge.used(), 0u);
  EXPECT_EQ(gauge.peak(), 1500u);
}

TEST(MemoryBudgetTest, ExceededIsStickyAndChargeNeverThrows) {
  MemoryBudget b(/*limit_bytes=*/1000);
  b.Charge(2000);  // over the limit: flag only, no throw
  EXPECT_TRUE(b.exceeded());
  b.Release(2000);
  EXPECT_TRUE(b.exceeded()) << "a release must not un-trip the flag";
}

TEST(MemoryBudgetTest, ZeroLimitIsUnlimitedButStillTracks) {
  MemoryBudget b(/*limit_bytes=*/0);
  b.Charge(123456);
  EXPECT_FALSE(b.exceeded());
  EXPECT_EQ(b.peak(), 123456u);
}

TEST(MemoryBudgetTest, TrackerChargesAndReleasesDeltas) {
  MemoryBudget b(/*limit_bytes=*/0);
  BudgetTracker t(&b);
  t.Update(100);
  t.Update(300);
  EXPECT_EQ(b.used(), 300u);
  EXPECT_EQ(t.charged(), 300u);
  t.Update(50);  // shrink: releases the difference
  EXPECT_EQ(b.used(), 50u);
  t.Update(0);
  EXPECT_EQ(b.used(), 0u);
}

// --- QueryContext integration -------------------------------------------

TEST(QueryContextBudgetTest, ExceededBudgetTripsCheckpoint) {
  QueryContext ctx;
  ctx.AttachBudget(std::make_shared<MemoryBudget>(1000));
  ChargeMemory(&ctx, 2000);
  EXPECT_EQ(ctx.Check(), InterruptReason::kMemoryExceeded);
  bool threw = false;
  try {
    ThrowIfInterrupted(&ctx);
  } catch (const QueryInterrupted& e) {
    threw = true;
    EXPECT_EQ(e.reason, InterruptReason::kMemoryExceeded);
  }
  EXPECT_TRUE(threw);
}

TEST(QueryContextBudgetTest, CancelOutranksMemoryOutranksDeadline) {
  QueryContext ctx;
  ctx.AttachBudget(std::make_shared<MemoryBudget>(1000));
  ctx.SetDeadline(-0.001);  // already expired
  ChargeMemory(&ctx, 2000);
  EXPECT_EQ(ctx.Check(), InterruptReason::kMemoryExceeded)
      << "memory must outrank the deadline";
  ctx.Cancel();
  EXPECT_EQ(ctx.Check(), InterruptReason::kCancelled);
}

// --- engine-level kill ---------------------------------------------------

// Larger graph so the stress expansion genuinely accumulates intermediate
// state (same fixture rationale as cancellation_test).
testutil::SnbFixture& StressFixture() {
  static testutil::SnbFixture* fx = new testutil::SnbFixture(0.05, 42);
  return *fx;
}

TEST(EngineBudgetTest, StressExpandKilledByTinyBudget) {
  testutil::SnbFixture& fx = StressFixture();
  LdbcContext lctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  GraphView view(&fx.graph);
  Plan plan = service::BuildStressExpand(lctx, /*hops=*/4);

  GlobalMemoryGauge gauge;
  {
    QueryContext qctx;
    qctx.AttachBudget(
        std::make_shared<MemoryBudget>(size_t{1} << 20, &gauge));  // 1 MiB
    ExecOptions opts;
    opts.collect_stats = false;
    opts.intra_query_threads = 2;  // cover the morsel checkpoint path too
    opts.context = &qctx;
    Executor exec(ExecMode::kFactorizedFused, opts);
    QueryResult r = exec.Run(plan, view);
    EXPECT_EQ(r.interrupted, InterruptReason::kMemoryExceeded);
    EXPECT_EQ(r.table.NumRows(), 0u);
    EXPECT_GT(qctx.budget()->peak(), size_t{1} << 20)
        << "the kill must have been triggered by a real over-limit charge";
  }
  // The unwind path plus the budget destructor must square the gauge.
  EXPECT_EQ(gauge.used(), 0u);
}

// --- service level -------------------------------------------------------

std::unique_ptr<Server> StartServer(ServiceConfig config = {}) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  auto server = std::make_unique<Server>(&fx.graph, &fx.data, config);
  std::string error;
  EXPECT_TRUE(server->Start(&error)) << error;
  return server;
}

TEST(GovernorServiceTest, HogKilledAtQueryMemoryLimit) {
  ServiceConfig config;
  config.query_memory_limit_bytes = 8ull << 20;  // 8 MiB per query
  auto server = StartServer(config);
  Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server->port())) << c.last_error();

  QueryResponse resp;
  ASSERT_TRUE(c.RunHog(/*mib=*/64, &resp)) << c.last_error();
  EXPECT_EQ(resp.status, WireStatus::kResourceExhausted)
      << service::WireStatusName(resp.status) << ": " << resp.message;
  EXPECT_NE(resp.message.find("memory budget exceeded"), std::string::npos)
      << resp.message;
  EXPECT_GT(resp.peak_memory_bytes, config.query_memory_limit_bytes);
  EXPECT_GE(server->stats().governor_killed.load(), 1u);
  EXPECT_GE(server->stats().queries_interrupted.load(), 1u);

  // The connection survives the kill, an in-budget hog completes, and an
  // OK response reports its peak charge too.
  ASSERT_TRUE(c.RunHog(/*mib=*/2, &resp)) << c.last_error();
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
  EXPECT_GE(resp.peak_memory_bytes, 2ull << 20);
}

// Polls the server's global gauge until it reaches `floor` bytes.
bool WaitForGlobalBytes(Server* server, size_t floor, double timeout_ms) {
  Timer t;
  while (t.ElapsedMillis() < timeout_ms) {
    if (server->memory_gauge().used() >= floor) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(GovernorServiceTest, SoftWatermarkShedsLongQueriesNotShorts) {
  ServiceConfig config;
  config.query_workers = 2;
  config.memory_watermark_bytes = 32ull << 20;  // soft 32 MiB, hard 40 MiB
  auto server = StartServer(config);

  Client hog;
  ASSERT_TRUE(hog.Connect("127.0.0.1", server->port()));
  QueryRequest hreq;
  hreq.query_id = hog.AllocQueryId();
  hreq.kind = QueryKind::kHog;
  hreq.seed = 36;     // MiB: between the soft and hard watermarks
  hreq.number = 255;  // hold ms: the probe window
  Timer window;
  ASSERT_TRUE(hog.Send(hreq));
  ASSERT_TRUE(WaitForGlobalBytes(server.get(), 34ull << 20, 1000.0))
      << "hog charge never became visible in the global gauge";

  // Long class ("HOG" carries the long prior) is refused with the hint...
  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server->port()));
  QueryResponse long_resp;
  ASSERT_TRUE(probe.RunHog(/*mib=*/1, &long_resp)) << probe.last_error();
  // ...while a short read on the same connection is still admitted.
  ParamGen gen(&testutil::SnbFixture::Shared().graph,
               &testutil::SnbFixture::Shared().data, /*seed=*/77);
  QueryResponse short_resp;
  ASSERT_TRUE(probe.RunIS(2, gen.Next(), &short_resp)) << probe.last_error();
  bool hog_still_holding = window.ElapsedMillis() < 230.0;

  QueryResponse hog_resp;
  ASSERT_TRUE(hog.ReadResponse(&hog_resp)) << hog.last_error();
  EXPECT_EQ(hog_resp.status, WireStatus::kOk) << hog_resp.message;

  if (long_resp.status != WireStatus::kOverloaded && !hog_still_holding) {
    GTEST_SKIP() << "machine too slow: the hog released before the probes";
  }
  EXPECT_EQ(long_resp.status, WireStatus::kOverloaded)
      << service::WireStatusName(long_resp.status) << ": "
      << long_resp.message;
  EXPECT_EQ(long_resp.retry_after_ms, 100u);
  EXPECT_NE(long_resp.message.find("watermark"), std::string::npos);
  EXPECT_EQ(short_resp.status, WireStatus::kOk)
      << "soft watermark must not shed short reads: " << short_resp.message;
  EXPECT_GE(server->stats().governor_shed.load(), 1u);
  EXPECT_GE(server->stats().queries_rejected.load(), 1u);
}

TEST(GovernorServiceTest, HardWatermarkShedsEverything) {
  ServiceConfig config;
  config.query_workers = 2;
  config.memory_watermark_bytes = 32ull << 20;  // hard = 40 MiB
  auto server = StartServer(config);

  Client hog;
  ASSERT_TRUE(hog.Connect("127.0.0.1", server->port()));
  QueryRequest hreq;
  hreq.query_id = hog.AllocQueryId();
  hreq.kind = QueryKind::kHog;
  hreq.seed = 48;     // MiB: beyond the hard watermark
  hreq.number = 255;  // hold ms
  Timer window;
  ASSERT_TRUE(hog.Send(hreq));
  ASSERT_TRUE(WaitForGlobalBytes(server.get(), 41ull << 20, 1000.0));

  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server->port()));
  ParamGen gen(&testutil::SnbFixture::Shared().graph,
               &testutil::SnbFixture::Shared().data, /*seed=*/78);
  QueryResponse short_resp;
  ASSERT_TRUE(probe.RunIS(2, gen.Next(), &short_resp)) << probe.last_error();
  bool hog_still_holding = window.ElapsedMillis() < 230.0;

  QueryResponse hog_resp;
  ASSERT_TRUE(hog.ReadResponse(&hog_resp)) << hog.last_error();
  EXPECT_EQ(hog_resp.status, WireStatus::kOk) << hog_resp.message;

  if (short_resp.status != WireStatus::kOverloaded && !hog_still_holding) {
    GTEST_SKIP() << "machine too slow: the hog released before the probe";
  }
  EXPECT_EQ(short_resp.status, WireStatus::kOverloaded)
      << "hard watermark must shed even short reads: " << short_resp.message;
  EXPECT_GT(short_resp.retry_after_ms, 0u);
}

TEST(GovernorServiceTest, WatchdogShootsQueryStuckBetweenCheckpoints) {
  ServiceConfig config;
  config.watchdog_grace_ms = 50;
  auto server = StartServer(config);
  Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server->port()));

  // A sleep that polls its context only every 200 ms blows straight
  // through its 50 ms deadline — the stand-in for an operator stuck
  // between checkpoints. The watchdog's forced Cancel outranks the
  // deadline at the late checkpoint, so CANCELLED (not DEADLINE_EXCEEDED)
  // proves the watchdog, not the query, ended it.
  QueryRequest req;
  req.query_id = c.AllocQueryId();
  req.kind = QueryKind::kSleep;
  req.seed = 1000;      // nominal 1 s
  req.number = 200;     // checkpoint interval ms
  req.deadline_ms = 50;
  QueryResponse resp;
  Timer t;
  ASSERT_TRUE(c.Run(req, &resp)) << c.last_error();
  EXPECT_EQ(resp.status, WireStatus::kCancelled)
      << service::WireStatusName(resp.status) << ": " << resp.message;
  EXPECT_LT(t.ElapsedMillis(), 800.0);
  EXPECT_GE(server->stats().governor_killed.load(), 1u);
}

TEST(GovernorServiceTest, KillQueryFrameShootsAcrossSessions) {
  auto server = StartServer();
  Client victim;
  ASSERT_TRUE(victim.Connect("127.0.0.1", server->port()));
  QueryRequest req;
  req.query_id = victim.AllocQueryId();
  req.kind = QueryKind::kSleep;
  req.seed = 3000;  // ms: would dominate the test without the kill
  ASSERT_TRUE(victim.Send(req));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The kill arrives on a different session and still finds the query.
  Client admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", server->port()));
  uint32_t killed = 0;
  ASSERT_TRUE(admin.KillQuery(req.query_id, &killed)) << admin.last_error();
  EXPECT_EQ(killed, 1u);
  uint32_t none = 99;
  ASSERT_TRUE(admin.KillQuery(0xdeadbeefULL, &none)) << admin.last_error();
  EXPECT_EQ(none, 0u) << "an unknown id must kill nothing";

  QueryResponse resp;
  Timer t;
  ASSERT_TRUE(victim.ReadResponse(&resp)) << victim.last_error();
  EXPECT_EQ(resp.query_id, req.query_id);
  EXPECT_EQ(resp.status, WireStatus::kCancelled) << resp.message;
  EXPECT_LT(t.ElapsedMillis(), 2000.0) << "kill must cut the sleep short";
  EXPECT_GE(server->stats().governor_killed.load(), 1u);
}

// --- the soak ------------------------------------------------------------

// Memory-hog mix: an in-budget hog and an over-budget hog loop alongside a
// short-read client, an update writer and a pinned reader. The process
// must plateau below the watermark, every over-budget hog must die with
// RESOURCE_EXHAUSTED (never a crash), short-read p99 must stay bounded,
// and the pinned reader must see byte-identical results throughout.
TEST(GovernorSoakTest, HogMixPlateausBelowWatermarkWhileShortsFlow) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  ServiceConfig config;
  config.query_workers = 4;
  config.query_memory_limit_bytes = 24ull << 20;  // 24 MiB per query
  config.memory_watermark_bytes = 48ull << 20;    // soft 48 MiB
  Server server(&fx.graph, &fx.data, config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hog_ok{0}, hog_killed{0}, hog_other{0};
  std::atomic<uint64_t> client_failures{0};

  // In-budget hog: 16 MiB, held 30 ms, forever.
  std::thread tame_hog([&] {
    Client c;
    if (!c.Connect("127.0.0.1", server.port())) {
      client_failures.fetch_add(1);
      return;
    }
    while (!stop.load()) {
      QueryResponse resp;
      if (!c.RunHog(16, &resp, /*deadline_ms=*/0, /*hold_ms=*/30)) {
        client_failures.fetch_add(1);
        return;
      }
      (resp.status == WireStatus::kOk ? hog_ok : hog_other).fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Over-budget hog: wants 32 MiB against a 24 MiB limit — every attempt
  // must die cleanly at a checkpoint with RESOURCE_EXHAUSTED.
  std::thread greedy_hog([&] {
    Client c;
    if (!c.Connect("127.0.0.1", server.port())) {
      client_failures.fetch_add(1);
      return;
    }
    while (!stop.load()) {
      QueryResponse resp;
      if (!c.RunHog(32, &resp)) {
        client_failures.fetch_add(1);
        return;
      }
      (resp.status == WireStatus::kResourceExhausted ? hog_killed : hog_other)
          .fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Writer: commits keep advancing the global version under the soak so
  // the pinned reader below proves snapshot isolation, not quiescence.
  std::thread writer([&] {
    Client c;
    if (!c.Connect("127.0.0.1", server.port())) {
      client_failures.fetch_add(1);
      return;
    }
    uint64_t seed = 1;
    while (!stop.load()) {
      QueryResponse resp;
      if (!c.RunIU(1, seed++, &resp)) {
        client_failures.fetch_add(1);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  // Pinned reader: session pinned at connect; a fixed IS read must come
  // back byte-identical for the whole soak regardless of hogs and writes.
  Client pinned;
  ASSERT_TRUE(pinned.Connect("127.0.0.1", server.port()));
  ParamGen pinned_gen(&fx.graph, &fx.data, /*seed=*/7);
  LdbcParams pinned_params = pinned_gen.Next();
  QueryResponse golden_resp;
  ASSERT_TRUE(pinned.RunIS(2, pinned_params, &golden_resp));
  ASSERT_EQ(golden_resp.status, WireStatus::kOk) << golden_resp.message;
  std::vector<std::string> golden = testutil::OrderedRows(golden_resp.table);

  // Short-read client: latency of every read feeds the p99 gate.
  Client shorts;
  ASSERT_TRUE(shorts.Connect("127.0.0.1", server.port()));
  ParamGen gen(&fx.graph, &fx.data, /*seed=*/99);
  std::vector<double> latencies_ms;
  Timer soak;
  int iter = 0;
  while (soak.ElapsedMillis() < 1200.0) {
    QueryResponse resp;
    Timer t;
    ASSERT_TRUE(shorts.RunIS(2, gen.Next(), &resp)) << shorts.last_error();
    latencies_ms.push_back(t.ElapsedMillis());
    ASSERT_EQ(resp.status, WireStatus::kOk)
        << "short reads must never be governed in this mix: " << resp.message;
    if (++iter % 10 == 0) {
      QueryResponse again;
      ASSERT_TRUE(pinned.RunIS(2, pinned_params, &again));
      ASSERT_EQ(again.status, WireStatus::kOk) << again.message;
      EXPECT_EQ(testutil::OrderedRows(again.table), golden)
          << "pinned reader diverged mid-soak";
    }
  }
  stop.store(true);
  tame_hog.join();
  greedy_hog.join();
  writer.join();

  EXPECT_EQ(client_failures.load(), 0u) << "a governed client lost its "
                                           "connection — kills must be "
                                           "responses, not resets";
  EXPECT_GE(hog_ok.load(), 1u);
  EXPECT_GE(hog_killed.load(), 1u);
  EXPECT_EQ(hog_other.load(), 0u)
      << "hogs must end OK (in budget) or RESOURCE_EXHAUSTED (over)";

  // The plateau: concurrent charge never crossed the watermark (the tame
  // hog plus the greedy hog's pre-kill peak sit well under it).
  uint64_t peak = server.memory_gauge().peak();
  EXPECT_GT(peak, 16ull << 20) << "gauge never saw the hogs";
  EXPECT_LE(peak, config.memory_watermark_bytes)
      << "process memory must plateau below the watermark";
  EXPECT_GE(server.stats().governor_killed.load(), hog_killed.load());

  std::sort(latencies_ms.begin(), latencies_ms.end());
  ASSERT_FALSE(latencies_ms.empty());
  double p99 = latencies_ms[static_cast<size_t>(
      static_cast<double>(latencies_ms.size() - 1) * 0.99)];
  EXPECT_LT(p99, 1000.0) << "short-read p99 exploded under the hog mix";

  server.Drain(2.0);
}

}  // namespace
}  // namespace ges

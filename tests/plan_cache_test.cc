// Prepared statements + the shared LRU plan cache (DESIGN.md §14):
// PlanCache unit behavior (hit/miss accounting, LRU eviction, stats-epoch
// invalidation), the kPrepare/kExecute wire path end to end, cross-session
// template reuse, handle lifetime errors, and a differential check that a
// cached, parameter-bound plan answers byte-identically to a cold-compiled
// literal plan under every execution mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "executor/executor.h"
#include "executor/explain.h"
#include "executor/graph_view.h"
#include "executor/optimizer.h"
#include "frontend/parser.h"
#include "frontend/plan_cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using service::Client;
using service::PrepareResult;
using service::QueryResponse;
using service::Server;
using service::ServiceConfig;
using service::WireStatus;

// --- PlanCache unit tests ----------------------------------------------

std::shared_ptr<const PreparedPlan> MakeTemplate(const std::string& key,
                                                 uint64_t epoch) {
  auto plan = std::make_shared<PreparedPlan>();
  plan->normalized = key;
  plan->stats_epoch = epoch;
  return plan;
}

TEST(PlanCacheTest, HitAndMissAccounting) {
  PlanCache cache(4);
  EXPECT_EQ(cache.Lookup("q1", 0), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Insert(MakeTemplate("q1", 0));
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Lookup("q1", 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->normalized, "q1");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  cache.Insert(MakeTemplate("a", 0));
  cache.Insert(MakeTemplate("b", 0));
  // Touch `a` so `b` becomes the LRU victim.
  ASSERT_NE(cache.Lookup("a", 0), nullptr);
  cache.Insert(MakeTemplate("c", 0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup("b", 0), nullptr);
  EXPECT_NE(cache.Lookup("a", 0), nullptr);
  EXPECT_NE(cache.Lookup("c", 0), nullptr);
}

TEST(PlanCacheTest, StaleEpochMissesUntilReplaced) {
  PlanCache cache(4);
  cache.Insert(MakeTemplate("q", 7));
  EXPECT_NE(cache.Lookup("q", 7), nullptr);
  // A newer stats epoch invalidates the entry without removing it.
  EXPECT_EQ(cache.Lookup("q", 8), nullptr);
  EXPECT_EQ(cache.size(), 1u);
  // Re-planning replaces in place: no eviction is charged.
  cache.Insert(MakeTemplate("q", 8));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_NE(cache.Lookup("q", 8), nullptr);
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  PlanCache cache(0);
  cache.Insert(MakeTemplate("q", 0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup("q", 0), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
}

// --- prepared statements over the wire ---------------------------------

constexpr const char* kKnowsTemplate =
    "MATCH (p:PERSON)-[:KNOWS]->(f:PERSON) WHERE id(p) = $0 "
    "RETURN f.id ORDER BY f.id ASC";

std::unique_ptr<Server> StartServer(ServiceConfig config = {}) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  auto server = std::make_unique<Server>(&fx.graph, &fx.data, config);
  std::string error;
  EXPECT_TRUE(server->Start(&error)) << error;
  return server;
}

std::string Bytes(const FlatBlock& table) {
  WireBuf b;
  service::PutFlatBlock(&b, table);
  return b.Take();
}

TEST(PreparedStatementTest, PrepareExecuteRoundTrip) {
  auto server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()))
      << client.last_error();
  PrepareResult pr;
  ASSERT_TRUE(client.Prepare(kKnowsTemplate, &pr)) << client.last_error();
  EXPECT_EQ(pr.param_count, 1u);
  EXPECT_FALSE(pr.cache_hit);
  EXPECT_NE(pr.normalized.find("$0"), std::string::npos) << pr.normalized;

  QueryResponse resp;
  ASSERT_TRUE(client.Execute(pr.handle, {Value::Int(0)}, &resp))
      << client.last_error();
  ASSERT_EQ(resp.status, WireStatus::kOk) << resp.message;
  // Prepare populated the cache, so the first execution already hits.
  EXPECT_EQ(resp.plan_cache_hit, 1);
  EXPECT_GE(server->plan_cache().hits(), 1u);

  // Re-binding the same handle with a different parameter works.
  QueryResponse other;
  ASSERT_TRUE(client.Execute(pr.handle, {Value::Int(1)}, &other));
  EXPECT_EQ(other.status, WireStatus::kOk) << other.message;
}

TEST(PreparedStatementTest, AutoParameterizedLiteralsAreDefaults) {
  auto server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  PrepareResult pr;
  ASSERT_TRUE(client.Prepare("MATCH (p:PERSON) WHERE id(p) = 2 RETURN p.id",
                             &pr))
      << client.last_error();
  EXPECT_EQ(pr.param_count, 1u);
  EXPECT_NE(pr.normalized.find("$0"), std::string::npos) << pr.normalized;

  // Zero bindings fall back to the literal the query was prepared with.
  QueryResponse by_default;
  ASSERT_TRUE(client.Execute(pr.handle, {}, &by_default));
  ASSERT_EQ(by_default.status, WireStatus::kOk) << by_default.message;
  ASSERT_EQ(by_default.table.NumRows(), 1u);
  EXPECT_EQ(by_default.table.At(0, 0).AsInt(), 2);

  // Explicit bindings override the default.
  QueryResponse bound;
  ASSERT_TRUE(client.Execute(pr.handle, {Value::Int(3)}, &bound));
  ASSERT_EQ(bound.status, WireStatus::kOk) << bound.message;
  ASSERT_EQ(bound.table.NumRows(), 1u);
  EXPECT_EQ(bound.table.At(0, 0).AsInt(), 3);
}

TEST(PreparedStatementTest, CrossSessionTemplateReuse) {
  auto server = StartServer();
  Client first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server->port()));
  Client second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server->port()));

  // Different literals, same shape: both normalize to one template.
  PrepareResult a;
  ASSERT_TRUE(first.Prepare("MATCH (p:PERSON) WHERE id(p) = 1 RETURN p.id",
                            &a));
  EXPECT_FALSE(a.cache_hit);
  PrepareResult b;
  ASSERT_TRUE(second.Prepare("MATCH (p:PERSON) WHERE id(p) = 4 RETURN p.id",
                             &b));
  EXPECT_TRUE(b.cache_hit);
  EXPECT_EQ(a.normalized, b.normalized);
  EXPECT_GE(server->plan_cache().hits(), 1u);

  // Each session's zero-binding default is its OWN prepare-time literal,
  // not whichever literal populated the shared template first.
  QueryResponse ra;
  ASSERT_TRUE(first.Execute(a.handle, {}, &ra));
  ASSERT_EQ(ra.status, WireStatus::kOk) << ra.message;
  ASSERT_EQ(ra.table.NumRows(), 1u);
  EXPECT_EQ(ra.table.At(0, 0).AsInt(), 1);
  QueryResponse rb;
  ASSERT_TRUE(second.Execute(b.handle, {}, &rb));
  ASSERT_EQ(rb.status, WireStatus::kOk) << rb.message;
  ASSERT_EQ(rb.table.NumRows(), 1u);
  EXPECT_EQ(rb.table.At(0, 0).AsInt(), 4);
}

TEST(PreparedStatementTest, UnknownHandleAnswersNotFound) {
  auto server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  QueryResponse resp;
  ASSERT_TRUE(client.Execute(12345, {Value::Int(0)}, &resp))
      << client.last_error();
  EXPECT_EQ(resp.status, WireStatus::kNotFound) << resp.message;
}

TEST(PreparedStatementTest, HandlesAreSessionScoped) {
  auto server = StartServer();
  Client owner;
  ASSERT_TRUE(owner.Connect("127.0.0.1", server->port()));
  PrepareResult pr;
  ASSERT_TRUE(owner.Prepare(kKnowsTemplate, &pr));

  Client intruder;
  ASSERT_TRUE(intruder.Connect("127.0.0.1", server->port()));
  QueryResponse resp;
  ASSERT_TRUE(intruder.Execute(pr.handle, {Value::Int(0)}, &resp));
  EXPECT_EQ(resp.status, WireStatus::kNotFound) << resp.message;
}

TEST(PreparedStatementTest, ArityMismatchAnswersInvalidArgument) {
  auto server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  PrepareResult pr;
  ASSERT_TRUE(client.Prepare(kKnowsTemplate, &pr));
  QueryResponse resp;
  ASSERT_TRUE(client.Execute(pr.handle, {Value::Int(0), Value::Int(1)},
                             &resp));
  EXPECT_EQ(resp.status, WireStatus::kInvalidArgument) << resp.message;
  EXPECT_NE(resp.message.find("parameter"), std::string::npos)
      << resp.message;
}

TEST(PreparedStatementTest, PrepareParseErrorIsCleanRefusal) {
  auto server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  PrepareResult pr;
  EXPECT_FALSE(client.Prepare("MATCH garbage", &pr));
  EXPECT_NE(client.last_error().find("INVALID_ARGUMENT"), std::string::npos)
      << client.last_error();
  // The connection survives a clean refusal.
  EXPECT_TRUE(client.Ping());
  ASSERT_TRUE(client.Prepare(kKnowsTemplate, &pr)) << client.last_error();
}

TEST(PreparedStatementTest, StatsEpochBumpInvalidatesCachedTemplate) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  auto server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  PrepareResult pr;
  ASSERT_TRUE(client.Prepare(kKnowsTemplate, &pr));

  QueryResponse warm;
  ASSERT_TRUE(client.Execute(pr.handle, {Value::Int(0)}, &warm));
  ASSERT_EQ(warm.status, WireStatus::kOk) << warm.message;
  EXPECT_EQ(warm.plan_cache_hit, 1);

  // A statistics refresh invalidates the template; the next execution
  // re-plans (a miss) and repopulates the cache. (Re-installing the
  // current snapshot bumps the epoch, same as a real refresh.)
  fx.graph.catalog().InstallStats(fx.graph.catalog().stats());
  QueryResponse replanned;
  ASSERT_TRUE(client.Execute(pr.handle, {Value::Int(0)}, &replanned));
  ASSERT_EQ(replanned.status, WireStatus::kOk) << replanned.message;
  EXPECT_EQ(replanned.plan_cache_hit, 0);
  EXPECT_EQ(Bytes(replanned.table), Bytes(warm.table));

  QueryResponse rewarmed;
  ASSERT_TRUE(client.Execute(pr.handle, {Value::Int(0)}, &rewarmed));
  ASSERT_EQ(rewarmed.status, WireStatus::kOk) << rewarmed.message;
  EXPECT_EQ(rewarmed.plan_cache_hit, 1);
}

TEST(PreparedStatementTest, CompactionInstallInvalidatesCachedTemplate) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  auto server = StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  PrepareResult pr;
  ASSERT_TRUE(client.Prepare(kKnowsTemplate, &pr));

  QueryResponse warm;
  ASSERT_TRUE(client.Execute(pr.handle, {Value::Int(0)}, &warm));
  ASSERT_EQ(warm.status, WireStatus::kOk) << warm.message;
  EXPECT_EQ(warm.plan_cache_hit, 1);

  // A delta-merge pass swaps relations into compressed segments: the
  // physical layout the cached plan was costed against is gone, so the
  // install must bump the stats epoch and force a re-plan. (Regression:
  // the install path used to leave the epoch untouched and stale plans
  // kept validating against pre-swap statistics.)
  uint64_t epoch_before = fx.graph.catalog().stats_epoch();
  CompactionOptions copts;
  copts.force = true;
  ASSERT_GT(fx.graph.CompactRelations(copts).relations_compacted, 0u);
  EXPECT_GT(fx.graph.catalog().stats_epoch(), epoch_before);

  QueryResponse replanned;
  ASSERT_TRUE(client.Execute(pr.handle, {Value::Int(0)}, &replanned));
  ASSERT_EQ(replanned.status, WireStatus::kOk) << replanned.message;
  EXPECT_EQ(replanned.plan_cache_hit, 0);
  EXPECT_EQ(Bytes(replanned.table), Bytes(warm.table));

  QueryResponse rewarmed;
  ASSERT_TRUE(client.Execute(pr.handle, {Value::Int(0)}, &rewarmed));
  ASSERT_EQ(rewarmed.status, WireStatus::kOk) << rewarmed.message;
  EXPECT_EQ(rewarmed.plan_cache_hit, 1);
}

TEST(PreparedStatementTest, EvictedTemplateIsReplannedTransparently) {
  ServiceConfig config;
  config.plan_cache_entries = 1;
  auto server = StartServer(config);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));

  PrepareResult knows;
  ASSERT_TRUE(client.Prepare(kKnowsTemplate, &knows));
  // A second, differently-shaped statement evicts the first template.
  PrepareResult seek;
  ASSERT_TRUE(client.Prepare("MATCH (p:PERSON) WHERE id(p) = $0 RETURN p.id",
                             &seek));
  EXPECT_GE(server->plan_cache().evictions(), 1u);

  // The evicted handle still executes correctly (cache miss, re-plan).
  QueryResponse resp;
  ASSERT_TRUE(client.Execute(knows.handle, {Value::Int(0)}, &resp));
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
  EXPECT_EQ(resp.plan_cache_hit, 0);
}

TEST(PreparedStatementTest, CacheDisabledStillExecutes) {
  ServiceConfig config;
  config.plan_cache_entries = 0;
  auto server = StartServer(config);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
  PrepareResult pr;
  ASSERT_TRUE(client.Prepare(kKnowsTemplate, &pr)) << client.last_error();
  EXPECT_FALSE(pr.cache_hit);
  QueryResponse resp;
  ASSERT_TRUE(client.Execute(pr.handle, {Value::Int(0)}, &resp));
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
  EXPECT_EQ(resp.plan_cache_hit, 0);
  EXPECT_EQ(server->plan_cache().hits(), 0u);
}

// The acceptance differential: for every execution mode, a cached
// template bound over the wire must answer byte-identically to a
// cold-compiled plan with the literal inlined, across several bindings.
TEST(PreparedStatementTest, CachedPlanMatchesColdPlanAllModes) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  const ExecMode kModes[] = {ExecMode::kVolcano, ExecMode::kFlat,
                             ExecMode::kFactorized,
                             ExecMode::kFactorizedFused};
  for (ExecMode mode : kModes) {
    SCOPED_TRACE(ExecModeName(mode));
    ServiceConfig config;
    config.exec_mode = mode;
    auto server = StartServer(config);
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server->port()));
    PrepareResult pr;
    ASSERT_TRUE(client.Prepare(kKnowsTemplate, &pr)) << client.last_error();

    for (int64_t person : {0, 1, 2, 5}) {
      SCOPED_TRACE(person);
      QueryResponse resp;
      ASSERT_TRUE(client.Execute(pr.handle, {Value::Int(person)}, &resp));
      ASSERT_EQ(resp.status, WireStatus::kOk) << resp.message;

      std::string literal =
          "MATCH (p:PERSON)-[:KNOWS]->(f:PERSON) WHERE id(p) = " +
          std::to_string(person) + " RETURN f.id ORDER BY f.id ASC";
      Plan plan;
      ASSERT_TRUE(CompileQuery(literal, fx.graph, &plan).ok());
      ExecOptions options;
      options.collect_stats = false;
      QueryResult cold =
          Executor(mode, options).Run(plan, GraphView(&fx.graph));
      EXPECT_EQ(Bytes(resp.table), Bytes(cold.table));
    }
  }
}

// A prepared template runs as stored: OptimizePlan marks the plan, the
// bound copy keeps the mark, and kFactorizedFused does not optimize it
// again. The template was optimized without the TopK rule, so an executor
// that re-optimized it under its default options would run a TopK.
TEST(PreparedStatementTest, BoundTemplateRunsAsStored) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  GraphView view(&fx.graph);
  auto ran = [](const QueryResult& r, const std::string& op) {
    return std::any_of(r.stats.ops.begin(), r.stats.ops.end(),
                       [&](const OpStats& os) { return os.op == op; });
  };
  Plan compiled;
  ASSERT_TRUE(CompileTemplate(std::string(kKnowsTemplate) + " LIMIT 3",
                              fx.graph, {Value::Int(0)}, &compiled)
                  .ok());
  ExecOptions no_topk;
  no_topk.fuse_topk = false;
  Plan tmpl = OptimizePlan(compiled, no_topk, &view);
  Plan bound;
  ASSERT_TRUE(BindPlanParams(tmpl, {Value::Int(1)}, &bound).ok());
  EXPECT_TRUE(bound.optimized);
  QueryResult stored = Executor(ExecMode::kFactorizedFused).Run(bound, view);
  EXPECT_TRUE(ran(stored, "OrderBy"));
  EXPECT_FALSE(ran(stored, "TopK"));

  // The unoptimized template is optimized by the executor and gets one.
  Plan raw;
  ASSERT_TRUE(BindPlanParams(compiled, {Value::Int(1)}, &raw).ok());
  QueryResult fused = Executor(ExecMode::kFactorizedFused).Run(raw, view);
  EXPECT_TRUE(ran(fused, "TopK"));
  EXPECT_EQ(Bytes(stored.table), Bytes(fused.table));
}

// --- EXPLAIN ANALYZE est-vs-actual rows --------------------------------

TEST(PreparedStatementTest, ExplainAnalyzeShowsEstimatedRows) {
  testutil::SnbFixture& fx = testutil::SnbFixture::Shared();
  fx.graph.RebuildStats();
  Plan plan;
  ASSERT_TRUE(CompileQuery(
                  "MATCH (p:PERSON)-[:KNOWS]->(f:PERSON) RETURN f.id",
                  fx.graph, &plan)
                  .ok());
  AnnotateCardinalities(&plan, fx.graph,
                        CollectPlanColumnStats(plan, fx.graph));
  QueryResult r = Executor(ExecMode::kFlat).Run(plan, GraphView(&fx.graph));
  std::string text = ExplainAnalyze(plan, r);
  EXPECT_NE(text.find("rows="), std::string::npos) << text;
  EXPECT_NE(text.find("est="), std::string::npos) << text;
}

}  // namespace
}  // namespace ges

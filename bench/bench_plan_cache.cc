// Prepared-statement plan cache: the same IS-style short-read mix served
// with the LRU plan cache enabled (default 128 entries) vs disabled
// (--plan-cache-entries 0). With the cache off every kExecute re-parses
// the normalized text, re-runs the optimizer and re-collects column
// statistics; with it on the execution path is bind + run only. The gate
// is p50(cache off) / p50(cache on) >= GES_PLANCACHE_GATE (default 1.3)
// on the short-read classes, plus a post-warmup hit rate >= 99% — the
// read-mostly steady state (RebuildStats skips while the graph version is
// unchanged, so the stats epoch stays put and templates never go stale).
//
// The client pool oversubscribes the query workers (8 connections over 2
// workers by default) so queueing — which scales with server-side per-op
// cost, i.e. with planning — dominates the loopback RTT; an unsaturated
// server would hide most of the planning win behind the network.
//
// Knobs: GES_SF (0.01), GES_PLANCACHE_CONNS (8), GES_PLANCACHE_WORKERS
// (2), GES_PLANCACHE_OPS (2000 per connection), GES_PLANCACHE_WARMUP (50
// per connection), GES_PLANCACHE_GATE (1.3).
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "service/client.h"
#include "service/server.h"

using namespace ges;
using namespace ges::bench;

namespace {

// Short-read templates in the spirit of the IS tier: point profile
// lookups and 1-hop neighborhoods anchored on a person seek. The last
// entry is the "long" component (2-hop) keeping the mix honest.
struct TemplateDef {
  const char* name;
  const char* text;
  bool is_short;
};

const TemplateDef kTemplates[] = {
    {"profile",
     "MATCH (p:PERSON) WHERE id(p) = $0 AND p.birthdayMonth > 0 "
     "RETURN p.firstName, p.lastName, p.gender, p.browserUsed, "
     "p.birthdayMonth, p.creationDate",
     true},
    {"friends",
     "MATCH (p:PERSON)-[:KNOWS]->(f:PERSON) "
     "WHERE id(p) = $0 AND f.birthdayMonth > 0 "
     "RETURN f.id, f.firstName, f.lastName ORDER BY f.id ASC LIMIT 20",
     true},
    {"posts",
     "MATCH (p:PERSON)<-[:HAS_CREATOR]-(m:POST) "
     "WHERE id(p) = $0 AND m.length > 10 "
     "RETURN m.id, m.length, m.browserUsed ORDER BY m.id DESC LIMIT 10",
     true},
    {"friends_of_friends",
     "MATCH (p:PERSON)-[:KNOWS]->(f:PERSON)-[:KNOWS]->(g:PERSON) "
     "WHERE id(p) = $0 RETURN g.id LIMIT 20",
     false},
};
constexpr int kNumTemplates = 4;
// Mix per 10 ops: 4x profile, 3x friends, 2x posts, 1x two-hop.
const int kMixSlots[10] = {0, 0, 0, 0, 1, 1, 1, 2, 2, 3};

struct LoopResult {
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t measured = 0;         // post-warmup OK responses
  uint64_t cache_hits = 0;       // ... of which plan_cache_hit was set
  LatencyRecorder short_reads;   // client-observed, post-warmup
  LatencyRecorder long_reads;
  LatencyRecorder phase_plan;    // server-side, post-warmup
  LatencyRecorder phase_bind;
  LatencyRecorder phase_exec;
  double qps = 0;
};

LoopResult RunLoop(uint16_t port, int conns, int ops, int warmup,
                   uint64_t num_persons) {
  std::mutex agg_mu;
  LoopResult agg;
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(conns);
  for (int t = 0; t < conns; ++t) {
    pool.emplace_back([&, t] {
      LoopResult local;
      service::Client client;
      if (!client.Connect("127.0.0.1", port)) {
        local.errors += static_cast<uint64_t>(ops);
        std::lock_guard<std::mutex> lk(agg_mu);
        agg.errors += local.errors;
        return;
      }
      service::PrepareResult handles[kNumTemplates];
      for (int q = 0; q < kNumTemplates; ++q) {
        if (!client.Prepare(kTemplates[q].text, &handles[q])) {
          std::fprintf(stderr, "prepare(%s) failed: %s\n",
                       kTemplates[q].name, client.last_error().c_str());
          local.errors += static_cast<uint64_t>(ops);
          std::lock_guard<std::mutex> lk(agg_mu);
          agg.errors += local.errors;
          return;
        }
      }
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      uint64_t rng = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(t);
      for (int i = 0; i < ops; ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        int q = kMixSlots[i % 10];
        std::vector<Value> params = {
            Value::Int(static_cast<int64_t>(rng % num_persons))};
        service::QueryResponse resp;
        Timer timer;
        if (!client.Execute(handles[q].handle, params, &resp) ||
            resp.status != service::WireStatus::kOk) {
          ++local.errors;
          continue;
        }
        ++local.ok;
        if (i < warmup) continue;
        ++local.measured;
        if (resp.plan_cache_hit != 0) ++local.cache_hits;
        double ms = timer.ElapsedMillis();
        (kTemplates[q].is_short ? local.short_reads : local.long_reads)
            .Add(ms);
        local.phase_plan.Add(resp.plan_millis);
        local.phase_bind.Add(resp.bind_millis);
        local.phase_exec.Add(resp.exec_millis);
      }
      std::lock_guard<std::mutex> lk(agg_mu);
      agg.ok += local.ok;
      agg.errors += local.errors;
      agg.measured += local.measured;
      agg.cache_hits += local.cache_hits;
      agg.short_reads.Merge(local.short_reads);
      agg.long_reads.Merge(local.long_reads);
      agg.phase_plan.Merge(local.phase_plan);
      agg.phase_bind.Merge(local.phase_bind);
      agg.phase_exec.Merge(local.phase_exec);
    });
  }
  Timer wall;
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  double elapsed = wall.ElapsedSeconds();
  agg.qps = elapsed > 0 ? static_cast<double>(agg.ok) / elapsed : 0;
  return agg;
}

void AddSection(BenchJsonReport* json, const std::string& section,
                const LoopResult& r, double hit_rate) {
  json->AddSectionScalar(section, "throughput_qps", r.qps);
  json->AddSectionScalar(section, "ok", static_cast<double>(r.ok));
  json->AddSectionScalar(section, "errors", static_cast<double>(r.errors));
  json->AddSectionScalar(section, "post_warmup_hit_rate", hit_rate);
  json->AddLatency(section, "short_reads", r.short_reads);
  json->AddLatency(section, "long_reads", r.long_reads);
  json->AddLatency(section, "phase_plan", r.phase_plan);
  json->AddLatency(section, "phase_bind", r.phase_bind);
  json->AddLatency(section, "phase_exec", r.phase_exec);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Plan cache: prepared short reads, cache on vs off ==\n");
  double sf = EnvDouble("GES_SF", 0.01);
  int conns = EnvInt("GES_PLANCACHE_CONNS", 8);
  int workers = EnvInt("GES_PLANCACHE_WORKERS", 2);
  int ops = EnvInt("GES_PLANCACHE_OPS", 2000);
  int warmup = EnvInt("GES_PLANCACHE_WARMUP", 50);
  double gate = EnvDouble("GES_PLANCACHE_GATE", 1.3);

  auto g = MakeGraph(sf);
  uint64_t num_persons = g->data.persons.size();

  BenchJsonReport json("plan_cache");
  json.AddScalar("sf", sf);
  json.AddScalar("connections", conns);
  json.AddScalar("query_workers", workers);
  json.AddScalar("ops_per_connection", ops);
  json.AddScalar("warmup_per_connection", warmup);

  // Interleaved rounds: on/off/on/off. Clock-frequency and scheduler
  // drift over the bench's lifetime then hits both configurations
  // roughly equally instead of biasing whichever ran last.
  int rounds = EnvInt("GES_PLANCACHE_ROUNDS", 2);
  LoopResult on, off;
  for (int round = 0; round < rounds; ++round) {
    for (bool cached : {true, false}) {
      service::ServiceConfig sc;
      sc.query_workers = workers;
      sc.plan_cache_entries = cached ? 128 : 0;
      service::Server server(&g->graph, &g->data, sc);
      std::string error;
      if (!server.Start(&error)) {
        std::fprintf(stderr, "server start failed: %s\n", error.c_str());
        return 1;
      }
      LoopResult r = RunLoop(server.port(), conns, ops, warmup, num_persons);
      LoopResult& agg = cached ? on : off;
      agg.ok += r.ok;
      agg.errors += r.errors;
      agg.measured += r.measured;
      agg.cache_hits += r.cache_hits;
      agg.qps += r.qps / rounds;
      agg.short_reads.Merge(r.short_reads);
      agg.long_reads.Merge(r.long_reads);
      agg.phase_plan.Merge(r.phase_plan);
      agg.phase_bind.Merge(r.phase_bind);
      agg.phase_exec.Merge(r.phase_exec);
      if (cached && round == rounds - 1) {
        const PlanCache& cache = server.plan_cache();
        std::printf("cache on:  hits=%llu misses=%llu evictions=%llu "
                    "(last round)\n",
                    static_cast<unsigned long long>(cache.hits()),
                    static_cast<unsigned long long>(cache.misses()),
                    static_cast<unsigned long long>(cache.evictions()));
      }
      server.Drain(2.0);
    }
  }
  double hit_rate = on.measured > 0
                        ? static_cast<double>(on.cache_hits) /
                              static_cast<double>(on.measured)
                        : 0;

  TextTable table({"cache", "tput (q/s)", "short p50", "short p99",
                   "plan mean", "exec mean"});
  for (const auto* r : {&on, &off}) {
    char tput[32];
    std::snprintf(tput, sizeof(tput), "%.0f", r->qps);
    table.AddRow({r == &on ? "on" : "off", tput,
                  HumanMillis(r->short_reads.Percentile(50)),
                  HumanMillis(r->short_reads.Percentile(99)),
                  HumanMillis(r->phase_plan.Mean()),
                  HumanMillis(r->phase_exec.Mean())});
  }
  table.Print();

  AddSection(&json, "cache_on", on, hit_rate);
  AddSection(&json, "cache_off", off, 0.0);

  double on_p50 = on.short_reads.Percentile(50);
  double off_p50 = off.short_reads.Percentile(50);
  double speedup = on_p50 > 0 ? off_p50 / on_p50 : 0;
  json.AddScalar("short_p50_speedup", speedup);
  json.AddScalar("gate", gate);
  std::printf("\nshort-read p50: %.3fms (on) vs %.3fms (off) -> %.2fx "
              "(gate: >= %.2fx); post-warmup hit rate %.2f%%\n",
              on_p50, off_p50, speedup, gate, 100.0 * hit_rate);

  MaybeWriteJson(argc, argv, json);

  if (on.errors > 0 || off.errors > 0) {
    std::fprintf(stderr, "FAIL: %llu errors during the runs\n",
                 static_cast<unsigned long long>(on.errors + off.errors));
    return 1;
  }
  if (hit_rate < 0.99) {
    std::fprintf(stderr, "FAIL: post-warmup hit rate %.2f%% below 99%%\n",
                 100.0 * hit_rate);
    return 1;
  }
  if (speedup < gate) {
    std::fprintf(stderr, "FAIL: short-read p50 speedup %.2fx below the "
                 "%.2fx gate\n",
                 speedup, gate);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

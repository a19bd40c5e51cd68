// Resource governor acceptance (DESIGN.md §15): a short-read client runs
// twice against the same governed server — once alone (the baseline), once
// next to a memory-hog mix (an in-budget hog plus a hog that always blows
// the per-query limit). Gates:
//
//   1. every over-budget hog dies with RESOURCE_EXHAUSTED and the budget
//      detail — never a crash, never an OK;
//   2. the global memory gauge's peak stays under the watermark (the process
//      plateaus — runaways are contained, not absorbed);
//   3. zero client-visible errors across both phases;
//   4. short-read p99 under the mix within GES_GOVERNOR_GATE (default 2x)
//      of the no-hog baseline, with a small absolute slack floor so a
//      sub-millisecond baseline does not turn scheduler jitter into a
//      failure.
//
// Knobs: GES_SF (0.01), GES_GOVERNOR_WORKERS (4), GES_GOVERNOR_SECONDS
// (3 per phase), GES_GOVERNOR_LIMIT_MB (64), GES_GOVERNOR_WATERMARK_MB
// (128), GES_GOVERNOR_GATE (2.0), GES_GOVERNOR_SLACK_MS (50).
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "service/client.h"
#include "service/server.h"

using namespace ges;
using namespace ges::bench;

namespace {

struct HogTally {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> killed{0};    // RESOURCE_EXHAUSTED with the detail
  std::atomic<uint64_t> shed{0};      // OVERLOADED at the watermark
  std::atomic<uint64_t> unexpected{0};
  std::atomic<uint64_t> errors{0};    // transport failures
};

// Loops `mib`-MiB hogs until `stop`; every response must be one of the
// governed outcomes.
void HogLoop(uint16_t port, uint64_t mib, uint8_t hold_ms,
             std::atomic<bool>* stop, HogTally* tally) {
  service::Client c;
  if (!c.Connect("127.0.0.1", port)) {
    tally->errors.fetch_add(1);
    return;
  }
  while (!stop->load(std::memory_order_acquire)) {
    service::QueryResponse resp;
    if (!c.RunHog(mib, &resp, /*deadline_ms=*/0, hold_ms)) {
      tally->errors.fetch_add(1);
      return;
    }
    switch (resp.status) {
      case service::WireStatus::kOk:
        tally->ok.fetch_add(1);
        break;
      case service::WireStatus::kResourceExhausted:
        if (resp.message.find("memory budget exceeded") != std::string::npos) {
          tally->killed.fetch_add(1);
        } else {
          tally->unexpected.fetch_add(1);
        }
        break;
      case service::WireStatus::kOverloaded:
        tally->shed.fetch_add(1);
        break;
      default:
        tally->unexpected.fetch_add(1);
        break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// The measured workload: IS-class short reads for `seconds`.
bool ShortReadLoop(uint16_t port, BenchGraph* g, double seconds,
                   LatencyRecorder* lat, uint64_t* errors) {
  service::Client c;
  if (!c.Connect("127.0.0.1", port)) {
    ++*errors;
    return false;
  }
  ParamGen gen(&g->graph, &g->data, /*seed=*/99);
  Timer wall;
  while (wall.ElapsedSeconds() < seconds) {
    service::QueryResponse resp;
    Timer t;
    if (!c.RunIS(2, gen.Next(), &resp)) {
      ++*errors;
      return false;
    }
    if (resp.status != service::WireStatus::kOk) {
      std::fprintf(stderr, "short read governed: %s: %s\n",
                   service::WireStatusName(resp.status),
                   resp.message.c_str());
      ++*errors;
      continue;
    }
    lat->Add(t.ElapsedMillis());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Resource governor: hog mix vs short-read baseline ==\n");
  double sf = EnvDouble("GES_SF", 0.01);
  int workers = EnvInt("GES_GOVERNOR_WORKERS", 4);
  double seconds = EnvDouble("GES_GOVERNOR_SECONDS", 3.0);
  int limit_mb = EnvInt("GES_GOVERNOR_LIMIT_MB", 64);
  int watermark_mb = EnvInt("GES_GOVERNOR_WATERMARK_MB", 128);
  double gate = EnvDouble("GES_GOVERNOR_GATE", 2.0);
  double slack_ms = EnvDouble("GES_GOVERNOR_SLACK_MS", 50.0);

  auto g = MakeGraph(sf);

  service::ServiceConfig sc;
  sc.query_workers = workers;
  sc.query_memory_limit_bytes = static_cast<size_t>(limit_mb) << 20;
  sc.memory_watermark_bytes = static_cast<size_t>(watermark_mb) << 20;
  service::Server server(&g->graph, &g->data, sc);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }

  BenchJsonReport json("governor");
  json.AddScalar("sf", sf);
  json.AddScalar("query_workers", workers);
  json.AddScalar("seconds_per_phase", seconds);
  json.AddScalar("query_memory_limit_mb", limit_mb);
  json.AddScalar("memory_watermark_mb", watermark_mb);

  // Phase 1: shorts alone — the latency baseline.
  LatencyRecorder base_lat;
  uint64_t base_errors = 0;
  ShortReadLoop(server.port(), g.get(), seconds, &base_lat, &base_errors);

  // Phase 2: same shorts next to the hog mix. The tame hog stays inside
  // the per-query limit; the greedy hog asks for 1.5x the limit and must
  // be killed at a checkpoint every single time.
  std::atomic<bool> stop{false};
  HogTally tame, greedy;
  std::thread tame_thread(HogLoop, server.port(),
                          static_cast<uint64_t>(limit_mb) / 2,
                          /*hold_ms=*/30, &stop, &tame);
  std::thread greedy_thread(HogLoop, server.port(),
                            static_cast<uint64_t>(limit_mb) * 3 / 2,
                            /*hold_ms=*/0, &stop, &greedy);
  LatencyRecorder hog_lat;
  uint64_t hog_errors = 0;
  ShortReadLoop(server.port(), g.get(), seconds, &hog_lat, &hog_errors);
  stop.store(true, std::memory_order_release);
  tame_thread.join();
  greedy_thread.join();

  uint64_t peak_global = server.memory_gauge().peak();
  uint64_t governor_killed = server.stats().governor_killed.load();
  uint64_t governor_shed = server.stats().governor_shed.load();
  server.Drain(2.0);

  double base_p99 = base_lat.Percentile(99);
  double hog_p99 = hog_lat.Percentile(99);
  double bound = gate * base_p99 + slack_ms;

  TextTable table({"phase", "reads", "p50", "p99", "hogs ok", "hogs killed"});
  char buf[3][32];
  std::snprintf(buf[0], sizeof(buf[0]), "%llu",
                static_cast<unsigned long long>(base_lat.count()));
  table.AddRow({"no_hog", buf[0], HumanMillis(base_lat.Percentile(50)),
                HumanMillis(base_p99), "-", "-"});
  std::snprintf(buf[0], sizeof(buf[0]), "%llu",
                static_cast<unsigned long long>(hog_lat.count()));
  std::snprintf(buf[1], sizeof(buf[1]), "%llu",
                static_cast<unsigned long long>(tame.ok.load()));
  std::snprintf(buf[2], sizeof(buf[2]), "%llu",
                static_cast<unsigned long long>(greedy.killed.load()));
  table.AddRow({"hog_mix", buf[0], HumanMillis(hog_lat.Percentile(50)),
                HumanMillis(hog_p99), buf[1], buf[2]});
  table.Print();

  json.AddSectionScalar("no_hog", "errors", static_cast<double>(base_errors));
  json.AddLatency("no_hog", "short_reads", base_lat);
  json.AddSectionScalar("hog_mix", "errors", static_cast<double>(hog_errors));
  json.AddSectionScalar("hog_mix", "tame_ok",
                        static_cast<double>(tame.ok.load()));
  json.AddSectionScalar("hog_mix", "tame_shed",
                        static_cast<double>(tame.shed.load()));
  json.AddSectionScalar("hog_mix", "greedy_killed",
                        static_cast<double>(greedy.killed.load()));
  json.AddSectionScalar("hog_mix", "greedy_ok",
                        static_cast<double>(greedy.ok.load()));
  json.AddLatency("hog_mix", "short_reads", hog_lat);
  json.AddScalar("governor_killed", static_cast<double>(governor_killed));
  json.AddScalar("governor_shed", static_cast<double>(governor_shed));
  json.AddScalar("peak_global_bytes", static_cast<double>(peak_global));
  json.AddScalar("p99_ratio", base_p99 > 0 ? hog_p99 / base_p99 : 0);
  json.AddScalar("gate", gate);

  std::printf("\npeak global %.1f MiB (watermark %d MiB); "
              "greedy hogs killed=%llu ok=%llu; short p99 %.3fms vs %.3fms "
              "baseline (bound %.3fms)\n",
              static_cast<double>(peak_global) / (1 << 20), watermark_mb,
              static_cast<unsigned long long>(greedy.killed.load()),
              static_cast<unsigned long long>(greedy.ok.load()),
              hog_p99, base_p99, bound);

  MaybeWriteJson(argc, argv, json);

  uint64_t errors = base_errors + hog_errors + tame.errors.load() +
                    greedy.errors.load() + tame.unexpected.load() +
                    greedy.unexpected.load();
  if (errors > 0) {
    std::fprintf(stderr, "FAIL: %llu errors/unexpected statuses\n",
                 static_cast<unsigned long long>(errors));
    return 1;
  }
  if (greedy.killed.load() == 0 || greedy.ok.load() > 0) {
    std::fprintf(stderr,
                 "FAIL: over-budget hogs must always die with "
                 "RESOURCE_EXHAUSTED (killed=%llu ok=%llu)\n",
                 static_cast<unsigned long long>(greedy.killed.load()),
                 static_cast<unsigned long long>(greedy.ok.load()));
    return 1;
  }
  if (peak_global >= sc.memory_watermark_bytes) {
    std::fprintf(stderr,
                 "FAIL: peak global %.1f MiB reached the %d MiB watermark\n",
                 static_cast<double>(peak_global) / (1 << 20), watermark_mb);
    return 1;
  }
  if (hog_p99 > bound) {
    std::fprintf(stderr,
                 "FAIL: short-read p99 %.3fms under the mix exceeds "
                 "%.2fx baseline + %.0fms = %.3fms\n",
                 hog_p99, gate, slack_ms, bound);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

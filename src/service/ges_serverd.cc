// ges_serverd: standalone GES query service daemon.
//
// Generates the synthetic SNB graph at the requested scale factor, then
// serves the wire protocol (service/protocol.h) until SIGTERM/SIGINT,
// which triggers a graceful drain: stop accepting, let in-flight queries
// finish (or cancel them past the grace period), flush stats to stdout.
//
// With --data-dir the store is durable (DESIGN.md §10): on first start the
// generated graph is checkpointed there and every update commit is WAL-
// logged; on restart the daemon recovers (snapshot + WAL replay) BEFORE
// accepting connections, and a clean SIGTERM drain ends with a final
// checkpoint so the next start replays nothing.
//
// Quickstart:
//   ges_serverd --port 7687 --sf 0.05 --data-dir /var/lib/ges &
//   # ... connect with service::Client, see README ...
//   kill -TERM %1
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "datagen/snb_generator.h"
#include "replication/replica.h"
#include "service/server.h"

namespace {

std::atomic<bool> g_shutdown{false};
std::atomic<bool> g_promote{false};

void OnSignal(int) { g_shutdown.store(true); }
void OnPromote(int) { g_promote.store(true); }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --port N           listen port (default 0 = ephemeral)\n"
      "  --host H           bind address (default 127.0.0.1)\n"
      "  --sf X             SNB scale factor (default 0.05)\n"
      "  --workers N        query worker threads (default 4)\n"
      "  --threads N        intra-query morsel threads (default 1)\n"
      "  --queue N          admission queue capacity (default 128)\n"
      "  --policy P         admission policy: prio | fifo (default prio)\n"
      "  --max-connections N  concurrent session limit (default 64)\n"
      "  --idle-timeout S   reap sessions idle for S seconds (default off)\n"
      "  --gc-interval S    MVCC version-chain GC cadence in seconds\n"
      "                     (default 1; 0 disables interval-driven GC)\n"
      "  --gc-trigger-mb N  prune immediately once overlay garbage exceeds\n"
      "                     N MiB (default 32; 0 disables the byte trigger)\n"
      "  --watermark-alert S  log + export a session holding the GC\n"
      "                     watermark longer than S seconds (default 30)\n"
      "  --compact-interval-seconds S  background delta-merge compaction\n"
      "                     cadence in seconds; runs as a low-priority\n"
      "                     scheduler job (default 0 = disabled)\n"
      "  --compact-trigger-frag-pct F  threshold in [0,1]: a relation is\n"
      "                     compacted once its overlay chains reach F of\n"
      "                     its adjacency footprint (default 0.3)\n"
      "  --grace S          drain grace period on shutdown (default 5)\n"
      "  --data-dir DIR     durable store directory (snapshot + WAL);\n"
      "                     recovers from it on restart (default: in-memory)\n"
      "  --fsync P          WAL fsync policy: always | interval | never\n"
      "                     (default always)\n"
      "  --fsync-interval-ms N  group-commit flush period for\n"
      "                     --fsync interval (default 10)\n"
      "  --wal-rotate-mb N  auto-checkpoint once the WAL exceeds N MiB\n"
      "                     (default 64)\n"
      "  --replicate-from HOST:PORT  run as a read-only replica of the\n"
      "                     primary at HOST:PORT (bootstraps via snapshot\n"
      "                     + WAL catch-up; SIGUSR1 promotes to primary)\n"
      "  --replica-name S   name reported to the primary (default: host)\n"
      "  --min-replica-acks N  semi-sync: an update answers OK only after\n"
      "                     N replicas acked it (default 0 = async)\n"
      "  --ack-timeout S    semi-sync ack wait bound (default 2)\n"
      "  --ryw-wait-ms N    max wait for a read's min_version floor before\n"
      "                     answering LAGGING (default 50)\n"
      "  --query-memory-limit-mb N  per-query memory budget; a query whose\n"
      "                     charged intermediate state exceeds N MiB dies\n"
      "                     with RESOURCE_EXHAUSTED (default 0 = unlimited)\n"
      "  --memory-watermark-mb N  soft process watermark: at admission,\n"
      "                     once in-flight budgets total N MiB, long\n"
      "                     queries answer OVERLOADED; at 125%% of N\n"
      "                     everything is shed (default 0 = off)\n"
      "  --watchdog-grace-ms N  force-cancel queries still running N ms\n"
      "                     past their deadline and log a slow-query\n"
      "                     report (default 0 = off)\n"
      "  --plan-cache-entries N  prepared-plan LRU cache capacity\n"
      "                     (default 128; 0 disables caching)\n"
      "  --stats-refresh-seconds S  optimizer statistics refresh cadence;\n"
      "                     a refresh is skipped while the graph version is\n"
      "                     unchanged (default 5; <=0 disables periodic\n"
      "                     refresh, stats are still built at startup)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  ges::service::ServiceConfig config;
  double sf = 0.05;
  double grace = 5.0;
  std::string data_dir;
  ges::DurabilityOptions dur;
  std::string replicate_from;
  std::string replica_name;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      config.port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--host") {
      config.host = next();
    } else if (arg == "--sf") {
      sf = std::atof(next());
    } else if (arg == "--workers") {
      config.query_workers = std::atoi(next());
    } else if (arg == "--threads") {
      config.intra_query_threads = std::atoi(next());
    } else if (arg == "--queue") {
      config.queue_capacity = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--policy") {
      std::string p = next();
      if (p == "fifo") {
        config.policy = ges::service::AdmissionPolicy::kFifo;
      } else if (p == "prio" || p == "prioritized") {
        config.policy = ges::service::AdmissionPolicy::kPrioritized;
      } else {
        Usage(argv[0]);
        return 2;
      }
    } else if (arg == "--max-connections") {
      config.max_connections = std::atoi(next());
    } else if (arg == "--idle-timeout") {
      config.idle_timeout_seconds = std::atof(next());
    } else if (arg == "--gc-interval") {
      config.gc_interval_seconds = std::atof(next());
    } else if (arg == "--gc-trigger-mb") {
      config.gc_trigger_bytes = static_cast<size_t>(std::atoll(next())) << 20;
    } else if (arg == "--watermark-alert") {
      config.watermark_alert_seconds = std::atof(next());
    } else if (arg == "--compact-interval-seconds") {
      config.compact_interval_seconds = std::atof(next());
    } else if (arg == "--compact-trigger-frag-pct") {
      config.compact_trigger_frag_pct = std::atof(next());
    } else if (arg == "--grace") {
      grace = std::atof(next());
    } else if (arg == "--data-dir") {
      data_dir = next();
    } else if (arg == "--fsync") {
      if (!ges::ParseFsyncPolicy(next(), &dur.wal.fsync_policy)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (arg == "--fsync-interval-ms") {
      dur.wal.fsync_interval_ms = std::atoi(next());
    } else if (arg == "--wal-rotate-mb") {
      dur.checkpoint_wal_bytes =
          static_cast<uint64_t>(std::atoll(next())) << 20;
    } else if (arg == "--replicate-from") {
      replicate_from = next();
    } else if (arg == "--replica-name") {
      replica_name = next();
    } else if (arg == "--min-replica-acks") {
      config.min_replica_acks = std::atoi(next());
    } else if (arg == "--ack-timeout") {
      config.replica_ack_timeout_seconds = std::atof(next());
    } else if (arg == "--ryw-wait-ms") {
      config.ryw_wait_ms = std::atof(next());
    } else if (arg == "--query-memory-limit-mb") {
      config.query_memory_limit_bytes =
          static_cast<size_t>(std::atoll(next())) << 20;
    } else if (arg == "--memory-watermark-mb") {
      config.memory_watermark_bytes =
          static_cast<size_t>(std::atoll(next())) << 20;
    } else if (arg == "--watchdog-grace-ms") {
      config.watchdog_grace_ms = std::atof(next());
    } else if (arg == "--plan-cache-entries") {
      config.plan_cache_entries = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--stats-refresh-seconds") {
      config.stats_refresh_seconds = std::atof(next());
    } else {
      Usage(argv[0]);
      return arg == "--help" ? 0 : 2;
    }
  }

  // Recovery/bootstrap happens HERE, before the server binds: no
  // connection is ever accepted against a partially recovered graph.
  std::unique_ptr<ges::Graph> owned_graph;
  std::unique_ptr<ges::replication::Replica> replica;
  ges::Graph* graph = nullptr;
  ges::SnbData data;
  if (!replicate_from.empty()) {
    size_t colon = replicate_from.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr,
                   "[ges_serverd] --replicate-from wants HOST:PORT, got %s\n",
                   replicate_from.c_str());
      return 2;
    }
    ges::replication::Replica::Options ropts;
    ropts.primary_host = replicate_from.substr(0, colon);
    ropts.primary_port =
        static_cast<uint16_t>(std::atoi(replicate_from.c_str() + colon + 1));
    ropts.name = replica_name.empty()
                     ? config.host + ":" + std::to_string(config.port)
                     : replica_name;
    ropts.data_dir = data_dir;
    ropts.dur = dur;
    ropts.reconnect_attempts = 10;
    std::fprintf(stderr, "[ges_serverd] bootstrapping replica from %s ...\n",
                 replicate_from.c_str());
    replica = std::make_unique<ges::replication::Replica>(std::move(ropts));
    ges::Status s = replica->Start();
    if (!s.ok()) {
      std::fprintf(stderr, "[ges_serverd] replica bootstrap failed: %s\n",
                   s.message().c_str());
      return 1;
    }
    graph = replica->graph();
    data = ges::RebuildSnbData(graph);
    config.replica = true;
    std::fprintf(
        stderr,
        "[ges_serverd] replica caught up to v%llu (primary at v%llu); "
        "serving reads, SIGUSR1 promotes\n",
        static_cast<unsigned long long>(replica->applied_version()),
        static_cast<unsigned long long>(replica->primary_version()));
  } else if (!data_dir.empty() && ges::Graph::SnapshotExists(data_dir)) {
    std::fprintf(stderr, "[ges_serverd] recovering from %s ...\n",
                 data_dir.c_str());
    ges::RecoveryInfo info;
    ges::Status s = ges::Graph::Open(data_dir, dur, &owned_graph, &info);
    if (!s.ok()) {
      std::fprintf(stderr, "[ges_serverd] recovery failed: %s\n",
                   s.message().c_str());
      return 1;
    }
    graph = owned_graph.get();
    std::fprintf(stderr,
                 "[ges_serverd] recovered: snapshot v%llu, %llu txns "
                 "replayed, %llu skipped, %llu bytes of torn tail cut\n",
                 static_cast<unsigned long long>(info.snapshot_version),
                 static_cast<unsigned long long>(info.replayed_txns),
                 static_cast<unsigned long long>(info.skipped_txns),
                 static_cast<unsigned long long>(info.truncated_bytes));
    data = ges::RebuildSnbData(graph);
  } else {
    std::fprintf(stderr, "[ges_serverd] generating SNB graph sf=%g ...\n",
                 sf);
    owned_graph = std::make_unique<ges::Graph>();
    graph = owned_graph.get();
    ges::SnbConfig snb;
    snb.scale_factor = sf;
    data = ges::GenerateSnb(snb, graph);
    if (!data_dir.empty()) {
      ges::Status s = graph->EnableDurability(data_dir, dur);
      if (!s.ok()) {
        std::fprintf(stderr, "[ges_serverd] durability setup failed: %s\n",
                     s.message().c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "[ges_serverd] initial checkpoint written to %s "
                   "(fsync=%s)\n",
                   data_dir.c_str(),
                   ges::FsyncPolicyName(dur.wal.fsync_policy));
    }
  }
  std::fprintf(stderr, "[ges_serverd] graph ready: %zu vertices, %zu edges\n",
               graph->NumVerticesTotal(), graph->NumEdgesTotal());

  ges::service::Server server(graph, &data, config);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "[ges_serverd] start failed: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "[ges_serverd] listening on %s:%u (policy=%s, workers=%d)\n",
               config.host.c_str(), server.port(),
               AdmissionPolicyName(config.policy), config.query_workers);

  struct sigaction sa {};
  sa.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  struct sigaction sp {};
  sp.sa_handler = OnPromote;
  ::sigaction(SIGUSR1, &sp, nullptr);

  while (!g_shutdown.load(std::memory_order_acquire)) {
    if (g_promote.exchange(false) && replica != nullptr) {
      // Failover: stop the replication stream, then open the graph for
      // writes. The log shipper is already running, so replicas of the
      // dead primary can re-subscribe here.
      std::fprintf(stderr,
                   "[ges_serverd] SIGUSR1: promoting to primary at v%llu\n",
                   static_cast<unsigned long long>(
                       replica->applied_version()));
      ges::Status s = replica->Promote();
      if (s.ok()) {
        server.PromoteToPrimary();
        std::fprintf(stderr, "[ges_serverd] promotion complete\n");
      } else {
        std::fprintf(stderr, "[ges_serverd] promotion failed: %s\n",
                     s.message().c_str());
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::fprintf(stderr, "[ges_serverd] draining (grace %.1fs) ...\n", grace);
  if (replica != nullptr) replica->Stop();
  server.Drain(grace);
  if (graph->durable() && !graph->read_only()) {
    // Clean shutdowns leave an empty WAL behind: the next start loads the
    // snapshot and replays nothing.
    ges::Status s = graph->Checkpoint();
    if (s.ok()) {
      std::fprintf(stderr, "[ges_serverd] final checkpoint written\n");
    } else {
      std::fprintf(stderr, "[ges_serverd] final checkpoint failed: %s\n",
                   s.message().c_str());
    }
  }
  std::printf("%s\n", server.StatsReport().c_str());
  std::fprintf(stderr, "[ges_serverd] bye\n");
  return 0;
}

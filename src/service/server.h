// The GES query service: a TCP front end over the engine (the "Service"
// component the paper's title promises).
//
// Architecture (one box per thread kind):
//
//   acceptor ──▶ per-connection session threads ──▶ AdmissionQueue workers
//                  (parse frames, own the session)     (execute queries)
//                            ▲                                │
//   reaper ──────────────────┘ (idle timeout, thread cleanup, │
//                               MVCC GC driver)               ▼
//                                            shared TaskScheduler (morsels)
//
// Sessions: each connection owns a Session pinned to the snapshot version
// current at connect time — all reads of that session see one consistent
// graph until the client refreshes (or its own IU commits advance it:
// read-your-writes). Query execution happens on admission workers, so a
// slow query never blocks its connection's control frames (Cancel, Ping).
// Every pinned session registers its snapshot with the graph's
// SnapshotRegistry (an RAII SnapshotHandle), and every admitted query
// re-registers the version it will execute at, so the version-chain GC the
// reaper drives (DESIGN.md §11) can never reclaim a chain entry a session
// or an in-flight morsel might still read. The GC cadence (interval +
// overlay-byte trigger) is independent of idle reaping: it runs even with
// idle_timeout_seconds = 0, and a session that holds the watermark past
// watermark_alert_seconds is logged and exported via
// ServiceStats::watermark_held_by_session.
//
// Cancellation: every query carries a QueryContext. Deadlines arm it at
// admission; kCancel frames and disconnects trip it; the engine's morsel
// checkpoints (Expand rows, filter morsels, de-factor loops) observe it
// and the worker returns DEADLINE_EXCEEDED / CANCELLED mid-flight.
//
// Drain: Drain() stops the acceptor, closes admission intake (new queries
// answer SHUTTING_DOWN), waits up to the grace period for in-flight work,
// cancels whatever remains, shuts every connection down and joins all
// threads. Safe to call from a signal-watcher thread.
#ifndef GES_SERVICE_SERVER_H_
#define GES_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/memory_budget.h"
#include "executor/executor.h"
#include "frontend/plan_cache.h"
#include "queries/ldbc.h"
#include "replication/log_shipper.h"
#include "service/admission.h"
#include "service/protocol.h"

namespace ges::service {

struct ServiceConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral (read back via Server::port())
  int max_connections = 64;
  size_t queue_capacity = 128;    // admission queue bound (backpressure)
  int query_workers = 4;          // admission worker threads
  AdmissionPolicy policy = AdmissionPolicy::kPrioritized;
  double short_threshold_ms = 5.0;
  double idle_timeout_seconds = 0;  // 0 = never reap idle sessions
  ExecMode exec_mode = ExecMode::kFactorizedFused;
  int intra_query_threads = 1;  // morsel parallelism per query

  // --- MVCC version-chain GC (reaper thread; DESIGN.md §11) ---
  // Periodic prune cadence; <= 0 disables interval-driven GC. Independent
  // of idle_timeout_seconds: the default config still collects garbage.
  double gc_interval_seconds = 1.0;
  // Prune immediately once Graph::OverlayBytes() exceeds this, without
  // waiting for the interval; 0 disables the byte trigger.
  size_t gc_trigger_bytes = 32u << 20;
  // A session whose pinned snapshot trails the current version and is
  // older than this is holding the watermark (and therefore garbage)
  // hostage: log it once and export it in the stats. <= 0 disables.
  double watermark_alert_seconds = 30.0;

  // --- background delta-merge compaction (DESIGN.md §16) ---
  // Periodic cadence for Graph::CompactRelations, driven from the reaper
  // and executed as a low-priority TaskScheduler job so it never displaces
  // query morsels. <= 0 disables background compaction.
  double compact_interval_seconds = 0;
  // Per-relation trigger: compact once the reclaimable share (overlay
  // chain bytes) reaches this fraction of the relation's footprint.
  double compact_trigger_frag_pct = 0.30;

  // --- WAL-shipping replication (DESIGN.md §13) ---
  // Replica mode: the graph is fed by a replication::Replica applier; IU
  // requests answer READ_ONLY directing the client to the primary.
  // PromoteToPrimary() clears it at failover.
  bool replica = false;
  // Semi-synchronous commit: an IU responds OK only once this many
  // connected replicas acked its commit version (0 = fully async). On
  // timeout the commit is durable locally but the client gets an error —
  // i.e. it was NOT acknowledged, and failover may or may not retain it.
  int min_replica_acks = 0;
  double replica_ack_timeout_seconds = 2.0;
  // Read-your-writes: how long a query carrying min_version may wait for
  // the applied version to catch up before answering LAGGING.
  double ryw_wait_ms = 50.0;

  // --- resource governor (DESIGN.md §15) ---
  // Per-query budget: a query whose charged intermediate state crosses
  // this dies at its next cooperative checkpoint with RESOURCE_EXHAUSTED.
  // 0 = unlimited (usage is still tracked and fed to the global gauge).
  size_t query_memory_limit_bytes = 0;
  // Soft watermark on the process-wide gauge: at admission, once the sum
  // of all in-flight budgets reaches this, *long* queries are shed with
  // OVERLOADED (+ retry_after_ms hint); at 125% of it (the hard
  // watermark) everything is shed. 0 disables shedding.
  size_t memory_watermark_bytes = 0;
  // Watchdog: an in-flight query still running this long past its own
  // deadline has ignored cooperative cancellation for too long — it is
  // force-cancelled and logged as a slow-query report. <= 0 disables.
  double watchdog_grace_ms = 0;
  // Backoff hint attached to OVERLOADED refusals.
  uint32_t shed_retry_after_ms = 100;

  // --- prepared statements + statistics (DESIGN.md §14) ---
  // Capacity of the shared plan cache (entries keyed by normalized query
  // text); 0 disables caching — every Execute re-plans.
  size_t plan_cache_entries = 128;
  // Reaper cadence for Graph::RebuildStats. A rebuild is skipped while the
  // graph version is unchanged, so a read-only server settles into zero
  // stats churn (and zero epoch bumps). <= 0 disables periodic refresh;
  // Start() still builds one initial snapshot.
  double stats_refresh_seconds = 5.0;
};

// Counters the server itself increments. Values another subsystem owns
// (graph overlay and compaction totals, the memory gauge, admission and
// plan-cache counters, replication shipping) are read from that owner by
// Server::StatsReport, not copied here.
struct ServiceStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected{0};
  std::atomic<uint64_t> queries_received{0};
  std::atomic<uint64_t> queries_ok{0};
  std::atomic<uint64_t> queries_rejected{0};     // admission backpressure
  std::atomic<uint64_t> queries_interrupted{0};  // deadline or cancel
  std::atomic<uint64_t> queries_error{0};
  std::atomic<uint64_t> sessions_reaped{0};  // idle-timeout disconnects

  // The reaper's MVCC GC passes (gauges are "as of the last GC pass").
  std::atomic<uint64_t> gc_runs{0};
  std::atomic<uint64_t> versions_pruned{0};     // chain entries reclaimed
  std::atomic<uint64_t> gc_bytes_reclaimed{0};  // bytes those entries held
  std::atomic<uint64_t> gc_watermark{0};        // gauge: last prune watermark
  // Gauge: id of a session that has held the oldest pinned snapshot for
  // longer than watermark_alert_seconds while updates kept committing
  // (0 = nobody is stalling the watermark); `watermark_stalls` counts how
  // many distinct offenders were flagged.
  std::atomic<uint64_t> watermark_held_by_session{0};
  std::atomic<uint64_t> watermark_stalls{0};

  // Resource governor (DESIGN.md §15). `governor_killed` counts queries
  // the governor terminated (budget overruns, watchdog force-cancels,
  // admin kills); `governor_shed` counts admission refusals at the memory
  // watermark.
  std::atomic<uint64_t> governor_killed{0};
  std::atomic<uint64_t> governor_shed{0};
  // Reaper-cadence copy of memory_gauge().peak(), kept for perfbench.
  std::atomic<uint64_t> governor_peak_global_bytes{0};

  // WCOJ intersection counters aggregated across all read queries
  // (IntersectExpand + galloping membership probes; DESIGN.md §12).
  std::atomic<uint64_t> intersect_probes{0};
  std::atomic<uint64_t> intersect_gallops{0};
  std::atomic<uint64_t> intersect_skipped{0};
  std::atomic<uint64_t> intersect_emitted{0};

  // Replication (primary side).
  std::atomic<uint64_t> ryw_lagging{0};        // reads bounced with LAGGING
  std::atomic<uint64_t> semisync_timeouts{0};  // IU acks that timed out
};

// A deliberately heavy IC5-class plan used by cancellation tests and the
// STRESS wire kind: full person scan, distinct multi-hop knows expansion
// (eager BFS per source row — the per-row cancellation checkpoint path),
// then the posts of every reached friend, collapsed to a count so the
// response frame stays tiny while the work does not.
Plan BuildStressExpand(const LdbcContext& ctx, int hops);

class Server {
 public:
  // `graph` and `data` must outlive the server. The graph must be
  // finalized (bulk load done).
  Server(Graph* graph, const SnbData* data, ServiceConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens and starts the acceptor + reaper threads. Returns false
  // with `*error` set on socket failure.
  bool Start(std::string* error = nullptr);

  // Port actually bound (useful with config.port == 0).
  uint16_t port() const { return port_; }

  // Graceful drain; see file comment. Idempotent.
  void Drain(double grace_seconds = 5.0);

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  size_t ActiveSessions() const;

  // Failover: flips a replica-mode server into a writable primary. The
  // caller must have stopped the replication stream first (the applier no
  // longer advances the graph); the already-running log shipper then lets
  // the promoted node feed its own replicas.
  void PromoteToPrimary();
  bool replica_mode() const {
    return replica_mode_.load(std::memory_order_acquire);
  }
  replication::LogShipper* shipper() { return shipper_.get(); }

  const ServiceStats& stats() const { return stats_; }
  const QueryCostModel& cost_model() const { return cost_model_; }
  const AdmissionQueue& admission() const { return *admission_; }
  const PlanCache& plan_cache() const { return plan_cache_; }
  const GlobalMemoryGauge& memory_gauge() const { return memory_gauge_; }
  const ServiceConfig& config() const { return config_; }

  // Human-readable dump of every service statistic: the server's own
  // counters plus the values their owners hold, read now. Safe before
  // Start and after Drain.
  std::string StatsReport() const;

 private:
  struct Session {
    uint64_t id = 0;
    int fd = -1;
    std::atomic<Version> snapshot{0};
    // GC registration of the pinned snapshot. Invariant: while `pin` is
    // valid, pin.version() <= snapshot, so queries executing at the
    // session snapshot can safely re-register it (protected handover).
    // Guarded by snap_mu together with the `snapshot` store; `snapshot`
    // stays an atomic for lock-free readers.
    std::mutex snap_mu;
    SnapshotHandle pin;
    std::atomic<int64_t> pinned_at_ns{0};  // when pin's version last moved
    std::atomic<int64_t> last_active_ns{0};
    std::atomic<bool> closed{false};  // no further frames may be written
    std::atomic<bool> done{false};    // connection thread finished

    std::mutex write_mu;  // serializes response frames on fd

    // One admitted-but-unanswered query, as seen by control frames
    // (kCancel/kKillQuery) and the governor's watchdog sweep.
    struct InflightQuery {
      std::shared_ptr<QueryContext> ctx;
      std::string name;         // cost-model key, e.g. "IC5"
      int64_t admitted_ns = 0;  // when the query entered admission
      bool killed = false;      // watchdog already shot it (log/count once)
    };
    std::mutex inflight_mu;
    std::unordered_map<uint64_t, InflightQuery> inflight;

    // Prepared-statement handles (kPrepare/kExecute). Handles are scoped
    // to the session and die with it; the plan templates they point into
    // live in the server-wide PlanCache and are shared across sessions.
    // `params` keeps THIS session's Prepare-time literals — the shared
    // template's defaults may belong to whichever session populated the
    // cache first.
    struct PreparedHandle {
      std::shared_ptr<const PreparedPlan> plan;
      std::vector<Value> params;
    };
    std::mutex prepared_mu;
    std::unordered_map<uint64_t, PreparedHandle> prepared;
    uint64_t next_handle = 1;

    // Queries admitted but not yet answered; the connection must outlive
    // them (cleanup waits for pending == 0).
    std::mutex pending_mu;
    std::condition_variable pending_cv;
    int pending = 0;
  };

  struct SessionEntry {
    std::shared_ptr<Session> session;
    std::thread thread;
  };

  void AcceptLoop();
  void ReaperLoop();
  // Governor watchdog (own thread, started only when watchdog_grace_ms >
  // 0): sweeps every session's in-flight queries and force-cancels any
  // still running past deadline + grace, logging a slow-query report.
  void WatchdogLoop();
  // Cancels every in-flight query (any session) with this client-assigned
  // id; returns how many were cancelled. Backs the kKillQuery admin frame.
  uint32_t KillQuery(uint64_t query_id);
  // Reaper-thread helpers: idle-session reaping (only when
  // idle_timeout_seconds > 0), the GC driver (interval + byte trigger),
  // and the watermark-stall detector. All run on the reaper cadence.
  void ReapIdleSessions();
  void MaybeRunGc(int64_t* last_gc_ns);
  // Background compaction driver (compact_interval_seconds cadence): hands
  // Graph::CompactRelations to the shared TaskScheduler as a low-priority
  // job, at most one in flight.
  void MaybeRunCompaction(int64_t* last_compact_ns);
  // Reaper-thread statistics refresh (stats_refresh_seconds cadence).
  void MaybeRefreshStats(int64_t* last_stats_ns);
  void CheckWatermarkStall();
  // Installs `fresh` (an already-registered handle) as the session's pin
  // under snap_mu, refusing to move the snapshot backwards; returns the
  // session's resulting snapshot version.
  Version RepinSession(Session* session, SnapshotHandle fresh);
  void HandleConnection(std::shared_ptr<Session> session);
  // Dispatches one parsed frame; returns false when the connection should
  // close (kBye or a protocol violation).
  bool HandleFrame(const std::shared_ptr<Session>& session,
                   const std::string& payload);
  // Turns the connection into a replication subscription: registers with
  // the log shipper (which streams snapshot/backlog/live frames from its
  // own sender thread) and reads kReplicaAck frames until the replica
  // disconnects. Always returns false — the connection never goes back to
  // regular query service.
  bool HandleSubscribe(const std::shared_ptr<Session>& session,
                       WireReader* in);
  void HandleQuery(const std::shared_ptr<Session>& session, WireReader* in);
  // Admission + snapshot pinning + job dispatch for an already-decoded
  // request (shared by ad-hoc kQuery and prepared kExecute frames).
  void AdmitQuery(const std::shared_ptr<Session>& session, QueryRequest req);
  // kPrepare: normalize, fetch-or-build the shared plan template, mint a
  // session handle, answer kPrepareOk. Runs on the connection thread.
  void HandlePrepare(const std::shared_ptr<Session>& session,
                     const std::string& text);
  void HandleExecute(const std::shared_ptr<Session>& session, WireReader* in);
  // Cache lookup / compile+optimize+insert for `normalized_text` (which
  // must already be canonical). `hints` are per-slot literal values used
  // for costing; `cache_hit` reports whether the template came from the
  // cache.
  Status PrepareStatement(const std::string& normalized_text,
                          const std::vector<Value>& hints,
                          std::shared_ptr<const PreparedPlan>* out,
                          bool* cache_hit);
  QueryResponse ExecuteQuery(Session* session, const QueryRequest& req,
                             Version snapshot, QueryContext* ctx);
  QueryResponse ExecutePrepared(Session* session, const QueryRequest& req,
                                Version snapshot, QueryContext* ctx);
  // The tail both paths share: runs `plan` at `snapshot` (with the
  // template's column stats when `tmpl` is set), folds the intersection
  // counters into stats_, and fills exec_millis plus either the table or
  // the interrupt status of `*resp`.
  void RunPlan(const Plan& plan, const PreparedPlan* tmpl, Version snapshot,
               QueryContext* ctx, QueryResponse* resp);
  // Writes a frame honoring session->closed / write_mu.
  bool SendToSession(Session* session, const std::string& payload);
  void CancelInflight(Session* session);
  // Joins finished session threads and erases their entries.
  void ReapDoneSessions();

  Graph* graph_;
  const SnbData* data_;
  ServiceConfig config_;
  LdbcContext ldbc_;
  ParamGen param_gen_;
  QueryCostModel cost_model_;
  std::unique_ptr<AdmissionQueue> admission_;

  // Process-wide governor gauge; every query budget mirrors into it.
  // Outlives all sessions (declared before them, destroyed after Drain).
  GlobalMemoryGauge memory_gauge_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_reaper_{false};
  std::atomic<bool> stop_watchdog_{false};
  std::thread acceptor_;
  std::thread reaper_;
  std::thread watchdog_;

  mutable std::mutex sessions_mu_;
  std::unordered_map<uint64_t, SessionEntry> sessions_;
  uint64_t next_session_id_ = 1;

  // Last session already logged as a watermark stall (avoid log spam).
  uint64_t stall_logged_session_ = 0;

  // One background compaction job in flight at a time; the reaper skips
  // the cadence while the previous pass still runs on the scheduler.
  std::shared_ptr<std::atomic<bool>> compaction_inflight_ =
      std::make_shared<std::atomic<bool>>(false);

  // WAL shipping (always constructed, so a promoted replica can serve
  // subscribers without a restart). Shut down at the end of Drain, after
  // every subscriber connection thread has exited.
  std::unique_ptr<replication::LogShipper> shipper_;
  std::atomic<bool> replica_mode_{false};

  // Shared across sessions; entries invalidate via the catalog stats
  // epoch. Initialized in the constructor from plan_cache_entries.
  PlanCache plan_cache_;

  ServiceStats stats_;
};

}  // namespace ges::service

#endif  // GES_SERVICE_SERVER_H_

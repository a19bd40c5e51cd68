#include "service/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "common/timer.h"
#include "executor/optimizer.h"
#include "frontend/parser.h"
#include "runtime/scheduler.h"

namespace ges::service {

Plan BuildStressExpand(const LdbcContext& ctx, int hops) {
  PlanBuilder b("STRESS" + std::to_string(hops));
  b.ScanByLabel("p", ctx.s.person)
      .Expand("p", "f", {ctx.knows}, 1, std::max(1, hops),
              /*distinct=*/true, /*exclude_start=*/true)
      .Expand("f", "post", {ctx.person_posts})
      .Aggregate({}, {AggSpec{AggSpec::kCount, "", "cnt"}})
      .Output({"cnt"});
  return b.Build();
}

namespace {

// Bookkeeping that must happen exactly once per admitted query, whether
// the job ran, was rejected, or was dropped during shutdown: answer the
// client if nobody else did, then release the session's inflight slot.
// Held by shared_ptr from both the submitting connection thread and the
// job closure; the last owner (normally the worker, after run()) settles.
struct JobGuard {
  JobGuard(std::function<bool(const std::string&)> send, uint64_t query_id)
      : send_frame(std::move(send)), query_id(query_id) {}

  ~JobGuard() {
    if (!responded.load(std::memory_order_acquire)) {
      QueryResponse resp;
      resp.query_id = query_id;
      resp.status = drop_status;
      resp.message = "query dropped before execution";
      send_frame(EncodeQueryResponse(resp));
    }
    if (release) release();
  }

  std::function<bool(const std::string&)> send_frame;
  uint64_t query_id;
  std::atomic<bool> responded{false};
  WireStatus drop_status = WireStatus::kShuttingDown;
  std::function<void()> release;  // inflight-erase + pending-decrement
};

std::string QueryName(const QueryRequest& req) {
  switch (req.kind) {
    case QueryKind::kIC:
      return "IC" + std::to_string(req.number);
    case QueryKind::kIS:
      return "IS" + std::to_string(req.number);
    case QueryKind::kIU:
      return "IU" + std::to_string(req.number);
    case QueryKind::kStress:
      return "STRESS" + std::to_string(req.number);
    case QueryKind::kSleep:
      return "SLEEP";
    case QueryKind::kBI:
      return "BI" + std::to_string(req.number);
    case QueryKind::kPrepared:
      return "PREPARED";
    case QueryKind::kHog:
      return "HOG";
  }
  return "?";
}

WireStatus StatusOfInterrupt(InterruptReason r) {
  switch (r) {
    case InterruptReason::kCancelled:
      return WireStatus::kCancelled;
    case InterruptReason::kMemoryExceeded:
      return WireStatus::kResourceExhausted;
    default:
      return WireStatus::kDeadlineExceeded;
  }
}

// Response detail for an interrupted query; a budget kill names the bytes
// so the client log is actionable without server access.
std::string InterruptMessage(InterruptReason r, const QueryContext* ctx) {
  if (r == InterruptReason::kMemoryExceeded && ctx != nullptr &&
      ctx->budget() != nullptr) {
    return "query memory budget exceeded: peak " +
           std::to_string(ctx->budget()->peak()) + " bytes > limit " +
           std::to_string(ctx->budget()->limit()) + " bytes";
  }
  return InterruptReasonName(r);
}

}  // namespace

Server::Server(Graph* graph, const SnbData* data, ServiceConfig config)
    : graph_(graph),
      data_(data),
      config_(std::move(config)),
      ldbc_(LdbcContext::Resolve(*graph, data->schema)),
      param_gen_(graph, data, /*seed=*/1),
      cost_model_(config_.short_threshold_ms),
      plan_cache_(config_.plan_cache_entries) {
  replica_mode_.store(config_.replica, std::memory_order_release);
}

Server::~Server() { Drain(/*grace_seconds=*/1.0); }

std::string Server::StatsReport() const {
  const ServiceStats& st = stats_;
  uint64_t rejected_short = 0;
  uint64_t rejected_long = 0;
  size_t queue_depth = 0;
  if (admission_ != nullptr) {
    rejected_short = admission_->stats().rejected_short.load();
    rejected_long = admission_->stats().rejected_long.load();
    queue_depth = admission_->queued();
  }
  std::vector<replication::ReplicaLagInfo> replicas;
  uint64_t frames_shipped = 0;
  uint64_t bytes_shipped = 0;
  if (shipper_ != nullptr) {
    replicas = shipper_->LagSnapshot();
    frames_shipped = shipper_->frames_shipped();
    bytes_shipped = shipper_->bytes_shipped();
  }
  size_t connected = std::count_if(
      replicas.begin(), replicas.end(),
      [](const replication::ReplicaLagInfo& r) { return r.connected; });

  std::ostringstream os;
  os << "connections: accepted=" << st.connections_accepted.load()
     << " rejected=" << st.connections_rejected.load()
     << " reaped=" << st.sessions_reaped.load()
     << "\nqueries: received=" << st.queries_received.load()
     << " ok=" << st.queries_ok.load()
     << " rejected=" << st.queries_rejected.load()
     << " interrupted=" << st.queries_interrupted.load()
     << " error=" << st.queries_error.load()
     << "\ngc: runs=" << st.gc_runs.load()
     << " versions_pruned=" << st.versions_pruned.load()
     << " bytes_reclaimed=" << st.gc_bytes_reclaimed.load()
     << " overlay_bytes=" << graph_->OverlayBytes()
     << " watermark=" << st.gc_watermark.load()
     << " watermark_held_by_session=" << st.watermark_held_by_session.load()
     << " stalls=" << st.watermark_stalls.load()
     << "\ncompaction: runs=" << graph_->compaction_runs_total()
     << " bytes_reclaimed=" << graph_->compaction_bytes_reclaimed_total()
     << " segments=" << graph_->CompactedSegments()
     << "\ngovernor: killed=" << st.governor_killed.load()
     << " shed=" << st.governor_shed.load()
     << " global_bytes=" << memory_gauge_.used()
     << " peak_global_bytes=" << memory_gauge_.peak()
     << "\nadmission: rejected_short=" << rejected_short
     << " rejected_long=" << rejected_long << " queue_depth=" << queue_depth
     << "\nplan_cache: hits=" << plan_cache_.hits()
     << " misses=" << plan_cache_.misses()
     << " evictions=" << plan_cache_.evictions()
     << "\nintersect: probes=" << st.intersect_probes.load()
     << " gallops=" << st.intersect_gallops.load()
     << " skipped=" << st.intersect_skipped.load()
     << " emitted=" << st.intersect_emitted.load()
     << "\nreplication: replicas=" << connected
     << " frames_shipped=" << frames_shipped
     << " bytes_shipped=" << bytes_shipped
     << " ryw_lagging=" << st.ryw_lagging.load()
     << " semisync_timeouts=" << st.semisync_timeouts.load();
  for (const auto& r : replicas) {
    os << "\n  replica \"" << r.name << "\" (sub " << r.subscriber_id
       << "): applied=v" << r.applied_version
       << " lag_commits=" << r.lag_commits << " lag_bytes=" << r.lag_bytes
       << " last_ack_age_s=" << r.last_ack_age_s
       << (r.connected ? "" : " DISCONNECTED");
  }
  return os.str();
}

bool Server::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + ::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    return fail("inet_pton(" + config_.host + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 128) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  admission_ = std::make_unique<AdmissionQueue>(
      config_.policy, config_.queue_capacity, config_.query_workers,
      &cost_model_);
  // The shipper exists on every server (a promoted replica feeds its own
  // replicas without a restart); with no subscribers it costs one branch
  // per commit.
  shipper_ = std::make_unique<replication::LogShipper>(graph_);
  shipper_->Start();
  // Initial statistics snapshot so the optimizer is costed from the first
  // query on; the reaper refreshes it on the stats_refresh_seconds cadence.
  graph_->RebuildStats();
  acceptor_ = std::thread([this] { AcceptLoop(); });
  reaper_ = std::thread([this] { ReaperLoop(); });
  if (config_.watchdog_grace_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
  return true;
}

void Server::PromoteToPrimary() {
  replica_mode_.store(false, std::memory_order_release);
}

void Server::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down (drain) or fatal error
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    if (ActiveSessions() >= static_cast<size_t>(config_.max_connections)) {
      // Bounded connection count: refuse with an explicit error frame
      // instead of letting connections pile up half-served.
      WriteFrame(fd, EncodeError(WireStatus::kResourceExhausted,
                                 "connection limit reached"));
      stats_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      // Lingering close: drain the client's (already in-flight) Hello
      // before closing, otherwise the close races the client's write and
      // the resulting RST wipes the refusal frame from its receive queue.
      ::shutdown(fd, SHUT_WR);
      struct timeval tv{1, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      char drain[256];
      while (::recv(fd, drain, sizeof(drain), 0) > 0) {
      }
      ::close(fd);
      continue;
    }

    auto session = std::make_shared<Session>();
    session->fd = fd;
    // Pin + snapshot are set from the same registration, so the session's
    // reads are GC-protected from the first frame on.
    SnapshotHandle pin = graph_->PinSnapshot();
    session->snapshot.store(pin.version(), std::memory_order_release);
    session->pin = std::move(pin);
    session->pinned_at_ns.store(QueryContext::NowNanos(),
                                std::memory_order_release);
    session->last_active_ns.store(QueryContext::NowNanos(),
                                  std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(sessions_mu_);
      session->id = next_session_id_++;
      SessionEntry entry;
      entry.session = session;
      entry.thread = std::thread([this, session] { HandleConnection(session); });
      sessions_.emplace(session->id, std::move(entry));
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::ReaperLoop() {
  // The reaper doubles as the MVCC GC driver: GC cadence is deliberately
  // NOT tied to idle_timeout_seconds (the default 0 disables idle reaping
  // only), so a server that never reaps sessions still collects garbage.
  int64_t last_gc_ns = QueryContext::NowNanos();
  int64_t last_stats_ns = QueryContext::NowNanos();
  int64_t last_compact_ns = QueryContext::NowNanos();
  while (!stop_reaper_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ReapDoneSessions();
    ReapIdleSessions();
    MaybeRunGc(&last_gc_ns);
    MaybeRunCompaction(&last_compact_ns);
    MaybeRefreshStats(&last_stats_ns);
    CheckWatermarkStall();
    stats_.governor_peak_global_bytes.store(memory_gauge_.peak(),
                                            std::memory_order_relaxed);
  }
}

void Server::WatchdogLoop() {
  const int64_t grace_ns =
      static_cast<int64_t>(config_.watchdog_grace_ms * 1e6);
  while (!stop_watchdog_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    int64_t now = QueryContext::NowNanos();
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (auto& [sid, entry] : sessions_) {
      Session& s = *entry.session;
      if (s.done.load(std::memory_order_acquire)) continue;
      std::lock_guard<std::mutex> il(s.inflight_mu);
      for (auto& [qid, q] : s.inflight) {
        if (q.killed) continue;
        int64_t dl = q.ctx->deadline_nanos();
        if (dl == 0 || now < dl + grace_ns) continue;
        // Past deadline + grace: either the query is stuck between
        // cooperative checkpoints or a worker never picked up the
        // cancellation. Force the flag (idempotent) and report it.
        q.killed = true;
        q.ctx->Cancel();
        stats_.governor_killed.fetch_add(1, std::memory_order_relaxed);
        size_t peak =
            q.ctx->budget() != nullptr ? q.ctx->budget()->peak() : 0;
        std::fprintf(stderr,
                     "[ges_server] watchdog killed query %llu (%s) on "
                     "session %llu: running %.1fms past its deadline "
                     "(grace %.1fms), peak_memory=%zu bytes\n",
                     static_cast<unsigned long long>(qid), q.name.c_str(),
                     static_cast<unsigned long long>(sid), (now - dl) / 1e6,
                     config_.watchdog_grace_ms, peak);
      }
    }
  }
}

uint32_t Server::KillQuery(uint64_t query_id) {
  uint32_t killed = 0;
  std::lock_guard<std::mutex> lk(sessions_mu_);
  for (auto& [sid, entry] : sessions_) {
    Session& s = *entry.session;
    if (s.done.load(std::memory_order_acquire)) continue;
    std::lock_guard<std::mutex> il(s.inflight_mu);
    auto it = s.inflight.find(query_id);
    if (it != s.inflight.end() && !it->second.killed) {
      it->second.killed = true;
      it->second.ctx->Cancel();
      ++killed;
    }
  }
  if (killed > 0) {
    stats_.governor_killed.fetch_add(killed, std::memory_order_relaxed);
  }
  return killed;
}

void Server::MaybeRefreshStats(int64_t* last_stats_ns) {
  if (config_.stats_refresh_seconds <= 0) return;
  int64_t now = QueryContext::NowNanos();
  if (now - *last_stats_ns <
      static_cast<int64_t>(config_.stats_refresh_seconds * 1e9)) {
    return;
  }
  *last_stats_ns = now;
  // Incremental: RebuildStats returns without installing (and without
  // bumping the plan-cache-invalidating epoch) while the graph version is
  // unchanged since the last snapshot.
  graph_->RebuildStats();
}

void Server::ReapIdleSessions() {
  if (config_.idle_timeout_seconds <= 0) return;
  int64_t now = QueryContext::NowNanos();
  int64_t limit = static_cast<int64_t>(config_.idle_timeout_seconds * 1e9);
  std::lock_guard<std::mutex> lk(sessions_mu_);
  for (auto& [id, entry] : sessions_) {
    Session& s = *entry.session;
    if (s.done.load(std::memory_order_acquire)) continue;
    bool idle;
    {
      std::lock_guard<std::mutex> plk(s.pending_mu);
      idle = s.pending == 0;
    }
    if (idle &&
        now - s.last_active_ns.load(std::memory_order_acquire) > limit) {
      // Force EOF on the connection thread; it performs the cleanup.
      ::shutdown(s.fd, SHUT_RDWR);
      s.last_active_ns.store(now, std::memory_order_release);  // once
      stats_.sessions_reaped.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Server::MaybeRunGc(int64_t* last_gc_ns) {
  int64_t now = QueryContext::NowNanos();
  bool interval_due =
      config_.gc_interval_seconds > 0 &&
      now - *last_gc_ns >=
          static_cast<int64_t>(config_.gc_interval_seconds * 1e9);
  bool bytes_due = config_.gc_trigger_bytes > 0 &&
                   graph_->OverlayBytes() >= config_.gc_trigger_bytes;
  if (!interval_due && !bytes_due) return;
  *last_gc_ns = now;
  GcStats gc = graph_->PruneVersions();
  stats_.gc_runs.fetch_add(1, std::memory_order_relaxed);
  stats_.versions_pruned.fetch_add(gc.entries_pruned,
                                   std::memory_order_relaxed);
  stats_.gc_bytes_reclaimed.fetch_add(gc.bytes_reclaimed,
                                      std::memory_order_relaxed);
  stats_.gc_watermark.store(gc.watermark, std::memory_order_relaxed);
}

void Server::MaybeRunCompaction(int64_t* last_compact_ns) {
  if (config_.compact_interval_seconds <= 0) return;
  int64_t now = QueryContext::NowNanos();
  if (now - *last_compact_ns <
      static_cast<int64_t>(config_.compact_interval_seconds * 1e9)) {
    return;
  }
  *last_compact_ns = now;
  bool expected = false;
  if (!compaction_inflight_->compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return;  // previous pass still running; try again next interval
  }
  // Run the pass off the reaper thread as a fire-and-forget scheduler task:
  // it lands behind queued query morsels (de-facto low priority) and the
  // reaper keeps its 50 ms cadence for session/GC work. Drain() waits for
  // the inflight flag, so the graph is not torn down under the task.
  CompactionOptions opts;
  opts.trigger_frag_pct = config_.compact_trigger_frag_pct;
  std::shared_ptr<std::atomic<bool>> inflight = compaction_inflight_;
  TaskScheduler::Global().Submit([graph = graph_, opts, inflight] {
    graph->CompactRelations(opts);
    inflight->store(false, std::memory_order_release);
  });
}

void Server::CheckWatermarkStall() {
  if (config_.watermark_alert_seconds <= 0) return;
  int64_t now = QueryContext::NowNanos();
  uint64_t holder = 0;
  Version oldest = 0;
  int64_t pinned_at = 0;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (auto& [id, entry] : sessions_) {
      Session& s = *entry.session;
      if (s.done.load(std::memory_order_acquire)) continue;
      std::lock_guard<std::mutex> sl(s.snap_mu);
      if (!s.pin.valid()) continue;
      if (holder == 0 || s.pin.version() < oldest) {
        holder = id;
        oldest = s.pin.version();
        pinned_at = s.pinned_at_ns.load(std::memory_order_acquire);
      }
    }
  }
  // Only a pin that actually trails the version counter holds garbage
  // hostage; an idle server at a stable version stalls nothing.
  if (holder == 0 || oldest >= graph_->CurrentVersion() ||
      now - pinned_at <
          static_cast<int64_t>(config_.watermark_alert_seconds * 1e9)) {
    stats_.watermark_held_by_session.store(0, std::memory_order_relaxed);
    stall_logged_session_ = 0;
    return;
  }
  stats_.watermark_held_by_session.store(holder, std::memory_order_relaxed);
  if (stall_logged_session_ != holder) {
    stall_logged_session_ = holder;
    stats_.watermark_stalls.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "[ges_server] session %llu has held the GC watermark at "
                 "v%llu for %.1fs (current v%llu); version chains behind it "
                 "cannot be pruned\n",
                 static_cast<unsigned long long>(holder),
                 static_cast<unsigned long long>(oldest),
                 (now - pinned_at) / 1e9,
                 static_cast<unsigned long long>(graph_->CurrentVersion()));
  }
}

Version Server::RepinSession(Session* session, SnapshotHandle fresh) {
  std::lock_guard<std::mutex> lk(session->snap_mu);
  Version cur = session->snapshot.load(std::memory_order_acquire);
  if (fresh.version() < cur) {
    // A concurrent IU commit already advanced the session past `fresh`
    // (read-your-writes); never move a session's snapshot backwards.
    return cur;
  }
  Version v = fresh.version();
  // `fresh` is already registered, so the watermark stays covered across
  // the swap; move-assignment releases the old pin after the new one is
  // in place.
  session->snapshot.store(v, std::memory_order_release);
  session->pin = std::move(fresh);
  session->pinned_at_ns.store(QueryContext::NowNanos(),
                              std::memory_order_release);
  return v;
}

void Server::ReapDoneSessions() {
  std::vector<std::thread> joinable;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second.session->done.load(std::memory_order_acquire)) {
        joinable.push_back(std::move(it->second.thread));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& t : joinable) {
    if (t.joinable()) t.join();
  }
}

size_t Server::ActiveSessions() const {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  size_t n = 0;
  for (const auto& [id, entry] : sessions_) {
    if (!entry.session->done.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

bool Server::SendToSession(Session* session, const std::string& payload) {
  std::lock_guard<std::mutex> lk(session->write_mu);
  if (session->closed.load(std::memory_order_acquire)) return false;
  return WriteFrame(session->fd, payload);
}

void Server::CancelInflight(Session* session) {
  std::lock_guard<std::mutex> lk(session->inflight_mu);
  for (auto& [id, q] : session->inflight) q.ctx->Cancel();
}

void Server::HandleConnection(std::shared_ptr<Session> session) {
  std::string payload;
  for (;;) {
    ReadResult r = ReadFrame(session->fd, &payload);
    if (r == ReadResult::kTooLarge) {
      // The oversized frame's bytes were not consumed, so the stream is
      // still coherent enough to refuse cleanly before disconnecting.
      SendToSession(session.get(),
                    EncodeError(WireStatus::kInvalidArgument,
                                "frame exceeds the maximum frame size"));
      break;
    }
    if (r != ReadResult::kOk) break;
    session->last_active_ns.store(QueryContext::NowNanos(),
                                  std::memory_order_release);
    if (!HandleFrame(session, payload)) break;
  }
  // Disconnect: whatever is still running belongs to a client that left —
  // cancel it so workers free up, then wait for the responses (which will
  // fail to send) to settle before closing the descriptor.
  CancelInflight(session.get());
  {
    std::unique_lock<std::mutex> lk(session->pending_mu);
    session->pending_cv.wait_for(lk, std::chrono::seconds(30),
                                 [&] { return session->pending == 0; });
  }
  // Drop the GC registration as soon as no query can execute on the
  // session's behalf: the Session object lingers in sessions_ until the
  // reaper joins the thread, and keeping the pin that long would hold the
  // watermark (and therefore garbage) for no reader.
  {
    std::lock_guard<std::mutex> lk(session->snap_mu);
    session->pin.Release();
  }
  {
    std::lock_guard<std::mutex> lk(session->write_mu);
    session->closed.store(true, std::memory_order_release);
    ::close(session->fd);
  }
  session->done.store(true, std::memory_order_release);
}

bool Server::HandleFrame(const std::shared_ptr<Session>& session,
                         const std::string& payload) {
  WireReader in(payload);
  // Malformed input never goes unanswered: the client gets an explicit
  // INVALID_ARGUMENT error frame before the server closes the connection
  // (the stream position is unknowable after a bad body).
  auto refuse = [&](std::string_view what) {
    SendToSession(session.get(),
                  EncodeError(WireStatus::kInvalidArgument, what));
    return false;
  };
  MsgType type = static_cast<MsgType>(in.GetU8());
  if (!in.ok()) return refuse("empty frame");
  switch (type) {
    case MsgType::kHello: {
      in.GetU32();  // protocol version; single version so far
      if (!in.ok()) return refuse("malformed hello frame");
      WireBuf b;
      b.PutU8(static_cast<uint8_t>(MsgType::kHelloOk));
      b.PutU64(session->id);
      b.PutU64(session->snapshot.load(std::memory_order_acquire));
      return SendToSession(session.get(), b.data());
    }
    case MsgType::kQuery:
      HandleQuery(session, &in);
      return true;
    case MsgType::kPrepare: {
      std::string text = in.GetString();
      if (!in.ok() || !in.AtEnd()) return refuse("malformed prepare frame");
      HandlePrepare(session, text);
      return true;
    }
    case MsgType::kExecute:
      HandleExecute(session, &in);
      return true;
    case MsgType::kCancel: {
      uint64_t id = in.GetU64();
      if (!in.ok()) return refuse("malformed cancel frame");
      std::lock_guard<std::mutex> lk(session->inflight_mu);
      auto it = session->inflight.find(id);
      if (it != session->inflight.end()) it->second.ctx->Cancel();
      return true;  // no response frame; the query answers CANCELLED
    }
    case MsgType::kKillQuery: {
      // Admin force-kill (DESIGN.md §15): unlike kCancel this spans every
      // session and answers with the number of queries actually shot, so
      // an operator knows whether the id was still alive. Strict framing:
      // an admin tool that appends junk is broken, not forward-versioned.
      uint64_t id = in.GetU64();
      if (!in.ok() || !in.AtEnd()) return refuse("malformed kill-query frame");
      uint32_t killed = KillQuery(id);
      WireBuf b;
      b.PutU8(static_cast<uint8_t>(MsgType::kKillQueryOk));
      b.PutU32(killed);
      return SendToSession(session.get(), b.data());
    }
    case MsgType::kSubscribe:
      return HandleSubscribe(session, &in);
    case MsgType::kReplicaAck:
      return refuse("ack frame outside an active subscription");
    case MsgType::kRefreshSnapshot: {
      // Register the fresh version before dropping the old pin
      // (RepinSession): the session is never unprotected, so a concurrent
      // GC pass cannot prune a chain between the two registrations.
      Version v = RepinSession(session.get(), graph_->PinSnapshot());
      WireBuf b;
      b.PutU8(static_cast<uint8_t>(MsgType::kSnapshotOk));
      b.PutU64(v);
      return SendToSession(session.get(), b.data());
    }
    case MsgType::kPing: {
      WireBuf b;
      b.PutU8(static_cast<uint8_t>(MsgType::kPong));
      return SendToSession(session.get(), b.data());
    }
    case MsgType::kCheckpoint: {
      // Admin command: force a snapshot + WAL truncate. Runs on the
      // connection thread — checkpoints serialize against commits anyway,
      // and an admin willing to wait should see the true completion.
      WireBuf b;
      b.PutU8(static_cast<uint8_t>(MsgType::kCheckpointOk));
      if (!graph_->durable()) {
        b.PutU8(0);
        b.PutString("graph is not durable (no --data-dir)");
      } else {
        Status s = graph_->Checkpoint();
        b.PutU8(s.ok() ? 1 : 0);
        b.PutString(s.ok() ? "checkpoint complete" : s.message());
      }
      // Trailing GC telemetry (protocol-compatible: old clients stop
      // reading after the string): lifetime pruned entries, live overlay
      // bytes, and the current GC watermark.
      b.PutU64(graph_->versions_pruned_total());
      b.PutU64(graph_->OverlayBytes());
      b.PutU64(graph_->OldestActiveSnapshot());
      return SendToSession(session.get(), b.data());
    }
    case MsgType::kBye: {
      WireBuf b;
      b.PutU8(static_cast<uint8_t>(MsgType::kByeOk));
      SendToSession(session.get(), b.data());
      return false;
    }
    default:
      return refuse("unexpected message type");
  }
}

bool Server::HandleSubscribe(const std::shared_ptr<Session>& session,
                             WireReader* in) {
  auto refuse = [&](WireStatus status, std::string_view what) {
    SendToSession(session.get(), EncodeError(status, what));
    return false;
  };
  uint32_t proto = in->GetU32();
  Version from = in->GetU64();
  std::string name = in->GetString();
  if (!in->ok()) {
    return refuse(WireStatus::kInvalidArgument, "malformed subscribe frame");
  }
  if (proto != kReplicationProtocolVersion) {
    return refuse(WireStatus::kInvalidArgument,
                  "unsupported replication protocol version " +
                      std::to_string(proto));
  }
  if (draining_.load(std::memory_order_acquire) || shipper_ == nullptr) {
    return refuse(WireStatus::kShuttingDown, "server is draining");
  }

  // A subscriber is not a reader: drop the session's snapshot pin so a
  // connection that lives for the primary's whole lifetime doesn't hold
  // the GC watermark at its connect-time version forever.
  {
    std::lock_guard<std::mutex> lk(session->snap_mu);
    session->pin.Release();
  }

  Status status = Status::OK();
  uint64_t sub_id = shipper_->AddSubscriber(
      name.empty() ? "session-" + std::to_string(session->id) : name, from,
      /*send=*/
      [this, session](const std::string& frame) {
        return SendToSession(session.get(), frame);
      },
      /*on_dead=*/
      [session] {
        // Kick the connection thread (blocked below reading acks) so it
        // runs the session cleanup and removes the subscriber.
        ::shutdown(session->fd, SHUT_RDWR);
      },
      &status);
  if (sub_id == 0) {
    return refuse(WireStatus::kError,
                  "subscription failed: " + status.message());
  }

  // The connection thread now belongs to the subscription: the shipper's
  // sender thread streams snapshot/backlog/live frames while this loop
  // consumes kReplicaAck progress reports.
  std::string payload;
  for (;;) {
    ReadResult r = ReadFrame(session->fd, &payload);
    if (r != ReadResult::kOk) break;
    session->last_active_ns.store(QueryContext::NowNanos(),
                                  std::memory_order_release);
    WireReader ack(payload);
    if (static_cast<MsgType>(ack.GetU8()) != MsgType::kReplicaAck) {
      refuse(WireStatus::kInvalidArgument,
             "only ack frames are valid on a subscription");
      break;
    }
    Version applied = ack.GetU64();
    if (!ack.ok()) {
      refuse(WireStatus::kInvalidArgument, "malformed ack frame");
      break;
    }
    shipper_->OnAck(sub_id, applied);
  }
  shipper_->RemoveSubscriber(sub_id);
  return false;
}

void Server::HandleQuery(const std::shared_ptr<Session>& session,
                         WireReader* in) {
  QueryRequest req;
  if (!DecodeQueryRequest(in, &req)) {
    QueryResponse resp;
    resp.query_id = req.query_id;
    resp.status = WireStatus::kInvalidArgument;
    resp.message = "malformed query frame";
    SendToSession(session.get(), EncodeQueryResponse(resp));
    return;
  }
  AdmitQuery(session, std::move(req));
}

void Server::HandlePrepare(const std::shared_ptr<Session>& session,
                           const std::string& text) {
  NormalizedQuery norm;
  Status s = NormalizeQuery(text, &norm);
  if (!s.ok()) {
    SendToSession(session.get(), EncodePrepareError(
                                     WireStatus::kInvalidArgument,
                                     s.message()));
    return;
  }
  std::shared_ptr<const PreparedPlan> plan;
  bool hit = false;
  s = PrepareStatement(norm.text, norm.params, &plan, &hit);
  if (!s.ok()) {
    SendToSession(session.get(), EncodePrepareError(
                                     WireStatus::kInvalidArgument,
                                     s.message()));
    return;
  }
  PrepareResult r;
  {
    std::lock_guard<std::mutex> lk(session->prepared_mu);
    r.handle = session->next_handle++;
    session->prepared[r.handle] = Session::PreparedHandle{plan, norm.params};
  }
  r.param_count = static_cast<uint32_t>(plan->param_count);
  r.cache_hit = hit;
  r.normalized = plan->normalized;
  SendToSession(session.get(), EncodePrepareOk(r));
}

void Server::HandleExecute(const std::shared_ptr<Session>& session,
                           WireReader* in) {
  ExecuteRequest ereq;
  if (!DecodeExecuteRequest(in, &ereq)) {
    QueryResponse resp;
    resp.query_id = ereq.query_id;
    resp.status = WireStatus::kInvalidArgument;
    resp.message = "malformed execute frame";
    SendToSession(session.get(), EncodeQueryResponse(resp));
    return;
  }
  QueryRequest req;
  req.query_id = ereq.query_id;
  req.kind = QueryKind::kPrepared;
  req.deadline_ms = ereq.deadline_ms;
  req.min_version = ereq.min_version;
  req.handle = ereq.handle;
  req.bind_params = std::move(ereq.params);
  AdmitQuery(session, std::move(req));
}

Status Server::PrepareStatement(const std::string& normalized_text,
                                const std::vector<Value>& hints,
                                std::shared_ptr<const PreparedPlan>* out,
                                bool* cache_hit) {
  uint64_t epoch = graph_->catalog().stats_epoch();
  if (auto cached = plan_cache_.Lookup(normalized_text, epoch)) {
    *out = std::move(cached);
    if (cache_hit != nullptr) *cache_hit = true;
    return Status::OK();
  }
  if (cache_hit != nullptr) *cache_hit = false;
  Plan compiled;
  Status s = CompileTemplate(normalized_text, *graph_, hints, &compiled);
  if (!s.ok()) return s;
  auto plan = std::make_shared<PreparedPlan>();
  plan->normalized = normalized_text;
  plan->default_params = hints;
  plan->stats_epoch = epoch;
  plan->param_count = compiled.param_count;
  if (config_.exec_mode == ExecMode::kFactorizedFused) {
    // Optimize the template once; executions run it with
    // plan_is_optimized so the per-query rewrite pass is skipped.
    GraphView view(graph_);
    compiled = OptimizePlan(compiled, ExecOptions{}, &view);
    plan->optimized = true;
  }
  plan->column_stats = CollectPlanColumnStats(compiled, *graph_);
  plan->plan = std::move(compiled);
  *out = plan;
  plan_cache_.Insert(std::move(plan));
  return Status::OK();
}

void Server::AdmitQuery(const std::shared_ptr<Session>& session,
                        QueryRequest req) {
  stats_.queries_received.fetch_add(1, std::memory_order_relaxed);
  const std::string name = QueryName(req);

  // Watermark shedding (resource governor, DESIGN.md §15), decided BEFORE
  // the query pins a snapshot or takes an inflight slot. Soft watermark:
  // in-flight budgets already hold watermark bytes — refuse the long
  // (memory-hungry) class and keep draining shorts, which finish fast and
  // release. Hard watermark (125% of soft): the shorts-only diet did not
  // stop the climb; refuse everything new and let in-flight work drain.
  if (config_.memory_watermark_bytes > 0) {
    size_t used = memory_gauge_.used();
    size_t soft = config_.memory_watermark_bytes;
    size_t hard = soft + soft / 4;
    bool shed = used >= hard ||
                (used >= soft && !cost_model_.IsShort(name));
    if (shed) {
      stats_.governor_shed.fetch_add(1, std::memory_order_relaxed);
      stats_.queries_rejected.fetch_add(1, std::memory_order_relaxed);
      QueryResponse resp;
      resp.query_id = req.query_id;
      resp.status = WireStatus::kOverloaded;
      resp.message = "shed at the memory watermark: " + std::to_string(used) +
                     " bytes in flight, " +
                     (used >= hard ? "hard" : "soft") + " watermark " +
                     std::to_string(used >= hard ? hard : soft) + " bytes";
      resp.retry_after_ms = config_.shed_retry_after_ms;
      SendToSession(session.get(), EncodeQueryResponse(resp));
      return;
    }
  }

  // Read-your-writes floor (DESIGN.md §13): the request carries the
  // client's latest commit version. On a replica whose applier hasn't
  // caught up yet, wait briefly; still behind → LAGGING, telling the
  // router to bounce this read to the primary rather than serve a state
  // older than the client's own write.
  if (req.min_version > 0) {
    int64_t wait_deadline =
        QueryContext::NowNanos() +
        static_cast<int64_t>(std::max(0.0, config_.ryw_wait_ms) * 1e6);
    while (graph_->CurrentVersion() < req.min_version &&
           QueryContext::NowNanos() < wait_deadline &&
           !draining_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Version applied = graph_->CurrentVersion();
    if (applied < req.min_version) {
      stats_.ryw_lagging.fetch_add(1, std::memory_order_relaxed);
      QueryResponse resp;
      resp.query_id = req.query_id;
      resp.status = WireStatus::kLagging;
      resp.message = "applied version is v" + std::to_string(applied) +
                     ", behind the requested floor v" +
                     std::to_string(req.min_version);
      resp.snapshot_version = applied;
      SendToSession(session.get(), EncodeQueryResponse(resp));
      return;
    }
    // The graph caught up, but the session may still be pinned below the
    // floor (it pins at connect time); advance it so the query snapshot
    // honors the floor.
    if (session->snapshot.load(std::memory_order_acquire) <
        req.min_version) {
      RepinSession(session.get(), graph_->PinSnapshot());
    }
  }

  // Pin the snapshot NOW (connection thread): the session's pinned version
  // may move (RefreshSnapshot, IU read-your-writes) while this query waits
  // in the admission queue, and a query must see the version current when
  // it was issued. The query registers its own GC pin under snap_mu —
  // the session pin (<= snapshot, still registered) makes the handover
  // safe — and parks it on the QueryContext, so the version chains it
  // will read outlive the queue wait and every morsel worker.
  Version snapshot;
  auto ctx = std::make_shared<QueryContext>();
  // Every query gets a budget (limit 0 = unlimited) so peak_memory_bytes
  // and the global gauge are populated regardless of configuration. The
  // budget lives exactly as long as the context: its destructor returns
  // any bytes an exception unwind left charged to the global gauge.
  ctx->AttachBudget(std::make_shared<MemoryBudget>(
      config_.query_memory_limit_bytes, &memory_gauge_));
  {
    std::lock_guard<std::mutex> lk(session->snap_mu);
    snapshot = session->snapshot.load(std::memory_order_acquire);
    ctx->HoldSnapshotPin(
        std::make_shared<SnapshotHandle>(graph_->PinSnapshotAt(snapshot)));
  }
  if (req.deadline_ms > 0) {
    // Armed at admission: queue wait counts against the deadline (the SLO
    // is end-to-end, not execution-only).
    ctx->SetDeadline(req.deadline_ms / 1000.0);
  }
  {
    std::lock_guard<std::mutex> lk(session->inflight_mu);
    session->inflight[req.query_id] = Session::InflightQuery{
        ctx, name, QueryContext::NowNanos(), /*killed=*/false};
  }
  {
    std::lock_guard<std::mutex> lk(session->pending_mu);
    ++session->pending;
  }

  auto guard = std::make_shared<JobGuard>(
      [this, session](const std::string& frame) {
        return SendToSession(session.get(), frame);
      },
      req.query_id);
  guard->drop_status = draining_.load(std::memory_order_acquire)
                           ? WireStatus::kShuttingDown
                           : WireStatus::kResourceExhausted;
  guard->release = [this, session, query_id = req.query_id] {
    {
      std::lock_guard<std::mutex> lk(session->inflight_mu);
      session->inflight.erase(query_id);
    }
    std::lock_guard<std::mutex> lk(session->pending_mu);
    --session->pending;
    session->pending_cv.notify_all();
  };

  QueryJob job;
  job.name = name;
  job.run = [this, session, req, snapshot, ctx, guard] {
    Timer t;
    QueryResponse resp = ExecuteQuery(session.get(), req, snapshot, ctx.get());
    resp.query_id = req.query_id;
    resp.server_millis = t.ElapsedMillis();
    if (ctx->budget() != nullptr) {
      resp.peak_memory_bytes = ctx->budget()->peak();
    }
    switch (resp.status) {
      case WireStatus::kOk:
        stats_.queries_ok.fetch_add(1, std::memory_order_relaxed);
        break;
      case WireStatus::kDeadlineExceeded:
      case WireStatus::kCancelled:
        stats_.queries_interrupted.fetch_add(1, std::memory_order_relaxed);
        break;
      case WireStatus::kResourceExhausted:
        // Only the budget produces RESOURCE_EXHAUSTED on this path
        // (admission rejections never reach a worker): the governor
        // terminated the query mid-flight.
        stats_.queries_interrupted.fetch_add(1, std::memory_order_relaxed);
        stats_.governor_killed.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        stats_.queries_error.fetch_add(1, std::memory_order_relaxed);
    }
    guard->responded.store(true, std::memory_order_release);
    SendToSession(session.get(), EncodeQueryResponse(resp));
  };
  if (!admission_->TrySubmit(std::move(job))) {
    stats_.queries_rejected.fetch_add(1, std::memory_order_relaxed);
    // `job` (and its guard reference) is already destroyed; our own guard
    // reference is the last one and answers with drop_status on scope exit.
  }
}

QueryResponse Server::ExecuteQuery(Session* session, const QueryRequest& req,
                                   Version snapshot, QueryContext* ctx) {
  QueryResponse resp;
  // Version the caller's read executes at (IU overrides with its commit
  // version below); the routed client turns this into its RYW token.
  resp.snapshot_version = snapshot;
  InterruptReason pre = ctx->Check();
  if (pre != InterruptReason::kNone) {
    // Died waiting in the admission queue.
    resp.status = StatusOfInterrupt(pre);
    resp.message = "interrupted before execution";
    return resp;
  }

  switch (req.kind) {
    case QueryKind::kPrepared:
      return ExecutePrepared(session, req, snapshot, ctx);
    case QueryKind::kIC:
    case QueryKind::kIS:
    case QueryKind::kBI:
    case QueryKind::kStress: {
      Plan plan;
      if (req.kind == QueryKind::kIC) {
        if (req.number < 1 || req.number > 14) {
          resp.status = WireStatus::kInvalidArgument;
          resp.message = "IC number out of range";
          return resp;
        }
        plan = BuildIC(req.number, ldbc_, req.params);
      } else if (req.kind == QueryKind::kIS) {
        if (req.number < 1 || req.number > 7) {
          resp.status = WireStatus::kInvalidArgument;
          resp.message = "IS number out of range";
          return resp;
        }
        plan = BuildIS(req.number, ldbc_, req.params);
      } else if (req.kind == QueryKind::kBI) {
        if (req.number < 1 || req.number > 3) {
          resp.status = WireStatus::kInvalidArgument;
          resp.message = "BI number out of range";
          return resp;
        }
        plan = BuildBI(req.number, ldbc_, req.params);
      } else {
        plan = BuildStressExpand(ldbc_, req.number);
      }
      RunPlan(plan, /*tmpl=*/nullptr, snapshot, ctx, &resp);
      return resp;
    }
    case QueryKind::kIU: {
      if (req.number < 1 || req.number > 8) {
        resp.status = WireStatus::kInvalidArgument;
        resp.message = "IU number out of range";
        return resp;
      }
      if (replica_mode_.load(std::memory_order_acquire)) {
        // Single-writer topology: only the primary commits; the applier
        // is this graph's sole writer until promotion.
        resp.status = WireStatus::kReadOnly;
        resp.message = "replica is read-only; route updates to the primary";
        return resp;
      }
      if (graph_->read_only()) {
        // A WAL I/O failure latched the store read-only; reads keep
        // flowing but writes must fail fast with the root cause.
        resp.status = WireStatus::kReadOnly;
        resp.message = "graph is read-only: " + graph_->read_only_reason();
        return resp;
      }
      Version commit =
          RunIU(req.number, ldbc_, graph_, &param_gen_, req.seed);
      if (commit == 0) {
        // The commit failed mid-flight — either the WAL just failed (the
        // graph is read-only now) or the transaction itself errored.
        if (graph_->read_only()) {
          resp.status = WireStatus::kReadOnly;
          resp.message = "graph is read-only: " + graph_->read_only_reason();
        } else {
          resp.status = WireStatus::kError;
          resp.message = "update transaction failed to commit";
        }
        return resp;
      }
      graph_->MaybeCheckpoint();  // size-triggered WAL rotation
      // Read-your-writes: advance the session pin so the writer's next
      // reads observe its own update. snap_mu makes the
      // check-acquire-swap atomic against RefreshSnapshot and other IU
      // commits; while the old pin (< commit) is registered the watermark
      // sits below commit, so the AcquireAt handover is protected.
      {
        std::lock_guard<std::mutex> lk(session->snap_mu);
        if (session->snapshot.load(std::memory_order_acquire) < commit) {
          SnapshotHandle fresh = graph_->PinSnapshotAt(commit);
          session->snapshot.store(commit, std::memory_order_release);
          session->pin = std::move(fresh);
          session->pinned_at_ns.store(QueryContext::NowNanos(),
                                      std::memory_order_release);
        }
      }
      resp.snapshot_version = commit;
      // Semi-synchronous replication: hold the OK until enough replicas
      // acked this commit. On timeout the transaction is durable locally
      // but the client is told it was NOT acknowledged — the failover
      // drill counts only OK updates as "acknowledged".
      if (config_.min_replica_acks > 0 &&
          !shipper_->WaitForAcks(commit, config_.min_replica_acks,
                                 config_.replica_ack_timeout_seconds)) {
        stats_.semisync_timeouts.fetch_add(1, std::memory_order_relaxed);
        resp.status = WireStatus::kError;
        resp.message =
            "commit v" + std::to_string(commit) +
            " is durable locally but was not acknowledged by " +
            std::to_string(config_.min_replica_acks) +
            " replica(s) in time; it may or may not survive failover";
        return resp;
      }
      Schema s;
      s.Add("commit_version", ValueType::kInt64);
      resp.table = FlatBlock(std::move(s));
      resp.table.AppendRow({Value::Int(static_cast<int64_t>(commit))});
      return resp;
    }
    case QueryKind::kSleep: {
      // Deterministic service-time stand-in for tests and benches: holds a
      // worker for `seed` ms but stays fully cancellation-responsive.
      // `number` > 0 stretches the checkpoint interval to that many ms — a
      // stand-in for an operator stuck between checkpoints, which is the
      // gap the watchdog exists to cover.
      const auto poll = std::chrono::microseconds(
          req.number > 0 ? static_cast<int64_t>(req.number) * 1000 : 200);
      int64_t end =
          QueryContext::NowNanos() + static_cast<int64_t>(req.seed) * 1'000'000;
      while (QueryContext::NowNanos() < end) {
        InterruptReason r = ctx->Check();
        if (r != InterruptReason::kNone) {
          resp.status = StatusOfInterrupt(r);
          resp.message = InterruptMessage(r, ctx);
          return resp;
        }
        std::this_thread::sleep_for(poll);
      }
      Schema s;
      s.Add("slept_ms", ValueType::kInt64);
      resp.table = FlatBlock(std::move(s));
      resp.table.AppendRow({Value::Int(static_cast<int64_t>(req.seed))});
      return resp;
    }
    case QueryKind::kHog: {
      // Governor diagnostic (the memory analogue of kSleep): allocate
      // `seed` MiB of real, touched heap in 1 MiB budget-charged steps,
      // hold it for `number` ms, release. Every step is a cooperative
      // checkpoint, so a budget overrun or kill lands within one step.
      const size_t kStep = 1u << 20;
      const size_t target = static_cast<size_t>(req.seed) << 20;
      MemoryBudget* budget = ctx->budget();
      std::vector<std::vector<char>> slabs;
      size_t charged = 0;
      auto interrupted = [&](InterruptReason r) {
        resp.status = StatusOfInterrupt(r);
        resp.message = InterruptMessage(r, ctx);
        if (budget != nullptr) budget->Release(charged);
        return resp;
      };
      for (size_t got = 0; got < target; got += kStep) {
        if (budget != nullptr) {
          budget->Charge(kStep);
          charged += kStep;
        }
        InterruptReason r = ctx->Check();
        if (r != InterruptReason::kNone) return interrupted(r);
        slabs.emplace_back(kStep, 'h');  // touched: real RSS, not a mapping
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      int64_t hold_end = QueryContext::NowNanos() +
                         static_cast<int64_t>(req.number) * 1'000'000;
      while (QueryContext::NowNanos() < hold_end) {
        InterruptReason r = ctx->Check();
        if (r != InterruptReason::kNone) return interrupted(r);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (budget != nullptr) budget->Release(charged);
      Schema s;
      s.Add("hogged_mb", ValueType::kInt64);
      resp.table = FlatBlock(std::move(s));
      resp.table.AppendRow({Value::Int(static_cast<int64_t>(req.seed))});
      return resp;
    }
  }
  resp.status = WireStatus::kInvalidArgument;
  resp.message = "unknown query kind";
  return resp;
}

QueryResponse Server::ExecutePrepared(Session* session,
                                      const QueryRequest& req,
                                      Version snapshot, QueryContext* ctx) {
  QueryResponse resp;
  resp.snapshot_version = snapshot;

  Session::PreparedHandle handle;
  {
    std::lock_guard<std::mutex> lk(session->prepared_mu);
    auto it = session->prepared.find(req.handle);
    if (it == session->prepared.end()) {
      resp.status = WireStatus::kNotFound;
      resp.message = "unknown prepared-statement handle " +
                     std::to_string(req.handle);
      return resp;
    }
    handle = it->second;
  }

  // Fetch the template through the shared cache: the common case is a hit
  // (recency bump + counter); after a stats-epoch bump or an eviction this
  // transparently re-plans, billed to plan_millis and counted as a miss.
  Timer plan_t;
  std::shared_ptr<const PreparedPlan> tmpl;
  bool hit = false;
  Status s = PrepareStatement(
      handle.plan->normalized,
      !handle.params.empty() ? handle.params : handle.plan->default_params,
      &tmpl, &hit);
  if (!s.ok()) {
    resp.status = WireStatus::kError;
    resp.message = "re-prepare failed: " + s.message();
    return resp;
  }
  resp.plan_millis = plan_t.ElapsedMillis();
  resp.plan_cache_hit = hit ? 1 : 0;
  if (tmpl != handle.plan) {
    std::lock_guard<std::mutex> lk(session->prepared_mu);
    auto it = session->prepared.find(req.handle);
    if (it != session->prepared.end()) it->second.plan = tmpl;
  }

  // Positional bindings: a full set overrides; an empty set falls back to
  // the Prepare-time literals (auto-parameterized statements only).
  const std::vector<Value>* params = nullptr;
  size_t got = req.bind_params.size();
  if (got == static_cast<size_t>(tmpl->param_count)) {
    params = &req.bind_params;
  } else if (got == 0 &&
             handle.params.size() == static_cast<size_t>(tmpl->param_count)) {
    params = &handle.params;
  } else {
    resp.status = WireStatus::kInvalidArgument;
    resp.message = "statement takes " + std::to_string(tmpl->param_count) +
                   " parameter(s), got " + std::to_string(got);
    return resp;
  }

  Timer bind_t;
  Plan bound;
  Status bs = BindPlanParams(tmpl->plan, *params, &bound);
  if (!bs.ok()) {
    resp.status = WireStatus::kInvalidArgument;
    resp.message = bs.message();
    return resp;
  }
  resp.bind_millis = bind_t.ElapsedMillis();
  RunPlan(bound, tmpl.get(), snapshot, ctx, &resp);
  return resp;
}

void Server::RunPlan(const Plan& plan, const PreparedPlan* tmpl,
                     Version snapshot, QueryContext* ctx,
                     QueryResponse* resp) {
  ExecOptions opts;
  opts.intra_query_threads = config_.intra_query_threads;
  opts.collect_stats = false;
  opts.context = ctx;
  if (tmpl != nullptr) {
    opts.column_stats = &tmpl->column_stats;  // tmpl outlives the run
    opts.plan_is_optimized = tmpl->optimized;
  }
  Executor exec(config_.exec_mode, opts);
  GraphView view(graph_, snapshot);
  Timer exec_t;
  QueryResult result = exec.Run(plan, view);
  resp->exec_millis = exec_t.ElapsedMillis();
  // Query-wide intersection counters are collected even with per-op stats
  // off; aggregate them so galloping behaviour stays observable in
  // production (StatsReport).
  const IntersectOpStats& isect = result.stats.intersect;
  if (isect.Any()) {
    stats_.intersect_probes.fetch_add(isect.probes, std::memory_order_relaxed);
    stats_.intersect_gallops.fetch_add(isect.gallops,
                                       std::memory_order_relaxed);
    stats_.intersect_skipped.fetch_add(isect.skipped,
                                       std::memory_order_relaxed);
    stats_.intersect_emitted.fetch_add(isect.emitted,
                                       std::memory_order_relaxed);
  }
  if (result.interrupted != InterruptReason::kNone) {
    resp->status = StatusOfInterrupt(result.interrupted);
    resp->message = InterruptMessage(result.interrupted, ctx);
    return;
  }
  resp->table = std::move(result.table);
}

void Server::Drain(double grace_seconds) {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;

  // 1. Stop accepting: shutting the listen socket down fails the blocking
  //    accept() and the acceptor returns.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  if (admission_ != nullptr) {
    // 2. Close intake (new queries answer SHUTTING_DOWN) and give
    //    in-flight work the grace period to finish normally.
    admission_->CloseIntake();
    if (!admission_->WaitIdle(grace_seconds)) {
      // 3. Out of grace: cancel whatever is still running; cooperative
      //    checkpoints wind the queries down within morsels.
      std::lock_guard<std::mutex> lk(sessions_mu_);
      for (auto& [id, entry] : sessions_) CancelInflight(entry.session.get());
    }
    admission_->WaitIdle(std::max(grace_seconds, 1.0));
    // 4. Stop workers; still-queued jobs are dropped and their guards
    //    answer SHUTTING_DOWN, releasing session pending counts.
    admission_->Shutdown();
  }

  // 5. Force EOF on every connection; their threads run the session
  //    cleanup path and finish.
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (auto& [id, entry] : sessions_) {
      if (!entry.session->done.load(std::memory_order_acquire)) {
        ::shutdown(entry.session->fd, SHUT_RDWR);
      }
    }
  }
  stop_reaper_.store(true, std::memory_order_release);
  if (reaper_.joinable()) reaper_.join();
  // A compaction pass submitted to the shared TaskScheduler may still be
  // running on graph_, which need only outlive the server, so wait it out.
  // Passes are short (merge + pointer swap).
  while (compaction_inflight_->load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_watchdog_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (auto& [id, entry] : sessions_) {
      if (entry.thread.joinable()) entry.thread.join();
    }
    sessions_.clear();
  }

  // 6. Stop WAL shipping last: every subscriber connection thread has
  //    exited (and removed itself from the shipper), so this mostly
  //    detaches the commit listener and releases semi-sync waiters.
  if (shipper_ != nullptr) shipper_->Shutdown();
}

}  // namespace ges::service

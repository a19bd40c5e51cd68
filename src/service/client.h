// C++ client for the GES query service. Used by the e2e tests, the
// harness's open-loop load generator and bench_service_throughput.
//
// Thread model: one connection, one logical request/response stream.
// Sends are serialized by an internal mutex, so any thread may Cancel()
// while another is blocked in a synchronous Run(); frame *reads* must stay
// on a single thread (either the thread calling Run()/control methods, or
// a dedicated reader thread using the pipelined Send/ReadResponse pair —
// not both patterns at once).
#ifndef GES_SERVICE_CLIENT_H_
#define GES_SERVICE_CLIENT_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "service/protocol.h"

namespace ges::service {

// Transient-failure handling. With max_retries = 0 (the default) every
// failure surfaces immediately — exactly the pre-retry behaviour. With
// max_retries > 0, Connect() retries refused connections and Run() retries
// failed queries (reconnecting in between) with exponential backoff plus
// jitter, EXCEPT a non-idempotent update (kIU) whose request frame was
// fully sent but never answered: the server may have committed it, so the
// client reports the ambiguity instead of risking a double-apply.
//
// Server refusals that signal transient pressure — OVERLOADED (watermark
// shedding) and RESOURCE_EXHAUSTED (admission backpressure / a budget
// kill) — are also retried for idempotent reads, honoring the response's
// retry_after_ms hint when it exceeds the computed backoff. Updates (kIU)
// are never auto-retried on those statuses either: by the time a refusal
// arrives the caller cannot know a retried commit would not double-apply
// on a response lost mid-retry, so the first refusal surfaces.
struct RetryPolicy {
  int max_retries = 0;       // extra attempts after the first
  int base_backoff_ms = 20;  // first backoff; doubles per attempt
  int max_backoff_ms = 1000;
};

// GC telemetry a kCheckpointOk frame carries (see protocol.h); all-zero
// when talking to a server that predates the trailing fields.
struct CheckpointInfo {
  uint64_t versions_pruned = 0;  // lifetime chain entries reclaimed
  uint64_t overlay_bytes = 0;    // live overlay bytes after the command
  uint64_t watermark = 0;        // oldest-active-snapshot watermark
};

class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void set_retry_policy(const RetryPolicy& p) { retry_ = p; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // Connects and performs the Hello handshake. Returns false with
  // last_error() set on failure (including a server kError refusal, e.g.
  // the connection limit). Retries per the retry policy.
  bool Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }
  uint64_t session_id() const { return session_id_; }
  // Snapshot version the session was pinned to at connect/refresh.
  uint64_t snapshot() const { return snapshot_; }
  const std::string& last_error() const { return error_; }

  // --- synchronous request/response ------------------------------------

  // Sends the query and blocks for its kResult frame. Returns false only
  // on connection failure; admission rejection, deadline and cancellation
  // arrive as resp->status. Connection failures are retried per the retry
  // policy (see RetryPolicy for the non-idempotent-update exception).
  bool Run(const QueryRequest& req, QueryResponse* resp);

  // Convenience wrappers (auto-assign query ids).
  bool RunIC(int number, const LdbcParams& params, QueryResponse* resp,
             uint32_t deadline_ms = 0);
  bool RunIS(int number, const LdbcParams& params, QueryResponse* resp,
             uint32_t deadline_ms = 0);
  bool RunIU(int number, uint64_t seed, QueryResponse* resp,
             uint32_t deadline_ms = 0);
  // Cyclic census queries (number in [1, 3]; the WCOJ tier).
  bool RunBI(int number, QueryResponse* resp, uint32_t deadline_ms = 0);
  // Governor diagnostic: allocate `mib` MiB of budget-charged state on the
  // server, hold it `hold_ms` (<= 255) ms, release. See QueryKind::kHog.
  bool RunHog(uint64_t mib, QueryResponse* resp, uint32_t deadline_ms = 0,
              uint8_t hold_ms = 0);

  // --- prepared statements ----------------------------------------------

  // Sends kPrepare and blocks for kPrepareOk. On a clean server refusal
  // (parse error, invalid parameter indices) returns false with
  // last_error() set and the connection still usable. Handles are scoped
  // to this connection; reconnecting invalidates them.
  bool Prepare(const std::string& query_text, PrepareResult* out);

  // Executes a prepared handle with positional parameters (empty = the
  // Prepare-time literals). Server-side errors (unknown handle, arity
  // mismatch) arrive as resp->status; false means connection failure.
  // Not retried: a reconnect would invalidate the handle.
  bool Execute(uint64_t handle, const std::vector<Value>& params,
               QueryResponse* resp, uint32_t deadline_ms = 0);

  // Pipelined variant of Execute (pair with ReadResponse).
  bool SendExecute(const ExecuteRequest& req) {
    return SendFrame(EncodeExecuteRequest(req));
  }

  // Re-pins the session to the server's current version.
  bool RefreshSnapshot(uint64_t* version = nullptr);
  bool Ping();
  // Admin: asks a durable server to checkpoint (snapshot + WAL truncate).
  // Returns true when the checkpoint completed; on a clean refusal (e.g.
  // non-durable server) returns false with `*detail` explaining why and
  // the connection still usable. `*info`, when provided, receives the GC
  // telemetry newer servers append to kCheckpointOk (zeros from an old
  // server) — usable as a stats probe even against non-durable servers.
  bool Checkpoint(std::string* detail = nullptr, CheckpointInfo* info = nullptr);

  // --- pipelining (open-loop load generation) ---------------------------

  // Sends without waiting. Thread-safe against other senders/Cancel.
  bool Send(const QueryRequest& req);
  // Blocks for the next kResult frame (single reader thread only).
  bool ReadResponse(QueryResponse* resp);

  // Requests cooperative cancellation of an in-flight query. Fire and
  // forget: the query's own response reports CANCELLED (or OK if it won
  // the race). Thread-safe.
  bool Cancel(uint64_t query_id);

  // Admin force-kill (resource governor): cancels every in-flight query
  // with this id across ALL sessions and reports how many were shot in
  // `*killed` (0 = not found). Synchronous — do not interleave with
  // pipelined reads; use a dedicated admin connection.
  bool KillQuery(uint64_t query_id, uint32_t* killed = nullptr);

  // Next unused query id for hand-built QueryRequests.
  uint64_t AllocQueryId() { return next_query_id_++; }

  // Orderly goodbye (best effort) + close. Idempotent.
  void Close();

 private:
  // One connection attempt + handshake (no retries).
  bool ConnectOnce();
  // One request/response attempt; `*delivered` reports whether the full
  // request frame reached the kernel (the ambiguity boundary for updates).
  bool RunOnce(const QueryRequest& req, QueryResponse* resp, bool* delivered);
  // Sleeps the exponential backoff for retry `attempt` (0-based),
  // jittered; never less than `min_ms` (the server's retry-after hint).
  void SleepBackoff(int attempt, uint32_t min_ms = 0);
  bool SendFrame(const std::string& payload);
  // Reads until a frame of `want` arrives; fails the connection on
  // kError/unexpected frames.
  bool ReadExpected(MsgType want, std::string* payload);
  bool Fail(const std::string& what);

  int fd_ = -1;
  uint64_t session_id_ = 0;
  uint64_t snapshot_ = 0;
  uint64_t next_query_id_ = 1;
  std::mutex send_mu_;
  std::string error_;
  std::string host_;
  uint16_t port_ = 0;
  RetryPolicy retry_;
  uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;  // backoff jitter
};

}  // namespace ges::service

#endif  // GES_SERVICE_CLIENT_H_

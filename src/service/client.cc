#include "service/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

namespace ges::service {

bool Client::Fail(const std::string& what) {
  error_ = what;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return false;
}

bool Client::Connect(const std::string& host, uint16_t port) {
  host_ = host;
  port_ = port;
  for (int attempt = 0;; ++attempt) {
    if (ConnectOnce()) return true;
    if (attempt >= retry_.max_retries) return false;
    SleepBackoff(attempt);
  }
}

void Client::SleepBackoff(int attempt, uint32_t min_ms) {
  int64_t ms = std::max(1, retry_.base_backoff_ms);
  for (int i = 0; i < attempt && ms < retry_.max_backoff_ms; ++i) ms *= 2;
  ms = std::min<int64_t>(ms, std::max(1, retry_.max_backoff_ms));
  // Full jitter over [ms/2, ms]: concurrent clients hitting the same
  // failure must not retry in lockstep.
  rng_state_ = rng_state_ * 6364136223846793005ull + 1442695040888963407ull;
  int64_t half = ms / 2;
  ms = ms - half + static_cast<int64_t>((rng_state_ >> 33) %
                                        static_cast<uint64_t>(half + 1));
  // An overloaded server knows its own recovery horizon better than our
  // exponential guess: honor its retry-after hint as a floor.
  ms = std::max<int64_t>(ms, min_ms);
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool Client::ConnectOnce() {
  Close();
  if (host_.empty()) {
    error_ = "no server address (Connect was never called)";
    return false;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Fail(std::string("socket: ") + ::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    return Fail("inet_pton(" + host_ + ")");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Fail(std::string("connect: ") + ::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  WireBuf hello;
  hello.PutU8(static_cast<uint8_t>(MsgType::kHello));
  hello.PutU32(1);  // protocol version
  if (!SendFrame(hello.data())) return false;
  std::string payload;
  if (!ReadExpected(MsgType::kHelloOk, &payload)) return false;
  WireReader in(payload);
  in.GetU8();  // type
  session_id_ = in.GetU64();
  snapshot_ = in.GetU64();
  if (!in.ok()) return Fail("malformed HelloOk");
  return true;
}

void Client::Close() {
  if (fd_ < 0) return;
  WireBuf bye;
  bye.PutU8(static_cast<uint8_t>(MsgType::kBye));
  if (SendFrame(bye.data())) {
    std::string payload;
    ReadExpected(MsgType::kByeOk, &payload);  // best effort
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::SendFrame(const std::string& payload) {
  std::lock_guard<std::mutex> lk(send_mu_);
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  if (!WriteFrame(fd_, payload)) return Fail("write failed");
  return true;
}

bool Client::ReadExpected(MsgType want, std::string* payload) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  ReadResult r = ReadFrame(fd_, payload);
  if (r != ReadResult::kOk) {
    return Fail(r == ReadResult::kClosed     ? "connection closed"
                : r == ReadResult::kTooLarge ? "oversized response frame"
                                             : "read failed");
  }
  WireReader in(*payload);
  MsgType got = static_cast<MsgType>(in.GetU8());
  if (got == want) return true;
  if (got == MsgType::kError) {
    WireStatus st = static_cast<WireStatus>(in.GetU8());
    return Fail(std::string("server error: ") + WireStatusName(st) + ": " +
                in.GetString());
  }
  return Fail("unexpected frame type");
}

bool Client::Send(const QueryRequest& req) {
  return SendFrame(EncodeQueryRequest(req));
}

bool Client::ReadResponse(QueryResponse* resp) {
  std::string payload;
  if (!ReadExpected(MsgType::kResult, &payload)) return false;
  WireReader in(payload);
  in.GetU8();  // type
  if (!DecodeQueryResponse(&in, resp)) return Fail("malformed result frame");
  return true;
}

bool Client::RunOnce(const QueryRequest& req, QueryResponse* resp,
                     bool* delivered) {
  *delivered = false;
  if (!Send(req)) return false;
  // The full request frame was handed to the kernel: from here on the
  // server may execute it even if we never see the response.
  *delivered = true;
  // A lone synchronous caller has exactly one query outstanding, so the
  // next kResult is ours (ids still verified for safety).
  if (!ReadResponse(resp)) return false;
  if (resp->query_id != req.query_id) return Fail("response id mismatch");
  return true;
}

bool Client::Run(const QueryRequest& req, QueryResponse* resp) {
  for (int attempt = 0;; ++attempt) {
    bool delivered = false;
    if (RunOnce(req, resp, &delivered)) {
      // Transient server refusals (watermark shedding, admission
      // backpressure, a budget kill) are retryable for idempotent reads —
      // the connection is fine, so no reconnect, just back off honoring
      // the server's retry-after hint. Updates surface the refusal.
      bool transient = resp->status == WireStatus::kOverloaded ||
                       resp->status == WireStatus::kResourceExhausted;
      if (transient && req.kind != QueryKind::kIU &&
          attempt < retry_.max_retries) {
        SleepBackoff(attempt, resp->retry_after_ms);
        continue;
      }
      return true;
    }
    if (delivered && req.kind == QueryKind::kIU) {
      // The update reached the server but was never acknowledged — it may
      // or may not have committed. Retrying could apply it twice; surface
      // the ambiguity to the caller instead.
      error_ +=
          " (update was delivered but not acknowledged; not retried "
          "because the outcome is ambiguous)";
      return false;
    }
    if (attempt >= retry_.max_retries) return false;
    // Reads (and never-delivered writes: the server drops a truncated
    // frame without executing it) are safe to retry on a new connection.
    SleepBackoff(attempt);
    ConnectOnce();  // best effort; a failure charges the next attempt
  }
}

bool Client::RunIC(int number, const LdbcParams& params, QueryResponse* resp,
                   uint32_t deadline_ms) {
  QueryRequest req;
  req.query_id = AllocQueryId();
  req.kind = QueryKind::kIC;
  req.number = static_cast<uint8_t>(number);
  req.deadline_ms = deadline_ms;
  req.params = params;
  return Run(req, resp);
}

bool Client::RunIS(int number, const LdbcParams& params, QueryResponse* resp,
                   uint32_t deadline_ms) {
  QueryRequest req;
  req.query_id = AllocQueryId();
  req.kind = QueryKind::kIS;
  req.number = static_cast<uint8_t>(number);
  req.deadline_ms = deadline_ms;
  req.params = params;
  return Run(req, resp);
}

bool Client::RunBI(int number, QueryResponse* resp, uint32_t deadline_ms) {
  QueryRequest req;
  req.query_id = AllocQueryId();
  req.kind = QueryKind::kBI;
  req.number = static_cast<uint8_t>(number);
  req.deadline_ms = deadline_ms;
  return Run(req, resp);
}

bool Client::RunIU(int number, uint64_t seed, QueryResponse* resp,
                   uint32_t deadline_ms) {
  QueryRequest req;
  req.query_id = AllocQueryId();
  req.kind = QueryKind::kIU;
  req.number = static_cast<uint8_t>(number);
  req.deadline_ms = deadline_ms;
  req.seed = seed;
  return Run(req, resp);
}

bool Client::RunHog(uint64_t mib, QueryResponse* resp, uint32_t deadline_ms,
                    uint8_t hold_ms) {
  QueryRequest req;
  req.query_id = AllocQueryId();
  req.kind = QueryKind::kHog;
  req.number = hold_ms;
  req.deadline_ms = deadline_ms;
  req.seed = mib;
  return Run(req, resp);
}

bool Client::Prepare(const std::string& query_text, PrepareResult* out) {
  if (!SendFrame(EncodePrepareRequest(query_text))) return false;
  std::string payload;
  if (!ReadExpected(MsgType::kPrepareOk, &payload)) return false;
  WireReader in(payload);
  in.GetU8();  // type
  PrepareResult r;
  WireStatus st = WireStatus::kOk;
  std::string message;
  if (!DecodePrepareOk(&in, &r, &st, &message)) {
    return Fail("malformed PrepareOk");
  }
  if (st != WireStatus::kOk) {
    // Clean refusal (parse error etc.); connection stays usable.
    error_ = std::string(WireStatusName(st)) + ": " + message;
    return false;
  }
  if (out != nullptr) *out = std::move(r);
  return true;
}

bool Client::Execute(uint64_t handle, const std::vector<Value>& params,
                     QueryResponse* resp, uint32_t deadline_ms) {
  ExecuteRequest req;
  req.query_id = AllocQueryId();
  req.handle = handle;
  req.deadline_ms = deadline_ms;
  req.params = params;
  if (!SendExecute(req)) return false;
  if (!ReadResponse(resp)) return false;
  if (resp->query_id != req.query_id) return Fail("response id mismatch");
  return true;
}

bool Client::RefreshSnapshot(uint64_t* version) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kRefreshSnapshot));
  if (!SendFrame(b.data())) return false;
  std::string payload;
  if (!ReadExpected(MsgType::kSnapshotOk, &payload)) return false;
  WireReader in(payload);
  in.GetU8();  // type
  snapshot_ = in.GetU64();
  if (!in.ok()) return Fail("malformed SnapshotOk");
  if (version != nullptr) *version = snapshot_;
  return true;
}

bool Client::Ping() {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kPing));
  if (!SendFrame(b.data())) return false;
  std::string payload;
  return ReadExpected(MsgType::kPong, &payload);
}

bool Client::Checkpoint(std::string* detail, CheckpointInfo* info) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kCheckpoint));
  if (!SendFrame(b.data())) return false;
  std::string payload;
  if (!ReadExpected(MsgType::kCheckpointOk, &payload)) return false;
  WireReader in(payload);
  in.GetU8();  // type
  bool ok = in.GetU8() != 0;
  std::string message = in.GetString();
  if (!in.ok()) return Fail("malformed CheckpointOk");
  if (info != nullptr) {
    *info = CheckpointInfo{};
    if (!in.AtEnd()) {
      // Newer servers append GC telemetry; an old server's frame simply
      // ends here and the zero-initialized info is returned.
      info->versions_pruned = in.GetU64();
      info->overlay_bytes = in.GetU64();
      info->watermark = in.GetU64();
      if (!in.ok()) return Fail("malformed CheckpointOk gc fields");
    }
  }
  if (detail != nullptr) *detail = message;
  if (!ok) error_ = message;  // clean refusal; connection stays usable
  return ok;
}

bool Client::Cancel(uint64_t query_id) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kCancel));
  b.PutU64(query_id);
  return SendFrame(b.data());
}

bool Client::KillQuery(uint64_t query_id, uint32_t* killed) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kKillQuery));
  b.PutU64(query_id);
  if (!SendFrame(b.data())) return false;
  std::string payload;
  if (!ReadExpected(MsgType::kKillQueryOk, &payload)) return false;
  WireReader in(payload);
  in.GetU8();  // type
  uint32_t n = in.GetU32();
  if (!in.ok()) return Fail("malformed KillQueryOk");
  if (killed != nullptr) *killed = n;
  return true;
}

}  // namespace ges::service

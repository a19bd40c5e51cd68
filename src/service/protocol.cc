#include "service/protocol.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

namespace ges::service {

const char* WireStatusName(WireStatus s) {
  switch (s) {
    case WireStatus::kOk:
      return "OK";
    case WireStatus::kError:
      return "ERROR";
    case WireStatus::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case WireStatus::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case WireStatus::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case WireStatus::kCancelled:
      return "CANCELLED";
    case WireStatus::kShuttingDown:
      return "SHUTTING_DOWN";
    case WireStatus::kNotFound:
      return "NOT_FOUND";
    case WireStatus::kReadOnly:
      return "READ_ONLY";
    case WireStatus::kLagging:
      return "LAGGING";
    case WireStatus::kOverloaded:
      return "OVERLOADED";
  }
  return "?";
}

void PutParams(WireBuf* out, const LdbcParams& p) {
  out->PutI64(p.person);
  out->PutI64(p.person2);
  out->PutI64(p.post);
  out->PutString(p.first_name);
  out->PutString(p.country_x);
  out->PutString(p.country_y);
  out->PutString(p.tag_name);
  out->PutString(p.tag_class);
  out->PutI64(p.max_date);
  out->PutI64(p.min_date);
  out->PutI64(p.duration_days);
  out->PutI64(p.work_year);
  out->PutI64(p.month);
}

LdbcParams GetParams(WireReader* in) {
  LdbcParams p{};
  p.person = in->GetI64();
  p.person2 = in->GetI64();
  p.post = in->GetI64();
  p.first_name = in->GetString();
  p.country_x = in->GetString();
  p.country_y = in->GetString();
  p.tag_name = in->GetString();
  p.tag_class = in->GetString();
  p.max_date = in->GetI64();
  p.min_date = in->GetI64();
  p.duration_days = in->GetI64();
  p.work_year = in->GetI64();
  p.month = in->GetI64();
  return p;
}

void PutFlatBlock(WireBuf* out, const FlatBlock& block) {
  const Schema& s = block.schema();
  out->PutU32(static_cast<uint32_t>(s.size()));
  for (const ColumnDef& c : s.columns()) {
    out->PutString(c.name);
    out->PutU8(static_cast<uint8_t>(c.type));
  }
  out->PutU64(block.NumRows());
  for (const auto& row : block.rows()) {
    for (const Value& v : row) PutValue(out, v);
  }
}

FlatBlock GetFlatBlock(WireReader* in) {
  uint32_t ncols = in->GetU32();
  Schema schema;
  for (uint32_t i = 0; in->ok() && i < ncols; ++i) {
    std::string name = in->GetString();
    ValueType type = static_cast<ValueType>(in->GetU8());
    schema.Add(std::move(name), type);
  }
  FlatBlock block(std::move(schema));
  uint64_t nrows = in->GetU64();
  for (uint64_t r = 0; in->ok() && r < nrows; ++r) {
    std::vector<Value> row;
    row.reserve(ncols);
    for (uint32_t c = 0; in->ok() && c < ncols; ++c) {
      row.push_back(GetValue(in));
    }
    if (in->ok()) block.AppendRow(std::move(row));
  }
  return block;
}

std::string EncodeQueryRequest(const QueryRequest& req) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kQuery));
  b.PutU64(req.query_id);
  b.PutU8(static_cast<uint8_t>(req.kind));
  b.PutU8(req.number);
  b.PutU32(req.deadline_ms);
  b.PutU64(req.seed);
  PutParams(&b, req.params);
  b.PutU64(req.min_version);
  return b.Take();
}

bool DecodeQueryRequest(WireReader* in, QueryRequest* req) {
  req->query_id = in->GetU64();
  req->kind = static_cast<QueryKind>(in->GetU8());
  req->number = in->GetU8();
  req->deadline_ms = in->GetU32();
  req->seed = in->GetU64();
  req->params = GetParams(in);
  // Trailing read-your-writes floor; a frame from an older client simply
  // ends here and the floor stays 0.
  req->min_version = in->AtEnd() ? 0 : in->GetU64();
  return in->ok();
}

std::string EncodeQueryResponse(const QueryResponse& resp) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kResult));
  b.PutU64(resp.query_id);
  b.PutU8(static_cast<uint8_t>(resp.status));
  b.PutString(resp.message);
  b.PutDouble(resp.server_millis);
  if (resp.status == WireStatus::kOk) {
    PutFlatBlock(&b, resp.table);
  }
  b.PutU64(resp.snapshot_version);
  b.PutDouble(resp.parse_millis);
  b.PutDouble(resp.plan_millis);
  b.PutDouble(resp.bind_millis);
  b.PutDouble(resp.exec_millis);
  b.PutU8(resp.plan_cache_hit);
  b.PutU64(resp.peak_memory_bytes);
  b.PutU32(resp.retry_after_ms);
  return b.Take();
}

bool DecodeQueryResponse(WireReader* in, QueryResponse* resp) {
  resp->query_id = in->GetU64();
  resp->status = static_cast<WireStatus>(in->GetU8());
  resp->message = in->GetString();
  resp->server_millis = in->GetDouble();
  if (resp->status == WireStatus::kOk) {
    resp->table = GetFlatBlock(in);
  } else {
    resp->table = FlatBlock();
  }
  // Trailing executed-at version (old servers' frames end before it).
  resp->snapshot_version = in->AtEnd() ? 0 : in->GetU64();
  // Trailing per-phase breakdown + cache flag (same compatibility rule).
  resp->parse_millis = in->AtEnd() ? 0 : in->GetDouble();
  resp->plan_millis = in->AtEnd() ? 0 : in->GetDouble();
  resp->bind_millis = in->AtEnd() ? 0 : in->GetDouble();
  resp->exec_millis = in->AtEnd() ? 0 : in->GetDouble();
  resp->plan_cache_hit = in->AtEnd() ? 0 : in->GetU8();
  // Trailing governor fields (DESIGN.md §15): peak budget charge and the
  // retry-after hint attached to kOverloaded / kResourceExhausted refusals.
  resp->peak_memory_bytes = in->AtEnd() ? 0 : in->GetU64();
  resp->retry_after_ms = in->AtEnd() ? 0 : in->GetU32();
  return in->ok();
}

std::string EncodePrepareRequest(const std::string& query_text) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kPrepare));
  b.PutString(query_text);
  return b.Take();
}

std::string EncodePrepareOk(const PrepareResult& r) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kPrepareOk));
  b.PutU8(1);
  b.PutU64(r.handle);
  b.PutU32(r.param_count);
  b.PutU8(r.cache_hit ? 1 : 0);
  b.PutString(r.normalized);
  return b.Take();
}

std::string EncodeError(WireStatus status, std::string_view message) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kError));
  b.PutU8(static_cast<uint8_t>(status));
  b.PutString(message);
  return b.Take();
}

std::string EncodePrepareError(WireStatus status, const std::string& message) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kPrepareOk));
  b.PutU8(0);
  b.PutU8(static_cast<uint8_t>(status));
  b.PutString(message);
  return b.Take();
}

bool DecodePrepareOk(WireReader* in, PrepareResult* r, WireStatus* status,
                     std::string* message) {
  uint8_t ok = in->GetU8();
  if (ok != 0) {
    r->handle = in->GetU64();
    r->param_count = in->GetU32();
    r->cache_hit = in->GetU8() != 0;
    r->normalized = in->GetString();
    *status = WireStatus::kOk;
    message->clear();
  } else {
    *status = static_cast<WireStatus>(in->GetU8());
    *message = in->GetString();
  }
  return in->ok();
}

std::string EncodeExecuteRequest(const ExecuteRequest& req) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kExecute));
  b.PutU64(req.query_id);
  b.PutU64(req.handle);
  b.PutU32(req.deadline_ms);
  b.PutU64(req.min_version);
  b.PutU32(static_cast<uint32_t>(req.params.size()));
  for (const Value& v : req.params) PutValue(&b, v);
  return b.Take();
}

bool DecodeExecuteRequest(WireReader* in, ExecuteRequest* req) {
  req->query_id = in->GetU64();
  req->handle = in->GetU64();
  req->deadline_ms = in->GetU32();
  req->min_version = in->GetU64();
  uint32_t n = in->GetU32();
  req->params.clear();
  for (uint32_t i = 0; in->ok() && i < n; ++i) {
    req->params.push_back(GetValue(in));
  }
  return in->ok() && in->AtEnd();
}

namespace {

bool WriteAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

// Returns 1 on success, 0 on orderly EOF before any byte, -1 on error.
int ReadAll(int fd, char* data, size_t len) {
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) return got == 0 ? 0 : -1;  // mid-frame EOF is an error
    got += static_cast<size_t>(n);
  }
  return 1;
}

}  // namespace

bool WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  WireBuf hdr;
  hdr.PutU32(static_cast<uint32_t>(payload.size()));
  // Header and payload as one logical write; two syscalls is fine here
  // (the protocol is not latency-bound by syscall count at this scale).
  return WriteAll(fd, hdr.data().data(), 4) &&
         WriteAll(fd, payload.data(), payload.size());
}

ReadResult ReadFrame(int fd, std::string* payload) {
  char hdr[4];
  int r = ReadAll(fd, hdr, 4);
  if (r == 0) return ReadResult::kClosed;
  if (r < 0) return ReadResult::kError;
  uint32_t len = WireReader(hdr, 4).GetU32();
  if (len > kMaxFrameBytes) return ReadResult::kTooLarge;
  payload->resize(len);
  if (len > 0 && ReadAll(fd, payload->data(), len) != 1) {
    return ReadResult::kError;
  }
  return ReadResult::kOk;
}

}  // namespace ges::service

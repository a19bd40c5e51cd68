// Wire protocol of the GES query service (the "Service" half of the
// paper's title): a length-prefixed binary protocol over TCP.
//
// Frame layout (all integers little-endian):
//   [uint32 length][payload]         length = bytes of payload, bounded by
//                                    kMaxFrameBytes (oversized frames kill
//                                    the connection — no unbounded buffers)
//   payload = [uint8 MsgType][body]
//
// The client sends requests; every request except kCancel gets exactly one
// response frame. Query responses carry the query id assigned by the
// client, so a pipelined client matches responses without per-request
// state machines. Admission rejection and interruption are delivered as a
// kResult frame whose embedded status is non-OK (kError frames are
// reserved for connection-level failures such as malformed frames).
#ifndef GES_SERVICE_PROTOCOL_H_
#define GES_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/value.h"
#include "common/wire.h"
#include "executor/flatblock.h"
#include "queries/ldbc.h"

namespace ges::service {

inline constexpr uint32_t kMaxFrameBytes = 64u << 20;  // 64 MiB

enum class MsgType : uint8_t {
  // client -> server
  kHello = 1,
  kQuery = 2,
  kCancel = 3,           // body: u64 query_id; no response frame
  kRefreshSnapshot = 6,  // re-pin the session to the current version
  kPing = 7,
  kBye = 8,
  kCheckpoint = 9,       // admin: snapshot + WAL truncate (durable graphs)
  // Replication handshake (replica -> primary). Body: u32 protocol
  // version, u64 from_version (0 = fresh bootstrap), string replica name.
  // The connection then becomes a one-way WAL stream: the primary sends
  // kSubscribeOk / kSnapshot* / kWalFrame / kWalHeartbeat frames and the
  // replica sends only kReplicaAck frames back (DESIGN.md §13).
  kSubscribe = 10,
  kReplicaAck = 11,  // body: u64 applied commit version
  // Prepared statements (DESIGN.md §14). kPrepare body: string query text
  // (declarative frontend syntax, either literal or with $k placeholders).
  // kExecute body: u64 query_id, u64 handle, u32 deadline_ms,
  // u64 min_version, u32 nparams, then nparams tagged values (PutValue).
  // Passing nparams == 0 executes with the literals captured at Prepare
  // time (auto-parameterized statements). Response: kResult.
  kPrepare = 12,
  kExecute = 13,
  // Admin: force-cancel a runaway query (resource governor, DESIGN.md §15).
  // Body: u64 query_id. Unlike kCancel it is not scoped to the sender's
  // session — every session's in-flight queries with that client-assigned
  // id are shot — and it DOES get a response (kKillQueryOk) so an operator
  // knows whether the id was found.
  kKillQuery = 14,
  // server -> client
  kHelloOk = 16,  // body: u64 session_id, u64 snapshot version
  kResult = 17,
  kError = 18,    // body: u8 WireStatus, string detail; connection closes
  kSnapshotOk = 21,  // body: u64 snapshot version
  kPong = 22,
  kByeOk = 23,
  // Body: u8 ok, string detail (why not, if !ok), then trailing GC
  // telemetry appended by newer servers (old clients simply stop reading):
  // u64 versions_pruned (lifetime), u64 overlay_bytes, u64 watermark.
  kCheckpointOk = 24,
  // Replication stream (primary -> replica).
  kSubscribeOk = 25,     // body: u64 live-from version, u8 sends_snapshot
  kSnapshotBegin = 26,   // body: u64 snapshot version, u64 total bytes
  kSnapshotChunk = 27,   // body: string chunk (<= kSnapshotChunkBytes)
  kSnapshotEnd = 28,     // empty body
  // One committed transaction: u64 commit version, u32 record count, then
  // that many length-prefixed EncodeWalRecord payloads (body records only;
  // BeginTx/CommitTx are implied by the frame itself).
  kWalFrame = 29,
  kWalHeartbeat = 30,    // body: u64 primary's current version
  // Reply to kPrepare. Body: u8 ok; on success u64 handle,
  // u32 param_count, u8 cache_hit, string normalized text; on failure
  // u8 WireStatus, string message (connection stays usable).
  kPrepareOk = 31,
  // Reply to kKillQuery. Body: u32 number of in-flight queries cancelled
  // (0 = id not found — already finished, or never existed).
  kKillQueryOk = 32,
};

inline constexpr uint32_t kReplicationProtocolVersion = 1;
inline constexpr size_t kSnapshotChunkBytes = 4u << 20;  // 4 MiB

// Status embedded in kResult / kError frames.
enum class WireStatus : uint8_t {
  kOk = 0,
  kError = 1,
  kInvalidArgument = 2,
  kResourceExhausted = 3,  // admission queue full / connection limit
  kDeadlineExceeded = 4,
  kCancelled = 5,
  kShuttingDown = 6,
  kNotFound = 7,
  kReadOnly = 8,  // durable graph degraded read-only after an I/O failure
  // Replica could not satisfy the request's read-your-writes floor
  // (min_version) within the configured wait; route the read elsewhere.
  kLagging = 9,
  // Watermark shedding (resource governor): the process is over its memory
  // watermark and this query class is being refused at admission. The
  // response's retry_after_ms hints when to come back; idempotent reads
  // are safe to retry.
  kOverloaded = 10,
};

const char* WireStatusName(WireStatus s);

// Query classes carried on the wire. IC/IS/IU map to the LDBC builders;
// kStress and kSleep are service diagnostics (deliberately heavy expansion
// for cancellation tests, deterministic delay for backpressure tests).
enum class QueryKind : uint8_t {
  kIC = 0,      // number in [1, 14]
  kIS = 1,      // number in [1, 7]
  kIU = 2,      // number in [1, 8]; `seed` feeds RunIU
  kStress = 3,  // number = max hops of a full knows-expansion (see server)
  kSleep = 4,   // `seed` = ms of cooperative busy-wait; `number` > 0
                // stretches the checkpoint interval to that many ms
                // (watchdog diagnostic: simulates a stuck operator)
  kBI = 5,      // number in [1, 3]: cyclic censuses (WCOJ tier)
  // Internal only: a kExecute frame re-packaged as a QueryRequest so
  // prepared executions flow through the same admission / deadline / job
  // machinery as ad-hoc queries. Never encoded by EncodeQueryRequest.
  kPrepared = 6,
  // Governor diagnostic: cooperatively allocates `seed` MiB of real,
  // budget-charged intermediate state in 1 MiB steps, polling the context
  // between steps, then holds the allocation for `number` milliseconds
  // (cancellation-responsive) before releasing — a deterministic memory
  // hog for governor tests and bench_governor, the way kSleep is a
  // deterministic delay.
  kHog = 7,
};

struct QueryRequest {
  uint64_t query_id = 0;  // client-assigned; echoed in the response
  QueryKind kind = QueryKind::kIS;
  uint8_t number = 1;
  uint32_t deadline_ms = 0;  // 0 = no deadline
  uint64_t seed = 0;         // IU randomness / kSleep millis
  LdbcParams params{};       // IC/IS parameters
  // Read-your-writes floor: the server answers only once its applied
  // version reaches this (waiting up to its configured bound), else it
  // responds kLagging so the router can bounce the read to the primary.
  // 0 = no floor (trailing field; absent from old clients' frames).
  uint64_t min_version = 0;
  // kPrepared only (decoded from kExecute frames, never from kQuery).
  uint64_t handle = 0;
  std::vector<Value> bind_params;
};

struct QueryResponse {
  uint64_t query_id = 0;
  WireStatus status = WireStatus::kOk;
  std::string message;     // non-OK detail
  double server_millis = 0;  // execution time observed by the server
  FlatBlock table;         // empty unless status == kOk
  // Version the query executed at (commit version for updates). Trailing
  // field: zero when talking to a server that predates it.
  uint64_t snapshot_version = 0;
  // Per-phase server-side breakdown (trailing fields, zero from older
  // servers): time spent parsing/normalizing, planning + optimizing,
  // binding parameters, and executing. For ad-hoc LDBC kinds only
  // exec_millis is populated.
  double parse_millis = 0;
  double plan_millis = 0;
  double bind_millis = 0;
  double exec_millis = 0;
  // 1 when the plan came from the shared plan cache.
  uint8_t plan_cache_hit = 0;
  // Peak bytes the query charged against its MemoryBudget (resource
  // governor, DESIGN.md §15). Trailing field, zero from older servers.
  uint64_t peak_memory_bytes = 0;
  // For kOverloaded / kResourceExhausted refusals: the server's hint for
  // how long to back off before retrying (0 = no hint). Trailing field.
  uint32_t retry_after_ms = 0;
};

// Result of a kPrepare round-trip.
struct PrepareResult {
  uint64_t handle = 0;
  uint32_t param_count = 0;
  bool cache_hit = false;     // plan template was already cached
  std::string normalized;     // canonical text with $k slots
};

// Client-side view of a kExecute frame.
struct ExecuteRequest {
  uint64_t query_id = 0;
  uint64_t handle = 0;
  uint32_t deadline_ms = 0;
  uint64_t min_version = 0;
  std::vector<Value> params;  // empty = use Prepare-time literals
};

// --- body builders / parsers -------------------------------------------

void PutParams(WireBuf* out, const LdbcParams& p);
LdbcParams GetParams(WireReader* in);

// Schema (u32 column count, then name + u8 type per column), u64 row
// count, then every cell as a tagged Value.
void PutFlatBlock(WireBuf* out, const FlatBlock& block);
FlatBlock GetFlatBlock(WireReader* in);

// Encodes the full payload (MsgType byte included) of a request/response.
std::string EncodeQueryRequest(const QueryRequest& req);
bool DecodeQueryRequest(WireReader* in, QueryRequest* req);  // after type byte
std::string EncodeQueryResponse(const QueryResponse& resp);
bool DecodeQueryResponse(WireReader* in, QueryResponse* resp);
// A connection-level kError refusal.
std::string EncodeError(WireStatus status, std::string_view message);

// Prepared statements. Encode* include the MsgType byte; Decode* start
// after it.
std::string EncodePrepareRequest(const std::string& query_text);
std::string EncodePrepareOk(const PrepareResult& r);
std::string EncodePrepareError(WireStatus status, const std::string& message);
// Decodes a kPrepareOk body. Returns true on a well-formed frame; `*r` is
// filled on success frames, `*status`/`*message` on refusals.
bool DecodePrepareOk(WireReader* in, PrepareResult* r, WireStatus* status,
                     std::string* message);
std::string EncodeExecuteRequest(const ExecuteRequest& req);
// Decodes a kExecute body as the internal kPrepared QueryRequest, so the
// server admits prepared and ad-hoc queries alike.
bool DecodeExecuteRequest(WireReader* in, QueryRequest* req);

// --- frame I/O over a connected socket ---------------------------------

// Writes one [length][payload] frame, looping over partial writes.
// Returns false on any socket error (connection is then unusable).
bool WriteFrame(int fd, const std::string& payload);

enum class ReadResult { kOk, kClosed, kError, kTooLarge };

// Reads one frame into `payload`. kClosed = orderly EOF at a frame
// boundary; kError = socket error or truncated frame; kTooLarge = a length
// prefix above kMaxFrameBytes (the bytes were NOT consumed — the server
// can still send a clean refusal before closing).
ReadResult ReadFrame(int fd, std::string* payload);

}  // namespace ges::service

#endif  // GES_SERVICE_PROTOCOL_H_

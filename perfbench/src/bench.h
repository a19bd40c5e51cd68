// Shared types of the GES end-to-end benchmark (see ../README.md).
#ifndef GES_PERFBENCH_BENCH_H_
#define GES_PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datagen/snb_generator.h"
#include "queries/ldbc.h"
#include "service/protocol.h"
#include "service/server.h"
#include "trace.h"

namespace ges::perfbench {

// Latency classes of the end-to-end metrics: LDBC short reads, LDBC
// complex reads, LDBC updates, and prepared point reads (kExecute).
enum class OpClass : uint8_t { kShort, kComplex, kUpdate, kPrepared };
inline constexpr int kNumClasses = 4;

// One request of the generated operation stream.
struct Op {
  OpClass cls = OpClass::kShort;
  service::QueryKind kind = service::QueryKind::kIS;
  uint8_t number = 1;  // IC/IS/IU number, or the point-read template index
  uint64_t seed = 0;   // IU randomness
  LdbcParams params{};  // params.person is also the point-read's $0
};

// Client connections (and client threads) of every phase, at most nproc
// on a 4-vCPU machine.
inline constexpr int kConnections = 4;

// Prepared point-read templates (bench_plan_cache's profile, friends,
// recent posts and 2-hop tail; the tail is ordered so the audit can
// compare rows). $0 is a person's id.
inline constexpr int kNumTemplates = 4;
extern const char* const kTemplates[kNumTemplates];
extern const char* const kTemplateNames[kNumTemplates];

struct WorkloadSpec {
  std::string name;
  bool durable = false;
  // The server's own reaper cadences (ServiceConfig).
  double gc_interval_s = 1.0;
  double compact_interval_s = 0;  // 0 = no background compaction
  double compact_trigger = 0.30;
  // Complex reads are not in the mix: read_complex is measured by a batch
  // of IC reads over the wire after each episode's mix, on the churned
  // graph.
  bool complex_after_mix = false;
};

// A generated graph with a running service::Server over it.
struct Fixture {
  std::unique_ptr<Graph> graph;
  SnbData data;
  LdbcContext ctx;
  std::unique_ptr<service::Server> server;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() { Stop(); }
  // Drains and destroys the server; the graph stays.
  void Stop();
};

// What one wire request did.
struct Record {
  OpClass cls = OpClass::kShort;
  uint16_t subphase = 0;
  bool answered = false;  // false = lost (no response frame)
  service::WireStatus status = service::WireStatus::kOk;
  bool traced = false;  // sent inside a traced window
  double latency_ms = 0;
  double server_ms = 0;
  double parse_ms = 0;
  double plan_ms = 0;
  double bind_ms = 0;
  double exec_ms = 0;
  bool plan_cache_hit = false;

  bool ok() const { return answered && status == service::WireStatus::kOk; }
};

// The timed phase's raw outcome.
struct PhaseResult {
  double seconds = 0;
  int subphases = 0;
  std::vector<Record> records;
  std::vector<std::unique_ptr<SpanBuffer>> spans;  // one per load thread
  uint64_t acked_updates = 0;
};

// Traced windows: a traced run alternates traced and untraced 100 ms
// windows, so the tracing overhead is measured on the same load.
struct TraceWindows {
  bool enabled = false;
  int64_t start_ns = 0;
  bool On(int64_t now_ns) const {
    return enabled && ((now_ns - start_ns) / 100'000'000) % 2 == 1;
  }
};

// --- load.cc ---------------------------------------------------------------

// Per-connection operation streams (each a ring the connection cycles)
// of the workload's mix.
std::vector<std::vector<Op>> MakeStreams(const WorkloadSpec& spec,
                                         const Fixture& fx, uint64_t seed);
// Per-connection streams of prepared point reads.
std::vector<std::vector<Op>> MakePointStreams(const Fixture& fx,
                                              uint64_t seed);
// Per-connection streams of complex reads only (DefaultMix IC shares).
std::vector<std::vector<Op>> MakeComplexStreams(const Fixture& fx,
                                                uint64_t seed, int conns);
// Runs the first `ops_per_conn` reads of each stream closed-loop (updates
// are skipped, so the graph stays as generated); returns false with
// `*error` on a failed request.
bool WarmUp(uint16_t port,
            const std::vector<std::vector<Op>>& streams, size_t ops_per_conn,
            std::string* error);
// Runs the streams closed loop from `first_op` for `seconds`, as
// sub-phases of about `subphase_s` on fresh connections.
PhaseResult RunPhase(uint16_t port, const std::vector<std::vector<Op>>& streams,
                     size_t first_op, double seconds, double subphase_s,
                     const TraceWindows& trace);
// Runs ops [first_op, first_op + ops_per_conn) of each stream closed
// loop, as one sub-phase.
PhaseResult RunBatch(uint16_t port, const std::vector<std::vector<Op>>& streams,
                     size_t first_op, size_t ops_per_conn);
// Pings over a dedicated connection every `interval_ms` until `stop`;
// records one client.ping span per round trip, and re-pins the session
// after each so it never holds back GC.
void PingLoop(uint16_t port, double interval_ms, const std::atomic<bool>* stop,
              SpanBuffer* spans);

// --- audit.cc --------------------------------------------------------------

struct AuditItem {
  Op op;
  std::vector<std::string> rows;  // in result order
};

// Re-runs a seeded sample of the streams' reads (LDBC or prepared) over a
// fresh connection and in process on the reference kFlat engine at the
// same version; fails on any difference. `*version` receives the version
// audited.
bool AuditReads(uint16_t port, const Fixture& fx,
                const std::vector<std::vector<Op>>& streams, uint64_t seed,
                std::vector<AuditItem>* items, Version* version,
                std::string* error);
// Runs the audited sample in process (kFlat) on `graph` at its current
// version and compares with the recorded rows.
bool ReplayAudit(const Graph& graph, const SnbData& data,
                 const std::vector<AuditItem>& items, std::string* error);
// The plan of a read op (IC, IS or a bound point-read template).
Plan ReadPlan(const Op& op, const Graph& graph, const LdbcContext& ctx);
std::vector<std::string> RenderRows(const FlatBlock& block);

// --- layers.cc -------------------------------------------------------------

// Operator categories of the executor metrics (bench_fig3's Select is
// Filter here, its Project is GetProperty+Project).
inline constexpr int kNumOpCategories = 7;
extern const char* const kOpCategories[kNumOpCategories];

struct ExecutorProfile {
  uint64_t replayed = 0;
  double op_ms[kNumOpCategories] = {};
  size_t peak_intermediate_bytes = 0;
  double rows_produced = 0;
  double rows_returned = 0;
};

// In-process probes of the traced run. Each records its spans into
// `spans` and adds its numbers to `metrics` as (name, value, unit).
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// Normalize, compile and bind of the point-read templates with seeded
// person ids in [0, persons).
void ProbeFrontend(const Graph& graph, size_t persons, uint64_t seed,
                   SpanBuffer* spans);
// Replays `sample` with per-operator stats on the service's engine
// (GES_f*): all reads into `fused`, complex reads also into
// `fused_complex` and, on kFlat, into `flat_complex` (the Fig 3 view).
void ProbeExecutor(const Graph& graph, const LdbcContext& ctx,
                   const std::vector<Op>& sample, SpanBuffer* spans,
                   ExecutorProfile* fused, ExecutorProfile* fused_complex,
                   ExecutorProfile* flat_complex);
// Neighbors before and after a forced compaction of the sampled
// relations (the compaction pass is a span), and property gathers.
void ProbeStorage(Graph* graph, const LdbcContext& ctx, const SnbData& data,
                  uint64_t seed, SpanBuffer* spans, Metrics* metrics);
// In-process updates (RunIU), each batch followed by a timed GC pass.
void ProbeUpdates(Graph* graph, const LdbcContext& ctx, const SnbData& data,
                  uint64_t seed, SpanBuffer* spans);

}  // namespace ges::perfbench

#endif  // GES_PERFBENCH_BENCH_H_

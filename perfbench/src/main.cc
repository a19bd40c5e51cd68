// GES end-to-end benchmark: one workload against an in-process
// service::Server over loopback TCP (see ../README.md).
//
//   ges_perfbench --workload snb_mix|write_churn --seed N
//                 --seconds S --trace 0|1 --data-dir DIR
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// episodes with alternating traced windows plus in-process layer probes
// and prints the per-layer metrics. The last line of standard output is the JSON
// result; a failed audit reports "correct": false.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "common/timer.h"
#include "storage/wal.h"

namespace ges::perfbench {

void Fixture::Stop() {
  if (server != nullptr) {
    server->Drain(1.0);
    server.reset();
  }
}

namespace {

constexpr double kScaleFactor = 0.1;
constexpr uint64_t kGraphSeed = 42;
constexpr int kSetupRepeats = 5;
constexpr size_t kWarmUpOps = 64;  // per connection
constexpr int kExecutorSample = 96;
// Latency percentiles are taken over groups of at least this many samples.
constexpr size_t kGroupSamples = 1000;
// The timed phase runs as episodes of about kEpisodeSeconds, each from
// the graph as set up, so every run churns the same amount: the graph
// grows with every IU and the program slows as it grows, so a closed loop
// over the whole phase would feed its own speed back into its load. An
// episode opens with read-only prepared point reads for kPointShare of
// it, in sub-phases of kPointSubPhaseSeconds; the workload's mix takes the
// rest in sub-phases of kMixSubPhaseSeconds. Each sub-phase runs on fresh
// connections (fresh client and server session threads), so one run
// averages over several thread placements instead of drawing one.
constexpr double kEpisodeSeconds = 10.0;
constexpr double kPointShare = 0.2;
constexpr double kPointSubPhaseSeconds = 0.5;
constexpr double kMixSubPhaseSeconds = 2.0;
// Complex reads per connection of the IC batches, over all episodes.
constexpr size_t kComplexBatchOps = 500;
constexpr int kComplexBatchConnections = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".perfbench-data";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v);
    else if (k == "--trace") a->trace = std::atoi(v) != 0;
    else if (k == "--data-dir") a->data_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

bool SpecFor(const Args& a, WorkloadSpec* spec) {
  spec->name = a.workload;
  if (a.workload == "snb_mix") return true;
  if (a.workload == "write_churn") {
    spec->durable = true;
    spec->gc_interval_s = 0.25;
    spec->compact_interval_s = 1.0;
    spec->compact_trigger = 0.05;
    spec->complex_after_mix = true;
    return true;
  }
  return false;
}

// Every commit is written to the WAL; fsync is left to the OS, so the
// measured WAL cost excludes fsync. With the interval policy the flusher
// fsyncs while holding the WAL append lock, so every commit would wait out
// a shared host's disk latency once per interval.
DurabilityOptions Durability() {
  DurabilityOptions opts;
  opts.wal.fsync_policy = FsyncPolicy::kNever;
  return opts;
}

// Generates the graph, makes it durable if asked, starts the server and
// warms it up with the head of the operation streams.
std::unique_ptr<Fixture> SetUp(const WorkloadSpec& spec, const Args& args,
                               std::vector<std::vector<Op>>* streams,
                               std::vector<std::vector<Op>>* point_streams,
                               std::string* error) {
  auto fx = std::make_unique<Fixture>();
  fx->graph = std::make_unique<Graph>();
  SnbConfig config;
  config.scale_factor = kScaleFactor;
  config.seed = kGraphSeed;
  fx->data = GenerateSnb(config, fx->graph.get());
  fx->ctx = LdbcContext::Resolve(*fx->graph, fx->data.schema);
  if (spec.durable) {
    std::filesystem::remove_all(args.data_dir);
    Status s = fx->graph->EnableDurability(args.data_dir, Durability());
    if (!s.ok()) {
      *error = "enable durability: " + s.message();
      return nullptr;
    }
  }
  service::ServiceConfig sc;
  sc.query_workers = 2;
  sc.intra_query_threads = 1;
  sc.exec_mode = ExecMode::kFactorizedFused;
  sc.policy = service::AdmissionPolicy::kPrioritized;
  sc.gc_interval_seconds = spec.gc_interval_s;
  sc.compact_interval_seconds = spec.compact_interval_s;
  sc.compact_trigger_frag_pct = spec.compact_trigger;
  fx->server =
      std::make_unique<service::Server>(fx->graph.get(), &fx->data, sc);
  if (!fx->server->Start(error)) return nullptr;
  *streams = MakeStreams(spec, *fx, args.seed);
  *point_streams = MakePointStreams(*fx, args.seed);
  if (!WarmUp(fx->server->port(), *point_streams, kWarmUpOps, error) ||
      !WarmUp(fx->server->port(), *streams, kWarmUpOps, error)) {
    return nullptr;
  }
  return fx;
}

// Nearest-rank percentile of `v` (sorted in place); `*beyond` receives
// how many samples lie above it.
double Percentile(std::vector<double>* v, double p, size_t* beyond = nullptr) {
  if (v->empty()) {
    if (beyond != nullptr) *beyond = 0;
    return 0;
  }
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v->size()));
  rank = std::clamp<size_t>(rank, 1, v->size());
  if (beyond != nullptr) *beyond = v->size() - rank;
  return (*v)[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / v.size();
}

// A percentile taken per group of consecutive time slices (each group
// holds at least kGroupSamples samples, so a p99 has at least ten beyond
// it), then the median over the groups: a stretch in which a shared host
// stalls the machine moves fewer than half of the groups and so not the
// figure, while a slowdown of the program, early or late in the phase,
// moves the groups it hits.
struct GroupedPercentile {
  double value = 0;
  size_t groups = 0;
  size_t samples = 0;
  size_t min_beyond = 0;

  std::string Describe() const {
    char note[128];
    std::snprintf(note, sizeof(note),
                  "(median of %zu groups; n=%zu, >=%zu beyond in each%s)",
                  groups, samples, min_beyond,
                  min_beyond < 10 ? "; FEWER THAN 10 BEYOND" : "");
    return note;
  }
};

GroupedPercentile GroupPercentile(
    const std::vector<std::vector<double>>& slices, double p) {
  std::vector<std::vector<double>> groups(1);
  for (const std::vector<double>& slice : slices) {
    if (groups.back().size() >= kGroupSamples) groups.emplace_back();
    groups.back().insert(groups.back().end(), slice.begin(), slice.end());
  }
  if (groups.size() > 1 && groups.back().size() < kGroupSamples) {
    std::vector<double> tail = std::move(groups.back());
    groups.pop_back();
    groups.back().insert(groups.back().end(), tail.begin(), tail.end());
  }
  GroupedPercentile out;
  out.min_beyond = SIZE_MAX;
  std::vector<double> values;
  for (std::vector<double>& g : groups) {
    size_t beyond = 0;
    values.push_back(Percentile(&g, p, &beyond));
    out.samples += g.size();
    out.min_beyond = std::min(out.min_beyond, beyond);
  }
  out.groups = groups.size();
  out.value = Median(values);
  return out;
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    Print(name, value, unit, note);
  }
  // A figure for the reader only (not part of the JSON result).
  void Print(const std::string& name, double value, const std::string& unit,
             const std::string& note) {
    std::printf("%-40s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  // p50 and p99 of `samples`, with their sample counts.
  void AddPercentiles(const std::string& prefix, std::vector<double> samples,
                      const std::string& unit) {
    for (double p : {50.0, 99.0}) {
      size_t beyond = 0;
      const double v = Percentile(&samples, p, &beyond);
      char note[96];
      std::snprintf(note, sizeof(note), "(n=%zu, %zu beyond%s)",
                    samples.size(), beyond,
                    beyond < 10 ? "; fewer than 10 beyond" : "");
      Add(prefix + (p == 50 ? "_p50" : "_p99") + "_" + unit, v, unit, note);
    }
  }
  const Metrics& metrics() const { return metrics_; }

 private:
  Metrics metrics_;
};

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Seeded sample of the streams' reads for the in-process executor replay.
std::vector<Op> ReadSample(const std::vector<std::vector<Op>>& streams,
                           uint64_t seed) {
  std::vector<Op> sample;
  Rng rng(seed ^ 0xe8ec5eedull);
  while (static_cast<int>(sample.size()) < kExecutorSample) {
    const std::vector<Op>& s = streams[rng.Uniform(streams.size())];
    const Op& op = s[rng.Uniform(s.size())];
    if (op.cls != OpClass::kUpdate) sample.push_back(op);
  }
  return sample;
}

const char* const kClassNames[kNumClasses] = {"read_short", "read_complex",
                                              "update", "read_prepared"};

// Appends one latency slice per sub-phase of `ph` to every class. A failed
// or refused request misses every latency limit: it counts as taking the
// whole phase.
void AddSlices(const PhaseResult& ph,
               std::vector<std::vector<std::vector<double>>>* latency) {
  const size_t first = (*latency)[0].size();
  for (auto& c : *latency) c.resize(first + ph.subphases);
  for (const Record& r : ph.records) {
    (*latency)[static_cast<int>(r.cls)][first + r.subphase].push_back(
        r.ok() ? r.latency_ms : ph.seconds * 1e3);
  }
}

// Checks that the server answers the streams' reads as the reference
// engine does and that the version moved by exactly `acked_updates`.
bool Audit(uint16_t port, const Fixture& fx,
           const std::vector<std::vector<Op>>& streams, uint64_t seed,
           Version from, uint64_t acked_updates,
           std::vector<AuditItem>* items, Version* audited) {
  std::string error;
  Timer t;
  if (!AuditReads(port, fx, streams, seed, items, audited, &error)) {
    std::fprintf(stderr, "perfbench: AUDIT FAILED: %s\n", error.c_str());
    return false;
  }
  if (*audited - from != acked_updates) {
    std::fprintf(stderr,
                 "perfbench: AUDIT FAILED: version moved %llu for %llu "
                 "acknowledged updates\n",
                 static_cast<unsigned long long>(*audited - from),
                 static_cast<unsigned long long>(acked_updates));
    return false;
  }
  std::printf("# audit: %zu reads at v%llu match kFlat (%.2f s); %llu "
              "acknowledged updates\n",
              items->size(), static_cast<unsigned long long>(*audited),
              t.ElapsedSeconds(),
              static_cast<unsigned long long>(acked_updates));
  return true;
}

// Pings the server over its own connection while in scope (traced runs).
class Pinger {
 public:
  Pinger(bool on, uint16_t port, SpanBuffer* spans) {
    if (on) thread_ = std::thread(PingLoop, port, 20.0, &stop_, spans);
  }
  ~Pinger() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// What the mix's episodes leave: server and graph counters summed over
// the episodes, gauges of the last one.
struct MixState {
  bool audit_ok = true;  // of the last episode
  double wal_bytes = 0;
  double peak_queued = 0;
  double rejected = 0;
  double executed_long = 0;
  double gc_runs = 0;
  double pruned = 0;
  double compact_runs = 0;
  double reclaimed = 0;
  double gov_peak = 0;
  double gov_killed = 0;
  double overlay_bytes = 0;
  double retired_bytes = 0;
  double bytes_per_edge = 0;
};

struct Episode {
  PhaseResult point;
  PhaseResult mix;
  PhaseResult complex;
};

// What one episode runs.
struct EpisodePlan {
  const std::vector<std::vector<Op>>* point_streams;
  const std::vector<std::vector<Op>>* streams;
  const std::vector<std::vector<Op>>* complex_streams;  // or empty
  double point_s;
  double mix_s;
  size_t complex_first_op;
  size_t complex_ops;  // per connection
};

// One episode on a freshly set-up `fx`: the read-only point reads,
// audited before any update (the mix's updates would change what they
// read); the mix, audited with updates stopped; then the IC batch, if any.
Episode RunEpisode(Fixture* fx, const EpisodePlan& plan, uint64_t seed,
                   const TraceWindows& trace, MixState* mix,
                   std::vector<AuditItem>* audit, Version* audited) {
  const std::vector<std::vector<Op>>& point_streams = *plan.point_streams;
  const std::vector<std::vector<Op>>& streams = *plan.streams;
  Graph* graph = fx->graph.get();
  service::Server* server = fx->server.get();
  const service::AdmissionStats& adm = server->admission().stats();
  const service::ServiceStats& st = server->stats();
  const Version version0 = graph->CurrentVersion();
  const uint64_t wal0 = graph->WalBytes();
  const uint64_t rejected0 = adm.rejected.load();
  const uint64_t long0 = adm.executed_long.load();
  const uint64_t gc_runs0 = st.gc_runs.load();
  const uint64_t pruned0 = st.versions_pruned.load();
  const uint64_t compact_runs0 = graph->compaction_runs_total();
  const uint64_t reclaimed0 = graph->compaction_bytes_reclaimed_total();

  Episode ep;
  ep.point = RunPhase(server->port(), point_streams, kWarmUpOps,
                      plan.point_s, kPointSubPhaseSeconds, trace);
  std::vector<AuditItem> point_audit;
  mix->audit_ok = Audit(server->port(), *fx, point_streams, seed, version0, 0,
                        &point_audit, audited);
  ep.mix = RunPhase(server->port(), streams, kWarmUpOps, plan.mix_s,
                    kMixSubPhaseSeconds, trace);
  const PhaseResult& ph = ep.mix;

  mix->overlay_bytes = static_cast<double>(graph->OverlayBytes());
  mix->retired_bytes = static_cast<double>(graph->RetiredBytes());
  // The footprint leaves out storage a compaction swap retired: it is
  // freed once the GC watermark moves past the swap, so counting it would
  // depend on where the phase happened to end. It is reported as
  // storage.retired_bytes.
  mix->bytes_per_edge =
      static_cast<double>(graph->MemoryBytes() - graph->RetiredBytes()) /
      graph->NumEdgesTotal();
  mix->wal_bytes += static_cast<double>(graph->WalBytes() - wal0);
  mix->peak_queued =
      std::max(mix->peak_queued, static_cast<double>(adm.peak_queued.load()));
  mix->rejected += adm.rejected.load() - rejected0;
  mix->executed_long += adm.executed_long.load() - long0;
  mix->gc_runs += st.gc_runs.load() - gc_runs0;
  mix->pruned += st.versions_pruned.load() - pruned0;
  mix->compact_runs += graph->compaction_runs_total() - compact_runs0;
  mix->reclaimed += graph->compaction_bytes_reclaimed_total() - reclaimed0;
  mix->gov_peak = std::max(
      mix->gov_peak,
      static_cast<double>(st.governor_peak_global_bytes.load()));
  mix->gov_killed += st.governor_killed.load();

  std::printf("# episode: %.1f s, %llu acknowledged updates, %llu GC and "
              "%llu compaction passes, overlay %.1f MiB\n",
              ph.seconds, static_cast<unsigned long long>(ph.acked_updates),
              static_cast<unsigned long long>(st.gc_runs.load() - gc_runs0),
              static_cast<unsigned long long>(graph->compaction_runs_total() -
                                              compact_runs0),
              mix->overlay_bytes / (1 << 20));
  audit->clear();
  mix->audit_ok = Audit(server->port(), *fx, streams, seed, version0,
                        ph.acked_updates, audit, audited) &&
                  mix->audit_ok;
  if (!plan.complex_streams->empty()) {
    ep.complex = RunBatch(server->port(), *plan.complex_streams,
                          plan.complex_first_op, plan.complex_ops);
  }
  return ep;
}

// Appends `from`'s sub-phases after `into`'s.
void Append(PhaseResult&& from, PhaseResult* into) {
  for (Record& r : from.records) {
    r.subphase = static_cast<uint16_t>(r.subphase + into->subphases);
  }
  into->records.insert(into->records.end(), from.records.begin(),
                       from.records.end());
  for (auto& b : from.spans) into->spans.push_back(std::move(b));
  into->seconds += from.seconds;
  into->subphases += from.subphases;
  into->acked_updates += from.acked_updates;
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !SpecFor(args, &spec)) {
    std::fprintf(stderr,
                 "usage: ges_perfbench --workload snb_mix|write_churn "
                 "--seed N --seconds S --trace 0|1 "
                 "[--data-dir DIR]\n");
    return 2;
  }
  std::printf("# workload %s seed %llu seconds %.3g trace %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  // --- set-up, repeated; the last fixture is measured ---
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  std::vector<std::vector<Op>> streams, point_streams;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    fx.reset();
    Timer t;
    std::string error;
    fx = SetUp(spec, args, &streams, &point_streams, &error);
    if (fx == nullptr) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(t.ElapsedSeconds());
  }
  Graph* graph = fx->graph.get();
  std::printf("# graph: %zu vertices, %zu edges, %zu bytes\n",
              graph->NumVerticesTotal(), graph->NumEdgesTotal(),
              graph->MemoryBytes());

  // --- timed phase: episodes of read-only point reads, then the mix ---
  TraceWindows trace;
  trace.enabled = args.trace;
  trace.start_ns = NowNs();
  SpanBuffer ping_spans;
  bool correct = true;
  std::vector<AuditItem> audit;
  Version audited = 0;
  const int episodes = std::max(
      1, static_cast<int>(std::lround(args.seconds / kEpisodeSeconds)));
  const double episode_s = args.seconds / episodes;
  PhaseResult point, ph, complex;
  MixState mix;
  std::vector<std::vector<Op>> complex_streams;
  if (spec.complex_after_mix) {
    complex_streams =
        MakeComplexStreams(*fx, args.seed, kComplexBatchConnections);
  }
  EpisodePlan plan{&point_streams,
                   &streams,
                   &complex_streams,
                   episode_s * kPointShare,
                   episode_s * (1 - kPointShare),
                   0,
                   kComplexBatchOps / episodes};
  for (int e = 0; e < episodes; ++e) {
    if (e > 0) {
      // The graph as set up for the run again; this set-up is not timed.
      fx.reset();
      std::string error;
      fx = SetUp(spec, args, &streams, &point_streams, &error);
      if (fx == nullptr) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
        return 1;
      }
    }
    Pinger pinger(args.trace, fx->server->port(), &ping_spans);
    plan.complex_first_op = e * plan.complex_ops;
    Episode ep =
        RunEpisode(fx.get(), plan, args.seed, trace, &mix, &audit, &audited);
    correct = correct && mix.audit_ok;
    Append(std::move(ep.point), &point);
    Append(std::move(ep.mix), &ph);
    Append(std::move(ep.complex), &complex);
  }
  graph = fx->graph.get();
  for (const PhaseResult* p : {&point, &ph}) {
    std::vector<uint64_t> ok(p->subphases);
    for (const Record& r : p->records) ok[r.subphase] += r.ok() ? 1 : 0;
    std::printf("# %s sub-phases, OK/s:", p == &point ? "point-read" : "mix");
    for (uint64_t n : ok) {
      std::printf(" %.0f", n * p->subphases / p->seconds);
    }
    std::printf("\n");
  }

  if (spec.complex_after_mix) {
    std::printf("# IC batches: %zu reads in %.2f s\n", complex.records.size(),
                complex.seconds);
  }

  // --- failure accounting ---
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> by_status;
  for (const PhaseResult* p : {&point, &ph, &complex}) {
    for (const Record& r : p->records) {
      ++attempted;
      if (!r.answered) {
        ++by_status["LOST"];
      } else {
        ++by_status[service::WireStatusName(r.status)];
      }
      if (!r.ok()) ++failed;
    }
  }
  std::printf("# %llu attempted, %llu failed:",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const auto& [name, n] : by_status) {
    std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("\n");

  // --- traced in-process probes on the live graph ---
  SpanBuffer probe_spans;
  ExecutorProfile fused, fused_complex, flat_complex;
  if (args.trace) {
    ProbeFrontend(*graph, fx->data.persons.size(), args.seed, &probe_spans);
    ProbeExecutor(*graph, fx->ctx, ReadSample(streams, args.seed),
                  &probe_spans, &fused, &fused_complex, &flat_complex);
  }

  // --- durability check (write workloads on a durable graph) ---
  std::unique_ptr<Graph> recovered;
  double recovery_s = 0;
  fx->Stop();
  if (spec.durable) {
    fx->graph.reset();  // closes the WAL
    graph = nullptr;
    Timer t;
    RecoveryInfo info;
    std::string error;
    Status s = Graph::Open(args.data_dir, Durability(), &recovered, &info);
    recovery_s = t.ElapsedSeconds();
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: DURABILITY FAILED: %s\n",
                   s.message().c_str());
      correct = false;
    } else if (recovered->CurrentVersion() != audited) {
      std::fprintf(stderr,
                   "perfbench: DURABILITY FAILED: recovered v%llu, last "
                   "acknowledged v%llu\n",
                   static_cast<unsigned long long>(recovered->CurrentVersion()),
                   static_cast<unsigned long long>(audited));
      correct = false;
    } else if (!ReplayAudit(*recovered, fx->data, audit, &error)) {
      std::fprintf(stderr, "perfbench: DURABILITY FAILED: %s\n",
                   error.c_str());
      correct = false;
    } else {
      std::printf("# durability: recovered v%llu in %.3f s (%llu WAL txns), "
                  "audit sample matches\n",
                  static_cast<unsigned long long>(audited), recovery_s,
                  static_cast<unsigned long long>(info.replayed_txns));
    }
    if (recovered != nullptr) graph = recovered.get();
  }

  Metrics storage_metrics;
  if (args.trace && graph != nullptr) {
    const LdbcContext ctx = LdbcContext::Resolve(*graph, fx->data.schema);
    ProbeStorage(graph, ctx, fx->data, args.seed, &probe_spans,
                 &storage_metrics);
    ProbeUpdates(graph, ctx, fx->data, args.seed, &probe_spans);
  }

  // --- metrics ---
  // Latency samples per class, one slice per sub-phase.
  std::vector<std::vector<std::vector<double>>> latency(kNumClasses);
  for (const PhaseResult* p : {&point, &ph, &complex}) {
    AddSlices(*p, &latency);
  }
  Report report;
  if (!args.trace) {
    report.Add("setup_s", Median(setup_s), "s",
               "(median of " + std::to_string(kSetupRepeats) + " set-ups)");
    uint64_t phase_ok = 0;
    for (const Record& r : ph.records) phase_ok += r.ok() ? 1 : 0;
    report.Add("throughput_qps", phase_ok / ph.seconds, "1/s",
               "(the mix, " + std::to_string(phase_ok) + " OK)");
    for (int c = 0; c < kNumClasses; ++c) {
      for (double p : {50.0, 99.0}) {
        const GroupedPercentile g = GroupPercentile(latency[c], p);
        const std::string name = std::string(kClassNames[c]) +
                                 (p == 50 ? "_p50" : "_p99") + "_ms";
        // Tails are printed with their counts but not gated: see README.
        if (p == 50) {
          report.Add(name, g.value, "ms", g.Describe());
        } else {
          report.Print(name, g.value, "ms", g.Describe() + " [not gated]");
        }
      }
    }
    report.Add("memory_bytes_per_edge", mix.bytes_per_edge, "bytes");
  } else {
    std::vector<const SpanBuffer*> wire;
    for (const PhaseResult* p : {&point, &ph}) {
      for (const auto& b : p->spans) wire.push_back(b.get());
    }
    wire.push_back(&ping_spans);
    std::map<std::string, LayerTime> w = AggregateSpans(wire);
    std::map<std::string, LayerTime> m = AggregateSpans({&probe_spans});

    // Service.
    std::vector<double> ping = w["client.ping"].dur_ms;
    report.Add("service.ping_rtt_us", Percentile(&ping, 50) * 1e3, "us",
               "(p50, n=" + std::to_string(ping.size()) + ")");
    std::vector<double> outside = w["client.run"].self_ms;
    outside.insert(outside.end(), w["client.execute"].self_ms.begin(),
                   w["client.execute"].self_ms.end());
    report.AddPercentiles("service.outside_job", outside, "ms");
    std::vector<double> job = w["server.job"].dur_ms;
    report.Add("service.job_ms", Percentile(&job, 50), "ms",
               "(p50, n=" + std::to_string(job.size()) + ")");
    // Where the server's time went in the mix: each class's share of the
    // mix's job time.
    double job_ms[kNumClasses] = {};
    double job_total = 0;
    for (const Record& r : ph.records) {
      job_ms[static_cast<int>(r.cls)] += r.server_ms;
      job_total += r.server_ms;
    }
    for (int c = 0; c < static_cast<int>(OpClass::kPrepared); ++c) {
      report.Add(std::string("service.job_share.") + kClassNames[c],
                 job_total == 0 ? 0.0 : job_ms[c] / job_total, "ratio");
    }
    report.Add("admission.peak_queued", mix.peak_queued, "count");
    report.Add("admission.rejected", mix.rejected, "count");
    report.Add("admission.executed_long", mix.executed_long, "count");
    for (uint8_t s = 0; s <= static_cast<uint8_t>(
                            service::WireStatus::kOverloaded);
         ++s) {
      const char* name =
          service::WireStatusName(static_cast<service::WireStatus>(s));
      report.Add(std::string("service.status.") + name,
                 static_cast<double>(by_status[name]), "count");
    }
    report.Add("service.status.LOST", static_cast<double>(by_status["LOST"]),
               "count");
    report.Add("failed_frac",
               attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted,
               "ratio",
               "(" + std::to_string(failed) + " of " +
                   std::to_string(attempted) + ")");

    // Frontend: the server's phases of the prepared point reads, then the
    // in-process spans.
    std::vector<double> parse, plan, bind;
    uint64_t lookups = 0, hits = 0;
    for (const Record& r : point.records) {
      if (!r.ok()) continue;
      parse.push_back(r.parse_ms);
      plan.push_back(r.plan_ms);
      bind.push_back(r.bind_ms);
      ++lookups;
      hits += r.plan_cache_hit ? 1 : 0;
    }
    report.Add("frontend.parse_ms", Mean(parse), "ms", "(mean, kExecute)");
    report.Add("frontend.plan_ms", Mean(plan), "ms", "(mean, kExecute)");
    report.Add("frontend.bind_ms", Mean(bind), "ms", "(mean, kExecute)");
    report.Add("frontend.plan_cache_hit_ratio",
               lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups,
               "ratio", "(of " + std::to_string(lookups) + " executions)");
    report.Add("frontend.plan_cache_lookups", static_cast<double>(lookups),
               "count");
    report.Add("frontend.normalize_us",
               Mean(m["frontend.normalize"].dur_ms) * 1e3, "us");
    report.Add("frontend.compile_us", Mean(m["frontend.compile"].dur_ms) * 1e3,
               "us");
    report.Add("frontend.bind_us", Mean(m["frontend.bind"].dur_ms) * 1e3,
               "us");

    // Executor.
    std::vector<double> exec[kNumClasses];
    for (const PhaseResult* p : {&point, &ph, &complex}) {
      for (const Record& r : p->records) {
        if (r.ok()) exec[static_cast<int>(r.cls)].push_back(r.exec_ms);
      }
    }
    report.Add("executor.exec_short_ms",
               Percentile(&exec[static_cast<int>(OpClass::kShort)], 50), "ms",
               "(p50)");
    report.Add("executor.exec_complex_ms",
               Percentile(&exec[static_cast<int>(OpClass::kComplex)], 50),
               "ms", "(p50)");
    report.Add("executor.exec_prepared_ms",
               Percentile(&exec[static_cast<int>(OpClass::kPrepared)], 50),
               "ms", "(p50)");
    double op_total = 0;
    for (double ms : fused.op_ms) op_total += ms;
    for (int c = 0; c < kNumOpCategories; ++c) {
      report.Add(std::string("executor.self_ms.") + kOpCategories[c],
                 fused.replayed == 0 ? 0.0 : fused.op_ms[c] / fused.replayed,
                 "ms", "(per replayed read)");
    }
    for (int c = 0; c < kNumOpCategories; ++c) {
      report.Add(std::string("executor.share.") + kOpCategories[c],
                 op_total == 0 ? 0.0 : fused.op_ms[c] / op_total, "ratio");
    }
    report.Add("executor.replayed", static_cast<double>(fused.replayed),
               "count");
    report.Add("executor.run_self_ms", Mean(m["executor.run"].self_ms), "ms",
               "(Executor::Run outside its operators, per replayed read)");
    report.Add("executor.peak_intermediate_bytes",
               static_cast<double>(fused.peak_intermediate_bytes), "bytes",
               "(max over replays)");
    report.Add("executor.rows_per_result",
               fused.rows_returned == 0
                   ? 0.0
                   : fused.rows_produced / fused.rows_returned,
               "ratio");

    // Storage.
    for (const Metric& sm : storage_metrics) {
      report.Add(sm.name, sm.value, sm.unit);
    }
    report.Add("storage.iu_us", Mean(m["storage.iu"].dur_ms) * 1e3, "us",
               spec.durable ? "(durable graph)" : "(in-memory graph)");
    report.Add("storage.wal_bytes_per_update",
               ph.acked_updates == 0 ? 0.0 : mix.wal_bytes / ph.acked_updates,
               "bytes");
    report.Add("storage.gc_runs", mix.gc_runs, "count", "(server reaper)");
    report.Add("storage.versions_pruned", mix.pruned, "count", "(server reaper)");
    report.Add("storage.gc_pass_ms", Mean(m["storage.gc"].dur_ms), "ms",
               "(mean of " + std::to_string(m["storage.gc"].dur_ms.size()) +
                   " in-process passes)");
    report.Add("storage.compaction_runs", mix.compact_runs, "count",
               "(server reaper)");
    report.Add("storage.compaction_bytes_reclaimed", mix.reclaimed, "bytes",
               "(server reaper)");
    report.Add("storage.compaction_pass_ms", Mean(m["storage.compact"].dur_ms),
               "ms", "(in-process forced pass over the probed relations)");
    report.Add("storage.overlay_bytes", mix.overlay_bytes, "bytes");
    report.Add("storage.retired_bytes", mix.retired_bytes, "bytes");
    report.Add("storage.recovery_s", recovery_s, "s");
    report.Add("governor.peak_global_bytes", mix.gov_peak, "bytes");
    report.Add("governor.killed", mix.gov_killed, "count");

    // Tracing overhead: short-read p50 in traced vs untraced windows.
    std::vector<double> traced_short, untraced_short;
    for (const Record& r : ph.records) {
      if (r.ok() && r.cls == OpClass::kShort) {
        (r.traced ? traced_short : untraced_short).push_back(r.latency_ms);
      }
    }
    const double p50_off = Percentile(&untraced_short, 50);
    const double p50_on = Percentile(&traced_short, 50);
    for (int c = 0; c < kNumClasses; ++c) {
      const GroupedPercentile g = GroupPercentile(latency[c], 99);
      report.Add(std::string("tail.") + kClassNames[c] + "_p99_ms", g.value,
                 "ms", g.Describe());
    }
    report.Add("trace.overhead_pct",
               p50_off == 0 ? 0.0 : 100.0 * (p50_on - p50_off) / p50_off, "%",
               "(short-read p50 traced " + std::to_string(p50_on) +
                   " ms vs untraced " + std::to_string(p50_off) + " ms)");

    // Fig 3 view of the complex reads: GES_f* (the service's engine) next
    // to the flat engine bench_fig3_operator_breakdown profiles.
    if (fused_complex.replayed > 0) {
      std::printf("# complex-read operator shares (Fig 3 categories: "
                  "Select = Filter, Project = GetProperty+Project), %llu "
                  "reads:\n#   %-16s %8s %8s\n",
                  static_cast<unsigned long long>(fused_complex.replayed),
                  "operator", "GES_f*", "flat");
      double tf = 0, tl = 0;
      for (int c = 0; c < kNumOpCategories; ++c) {
        tf += fused_complex.op_ms[c];
        tl += flat_complex.op_ms[c];
      }
      for (int c = 0; c < kNumOpCategories; ++c) {
        const char* fig3 = c == 1 ? "Select" : kOpCategories[c];
        std::printf("#   %-16s %7.1f%% %7.1f%%\n", fig3,
                    tf == 0 ? 0.0 : 100.0 * fused_complex.op_ms[c] / tf,
                    tl == 0 ? 0.0 : 100.0 * flat_complex.op_ms[c] / tl);
      }
    }
  }
  PrintJson(correct, attempted, failed, report.metrics());
  return 0;
}

}  // namespace
}  // namespace ges::perfbench

int main(int argc, char** argv) { return ges::perfbench::Main(argc, argv); }

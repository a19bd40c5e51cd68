// Load generation: seeded operation streams, the warm-up, and the timed
// phase (closed loop, in sub-phases) over loopback TCP.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <string_view>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "harness/workload.h"
#include "service/client.h"

namespace ges::perfbench {

using service::Client;
using service::QueryKind;
using service::QueryRequest;
using service::QueryResponse;

namespace {

// write_churn: the IU share; IS reads take the rest.
constexpr double kChurnUpdateShare = 0.50;
// Point-read template weights per 10 requests (bench_plan_cache's mix):
// 4 profile, 3 friends, 2 recent posts, 1 two-hop tail.
const double kTemplateWeights[kNumTemplates] = {4, 3, 2, 1};
// Streams are dealt in blocks holding every query kind in exact
// proportion, so seeds differ in order and parameters, not in mix.
constexpr size_t kBlockOps = 10000;
constexpr size_t kStreamOps = 2 * kBlockOps;

// DefaultMix() restricted to one query kind (keeps its relative weights).
std::vector<MixEntry> KindMix(ges::QueryKind kind) {
  std::vector<MixEntry> mix;
  for (const MixEntry& e : DefaultMix()) {
    if (e.query.kind == kind) mix.push_back(e);
  }
  return mix;
}

// The weighted query kinds of a workload's stream.
std::vector<MixEntry> WorkloadMix(const WorkloadSpec& spec) {
  if (spec.name != "write_churn") return DefaultMix();
  std::vector<MixEntry> mix;
  auto add_scaled = [&mix](std::vector<MixEntry> part, double share) {
    double sum = 0;
    for (const MixEntry& e : part) sum += e.weight;
    for (MixEntry& e : part) mix.push_back({e.query, e.weight / sum * share});
  };
  add_scaled(KindMix(ges::QueryKind::kIU), kChurnUpdateShare);
  add_scaled(KindMix(ges::QueryKind::kIS), 1.0 - kChurnUpdateShare);
  return mix;
}

// `n` indices into `weights`, each appearing in proportion to its weight
// (largest-remainder rounding), in seeded random order.
std::vector<int> DealBlock(const std::vector<double>& weights, size_t n,
                           Rng* rng) {
  double total = 0;
  for (double w : weights) total += w;
  std::vector<size_t> counts(weights.size());
  std::vector<std::pair<double, int>> remainders;
  size_t dealt = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double exact = n * weights[i] / total;
    counts[i] = static_cast<size_t>(exact);
    dealt += counts[i];
    remainders.push_back({exact - counts[i], static_cast<int>(i)});
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; dealt < n; ++i, ++dealt) ++counts[remainders[i].second];
  std::vector<int> block;
  for (size_t i = 0; i < counts.size(); ++i) {
    block.insert(block.end(), counts[i], static_cast<int>(i));
  }
  for (size_t i = block.size(); i > 1; --i) {
    std::swap(block[i - 1], block[rng->Uniform(i)]);
  }
  return block;
}

// Start persons drawn without replacement from a seeded permutation, so
// every run covers the person population (and its degree skew) evenly.
class PersonDeck {
 public:
  PersonDeck(size_t persons, Rng* rng) : ids_(persons), pos_(persons),
                                         rng_(rng) {
    for (size_t i = 0; i < persons; ++i) ids_[i] = static_cast<int64_t>(i);
  }
  int64_t Draw() {
    if (pos_ == ids_.size()) {
      for (size_t i = ids_.size(); i > 1; --i) {
        std::swap(ids_[i - 1], ids_[rng_->Uniform(i)]);
      }
      pos_ = 0;
    }
    return ids_[pos_++];
  }

 private:
  std::vector<int64_t> ids_;
  size_t pos_;
  Rng* rng_;
};

Op UpdateOp(int number, Rng* rng) {
  Op op;
  op.cls = OpClass::kUpdate;
  op.kind = QueryKind::kIU;
  op.number = static_cast<uint8_t>(number);
  op.seed = rng->Next();
  return op;
}

Op LdbcOp(const QueryRef& q, ParamGen* params, Rng* rng) {
  if (q.kind == ges::QueryKind::kIU) return UpdateOp(q.number, rng);
  Op op;
  op.cls = q.kind == ges::QueryKind::kIC ? OpClass::kComplex : OpClass::kShort;
  op.kind = q.kind == ges::QueryKind::kIC ? QueryKind::kIC : QueryKind::kIS;
  op.number = static_cast<uint8_t>(q.number);
  op.params = params->Next();
  return op;
}

QueryRequest ToRequest(const Op& op, uint64_t query_id) {
  QueryRequest req;
  req.query_id = query_id;
  req.kind = op.kind;
  req.number = op.number;
  req.seed = op.seed;
  req.params = op.params;
  return req;
}

void FillRecord(const QueryResponse& resp, Record* r) {
  r->answered = true;
  r->status = resp.status;
  r->server_ms = resp.server_millis;
  r->parse_ms = resp.parse_millis;
  r->plan_ms = resp.plan_millis;
  r->bind_ms = resp.bind_millis;
  r->exec_ms = resp.exec_millis;
  r->plan_cache_hit = resp.plan_cache_hit != 0;
}

// Client::Run (or Client::Execute) span, with the server's reported job
// time as its child and the job's parse/plan/bind/exec phases as the
// job's children. The wire carries durations only, so children are laid
// end to end from the parent's start.
void AddWireSpans(SpanBuffer* buf, uint64_t request, int64_t start_ns,
                  int64_t end_ns, const Record& r) {
  const bool prepared = r.cls == OpClass::kPrepared;
  const uint32_t root =
      buf->Add(request, SpanBuffer::kRoot,
               prepared ? "client.execute" : "client.run", start_ns,
               end_ns - start_ns);
  if (!r.answered) return;
  auto ns = [](double ms) { return static_cast<int64_t>(ms * 1e6); };
  const uint32_t job =
      buf->Add(request, root, "server.job", start_ns, ns(r.server_ms));
  int64_t at = start_ns;
  const std::pair<const char*, double> phases[] = {
      {"server.parse", r.parse_ms},
      {"server.plan", r.plan_ms},
      {"server.bind", r.bind_ms},
      {"server.exec", r.exec_ms}};
  for (const auto& [name, ms] : phases) {
    if (!prepared && std::string_view(name) != "server.exec") continue;
    buf->Add(request, job, name, at, ns(ms));
    at += ns(ms);
  }
}

struct ConnResult {
  std::vector<Record> records;
  std::unique_ptr<SpanBuffer> spans = std::make_unique<SpanBuffer>();
  uint64_t acked_updates = 0;
  std::string error;
};

std::chrono::steady_clock::time_point SteadyAt(int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

// Closed loop: the next request leaves when the previous one answered.
// Runs from `start_ns` until `end_ns`, or for `max_ops` requests when
// end_ns is 0.
void ClosedLoop(uint16_t port, int conn, const std::vector<Op>& stream,
                size_t first_op, int64_t start_ns, int64_t end_ns,
                size_t max_ops, const TraceWindows* trace, ConnResult* out) {
  Client client;
  if (!client.Connect("127.0.0.1", port)) {
    out->error = "connect: " + client.last_error();
    return;
  }
  uint64_t handles[kNumTemplates] = {};
  if (!stream.empty() && stream.front().cls == OpClass::kPrepared) {
    for (int t = 0; t < kNumTemplates; ++t) {
      service::PrepareResult pr;
      if (!client.Prepare(kTemplates[t], &pr)) {
        out->error = std::string("prepare ") + kTemplateNames[t] + ": " +
                     client.last_error();
        return;
      }
      handles[t] = pr.handle;
    }
  }
  out->records.reserve(end_ns == 0 ? max_ops : 1 << 16);
  std::this_thread::sleep_until(SteadyAt(start_ns));
  for (size_t i = first_op;; ++i) {
    if (end_ns == 0 ? i - first_op >= max_ops : NowNs() >= end_ns) break;
    const Op& op = stream[i % stream.size()];
    Record r;
    r.cls = op.cls;
    QueryResponse resp;
    const int64_t t0 = NowNs();
    r.traced = trace != nullptr && trace->On(t0);
    bool answered;
    if (op.cls == OpClass::kPrepared) {
      answered = client.Execute(handles[op.number],
                                {Value::Int(op.params.person)}, &resp);
    } else {
      answered = client.Run(ToRequest(op, client.AllocQueryId()), &resp);
    }
    const int64_t t1 = NowNs();
    r.latency_ms = (t1 - t0) / 1e6;
    if (answered) FillRecord(resp, &r);
    if (r.traced) {
      AddWireSpans(out->spans.get(), (uint64_t{uint32_t(conn)} << 40) | i,
                   t0, t1, r);
    }
    if (op.kind == QueryKind::kIU && r.ok()) ++out->acked_updates;
    out->records.push_back(r);
    if (!answered) {
      out->error = "connection lost: " + client.last_error();
      return;
    }
  }
}

}  // namespace

std::vector<std::vector<Op>> MakeStreams(const WorkloadSpec& spec,
                                         const Fixture& fx, uint64_t seed) {
  const std::vector<MixEntry> mix = WorkloadMix(spec);
  std::vector<double> weights;
  for (const MixEntry& e : mix) weights.push_back(e.weight);
  std::vector<std::vector<Op>> streams(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    const uint64_t conn_seed = seed * 1000003 + c;
    Rng rng(conn_seed);
    ParamGen params(fx.graph.get(), &fx.data, conn_seed);
    PersonDeck persons(fx.data.persons.size(), &rng);
    std::vector<Op>& s = streams[c];
    s.reserve(kStreamOps);
    while (s.size() < kStreamOps) {
      for (int i : DealBlock(weights, kBlockOps, &rng)) {
        Op op = LdbcOp(mix[i].query, &params, &rng);
        if (op.cls != OpClass::kUpdate) op.params.person = persons.Draw();
        s.push_back(op);
      }
    }
  }
  return streams;
}

std::vector<std::vector<Op>> MakePointStreams(const Fixture& fx,
                                              uint64_t seed) {
  const std::vector<double> weights(std::begin(kTemplateWeights),
                                    std::end(kTemplateWeights));
  std::vector<std::vector<Op>> streams(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    Rng rng(seed * 1000003 + 500 + c);
    PersonDeck persons(fx.data.persons.size(), &rng);
    std::vector<Op>& s = streams[c];
    s.reserve(kStreamOps);
    while (s.size() < kStreamOps) {
      for (int t : DealBlock(weights, kBlockOps, &rng)) {
        Op op;
        op.cls = OpClass::kPrepared;
        op.kind = QueryKind::kPrepared;
        op.number = static_cast<uint8_t>(t);
        op.params.person = persons.Draw();
        s.push_back(op);
      }
    }
  }
  return streams;
}

std::vector<std::vector<Op>> MakeComplexStreams(const Fixture& fx,
                                                uint64_t seed, int conns) {
  const std::vector<MixEntry> mix = KindMix(ges::QueryKind::kIC);
  std::vector<double> weights;
  for (const MixEntry& e : mix) weights.push_back(e.weight);
  std::vector<std::vector<Op>> streams(conns);
  for (int c = 0; c < conns; ++c) {
    const uint64_t conn_seed = seed * 1000003 + 900 + c;
    Rng rng(conn_seed);
    ParamGen params(fx.graph.get(), &fx.data, conn_seed);
    PersonDeck persons(fx.data.persons.size(), &rng);
    for (int i : DealBlock(weights, kBlockOps / 10, &rng)) {
      Op op = LdbcOp(mix[i].query, &params, &rng);
      op.params.person = persons.Draw();
      streams[c].push_back(op);
    }
  }
  return streams;
}

bool WarmUp(uint16_t port,
            const std::vector<std::vector<Op>>& streams, size_t ops_per_conn,
            std::string* error) {
  std::vector<std::vector<Op>> reads(streams.size());
  for (size_t c = 0; c < streams.size(); ++c) {
    for (size_t i = 0; i < ops_per_conn; ++i) {
      if (streams[c][i].cls != OpClass::kUpdate) {
        reads[c].push_back(streams[c][i]);
      }
    }
  }
  std::vector<ConnResult> results(streams.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back(ClosedLoop, port, static_cast<int>(c),
                         std::cref(reads[c]), 0, 0, 0, reads[c].size(),
                         nullptr, &results[c]);
  }
  for (std::thread& t : threads) t.join();
  for (const ConnResult& r : results) {
    if (!r.error.empty()) {
      *error = "warm-up: " + r.error;
      return false;
    }
    for (const Record& rec : r.records) {
      if (!rec.ok()) {
        *error = std::string("warm-up request failed: ") +
                 service::WireStatusName(rec.status);
        return false;
      }
    }
  }
  return true;
}

PhaseResult RunPhase(uint16_t port, const std::vector<std::vector<Op>>& streams,
                     size_t first_op, double seconds, double subphase_s,
                     const TraceWindows& trace) {
  const int n = static_cast<int>(streams.size());
  const int subphases =
      std::max(1, static_cast<int>(std::lround(seconds / subphase_s)));
  const double sub_seconds = seconds / subphases;
  std::vector<size_t> next_op(n, first_op);
  PhaseResult out;
  out.subphases = subphases;
  for (int sp = 0; sp < subphases; ++sp) {
    std::vector<ConnResult> results(n);
    std::vector<std::thread> threads;
    const int64_t start_ns = NowNs() + 20'000'000;  // let threads connect
    const int64_t end_ns = start_ns + static_cast<int64_t>(sub_seconds * 1e9);
    for (int c = 0; c < n; ++c) {
      threads.emplace_back(ClosedLoop, port, c, std::cref(streams[c]),
                           next_op[c], start_ns, end_ns, 0, &trace,
                           &results[c]);
    }
    for (std::thread& t : threads) t.join();
    out.seconds += (end_ns - start_ns) / 1e9;
    for (int c = 0; c < n; ++c) {
      ConnResult& r = results[c];
      if (!r.error.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", r.error.c_str());
      }
      next_op[c] += r.records.size();
      for (Record& rec : r.records) rec.subphase = static_cast<uint16_t>(sp);
      out.records.insert(out.records.end(), r.records.begin(),
                         r.records.end());
      out.spans.push_back(std::move(r.spans));
      out.acked_updates += r.acked_updates;
    }
  }
  return out;
}

PhaseResult RunBatch(uint16_t port, const std::vector<std::vector<Op>>& streams,
                     size_t first_op, size_t ops_per_conn) {
  const int n = static_cast<int>(streams.size());
  std::vector<ConnResult> results(n);
  std::vector<std::thread> threads;
  const int64_t start_ns = NowNs() + 20'000'000;  // let threads connect
  for (int c = 0; c < n; ++c) {
    threads.emplace_back(ClosedLoop, port, c, std::cref(streams[c]),
                         first_op, start_ns, 0, ops_per_conn, nullptr,
                         &results[c]);
  }
  for (std::thread& t : threads) t.join();
  PhaseResult out;
  out.subphases = 1;
  out.seconds = (NowNs() - start_ns) / 1e9;
  for (ConnResult& r : results) {
    if (!r.error.empty()) std::fprintf(stderr, "perfbench: %s\n", r.error.c_str());
    out.records.insert(out.records.end(), r.records.begin(), r.records.end());
  }
  return out;
}

void PingLoop(uint16_t port, double interval_ms, const std::atomic<bool>* stop,
              SpanBuffer* spans) {
  Client client;
  if (!client.Connect("127.0.0.1", port)) return;
  for (uint64_t i = 1; !stop->load(std::memory_order_relaxed); ++i) {
    const int64_t t0 = NowNs();
    if (!client.Ping()) return;
    spans->Close(i, SpanBuffer::kRoot, "client.ping", t0);
    // An idle session would pin its connect-time snapshot and hold back
    // the GC watermark for the whole phase.
    if (!client.RefreshSnapshot()) return;
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(interval_ms * 1000)));
  }
}

}  // namespace ges::perfbench

// Background delta-merge compaction soak (DESIGN.md §16): the
// bench_version_gc update storm against a mostly-cold graph, with and
// without periodic CompactRelations passes. Acceptance gates (exit 1):
//
//   memory       compact_on must end with Graph::MemoryBytes() at least
//                GES_COMPACT_MEM_GATE (default 30%) below compact_off —
//                overlay chains and base slack fold into delta+varint
//                segments
//   read p99     compact_on COLD-vertex read probes (the 8128 of 8192
//                vertices outside the update hot set — i.e. almost all
//                reads) must stay within GES_COMPACT_P99_SLACK (default
//                1.5x) of compact_off. Hot-set probes are reported but
//                not gated: a hot vertex accumulates thousands of edges
//                here and re-decoding its compressed span per fetch is
//                the CSR-compression trade-off, visible in the hot column
//   identity     a reader pinned mid-storm must see byte-identical
//                neighbor lists across every segment swap (0 mismatches)
//
// Usage: bench_compaction [--json [path]]
//   env: GES_TXNS (default 60000), GES_GC_EVERY (default 2000),
//        GES_COMPACT_EVERY (default 5000 txns per compaction pass),
//        GES_COMPACT_MEM_GATE (0.30), GES_COMPACT_P99_SLACK (1.5)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "harness/report.h"
#include "harness/stats.h"
#include "storage/graph.h"

namespace ges::bench {
namespace {

constexpr int kVertices = 8192;  // cold bulk so read p99 lands on cold spans
constexpr int kHotVertices = 64;

struct SoakGraph {
  std::unique_ptr<Graph> graph;
  LabelId node;
  LabelId link;
  PropertyId val;
  RelationId link_out;
  std::vector<VertexId> all;
};

SoakGraph MakeSoakGraph() {
  SoakGraph s;
  s.graph = std::make_unique<Graph>();
  Catalog& c = s.graph->catalog();
  s.node = c.AddVertexLabel("NODE");
  s.link = c.AddEdgeLabel("LINK");
  s.val = c.AddProperty(s.node, "val", ValueType::kInt64);
  s.graph->RegisterRelation(s.node, s.link, s.node, /*has_stamp=*/true);
  for (int i = 0; i < kVertices; ++i) {
    VertexId v = s.graph->AddVertexBulk(s.node, i);
    s.graph->SetPropertyBulk(v, s.val, Value::Int(i));
    s.all.push_back(v);
  }
  for (int i = 0; i < kVertices; ++i) {
    s.graph->AddEdgeBulk(s.link, s.all[i], s.all[(i + 1) % kVertices], i);
  }
  s.graph->FinalizeBulk();
  s.link_out = s.graph->FindRelation(s.node, s.link, s.node, Direction::kOut);
  return s;
}

// Sorted (id, stamp) neighbor multiset.
std::vector<std::pair<VertexId, int64_t>> EdgePairs(const Graph& g,
                                                    RelationId rel,
                                                    VertexId v, Version s) {
  AdjScratch scratch;
  AdjSpan span = g.Neighbors(rel, v, s, &scratch);
  std::vector<std::pair<VertexId, int64_t>> out;
  for (uint32_t i = 0; i < span.size; ++i) {
    out.emplace_back(span.ids[i], span.stamps ? span.stamps[i] : 0);
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct SoakResult {
  LatencyRecorder update;    // per-commit latency (ms)
  LatencyRecorder read;      // per-cold-probe latency (ms) — the gate
  LatencyRecorder read_hot;  // per-hot-probe latency (ms) — informational
  size_t final_memory = 0; // MemoryBytes after trailing commit + prune
  size_t peak_memory = 0;
  uint64_t compaction_runs = 0;
  uint64_t compaction_bytes = 0;
  uint64_t pin_mismatches = 0;
  double wall_seconds = 0;
};

SoakResult RunSoak(bool compact, int txns, int gc_every, int compact_every) {
  SoakGraph s = MakeSoakGraph();
  Graph& g = *s.graph;
  SoakResult r;

  CompactionOptions copts;  // production trigger, not force
  copts.trigger_frag_pct = 0.30;

  // Pinned mid-storm reader state: reference neighbor lists captured at
  // the pin, re-verified after every compaction pass it spans.
  SnapshotHandle pin;
  Version pin_version = 0;
  std::vector<std::vector<std::pair<VertexId, int64_t>>> pin_expected;
  const int pin_at = txns / 4;
  const int release_at = (3 * txns) / 4;

  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < txns; ++i) {
    VertexId a = s.all[i % kHotVertices];
    VertexId b = s.all[(i + 1) % kHotVertices];
    auto start = std::chrono::steady_clock::now();
    auto txn = g.BeginWrite({a, b});
    txn->SetProperty(a, s.val, Value::Int(i));
    txn->AddEdge(s.link, a, b, i).ok();
    txn->Commit();
    r.update.Add(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());

    if (i == pin_at) {
      pin = g.PinSnapshot();
      pin_version = pin.version();
      for (int k = 0; k < kHotVertices; ++k) {
        pin_expected.push_back(
            EdgePairs(g, s.link_out, s.all[k], pin_version));
      }
    }

    // Read probe every 64 txns: 8 hot fetches (segment/overlay mix,
    // informational) timed separately from 8 cold fetches (the gated
    // common case the swap must not hurt).
    if (i % 64 == 0) {
      Version v = g.CurrentVersion();
      uint64_t sink = 0;
      AdjScratch adj;
      auto hstart = std::chrono::steady_clock::now();
      for (int k = 0; k < 8; ++k) {
        VertexId probe = s.all[(i + k * 7) % kHotVertices];
        AdjSpan span = g.Neighbors(s.link_out, probe, v, &adj);
        for (uint32_t j = 0; j < span.size; ++j) sink += span.ids[j];
      }
      auto cstart = std::chrono::steady_clock::now();
      for (int k = 0; k < 8; ++k) {
        VertexId probe =
            s.all[kHotVertices + (i * 31 + k * 997) %
                                     (kVertices - kHotVertices)];
        AdjSpan span = g.Neighbors(s.link_out, probe, v, &adj);
        for (uint32_t j = 0; j < span.size; ++j) sink += span.ids[j];
        sink += static_cast<uint64_t>(g.GetProperty(probe, s.val, v).AsInt());
      }
      auto rend = std::chrono::steady_clock::now();
      if (sink == 0xdeadbeef) std::printf("#");  // keep the loop live
      r.read_hot.Add(
          std::chrono::duration<double, std::milli>(cstart - hstart).count());
      r.read.Add(
          std::chrono::duration<double, std::milli>(rend - cstart).count());
    }

    if (compact && i % compact_every == compact_every - 1) {
      g.CompactRelations(copts);
      if (pin.valid()) {
        // Byte-identity across the swap: the pinned snapshot must decode
        // exactly the lists captured before any segment existed.
        for (int k = 0; k < kHotVertices; ++k) {
          if (EdgePairs(g, s.link_out, s.all[k], pin_version) !=
              pin_expected[static_cast<size_t>(k)]) {
            ++r.pin_mismatches;
          }
        }
      }
    }
    if (i == release_at && pin.valid()) pin.Release();
    if (i % gc_every == gc_every - 1) {
      g.PruneVersions();
      r.peak_memory = std::max(r.peak_memory, g.MemoryBytes());
    }
  }
  // Trailing commit pushes the watermark strictly past the last install
  // version so the final prune drains the retire list.
  {
    auto txn = g.BeginWrite({s.all[0], s.all[1]});
    txn->AddEdge(s.link, s.all[0], s.all[1], txns).ok();
    txn->Commit();
  }
  if (compact) g.CompactRelations(copts);
  g.PruneVersions();
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  r.final_memory = g.MemoryBytes();
  r.peak_memory = std::max(r.peak_memory, r.final_memory);
  r.compaction_runs = g.compaction_runs_total();
  r.compaction_bytes = g.compaction_bytes_reclaimed_total();
  return r;
}

int Main(int argc, char** argv) {
  const int txns = EnvInt("GES_TXNS", 60000);
  const int gc_every = EnvInt("GES_GC_EVERY", 2000);
  const int compact_every = EnvInt("GES_COMPACT_EVERY", 5000);
  const double mem_gate = EnvDouble("GES_COMPACT_MEM_GATE", 0.30);
  const double p99_slack = EnvDouble("GES_COMPACT_P99_SLACK", 1.5);

  BenchJsonReport json("compaction");
  json.AddScalar("txns", txns);
  json.AddScalar("gc_every", gc_every);
  json.AddScalar("compact_every", compact_every);
  json.AddScalar("vertices", kVertices);
  json.AddScalar("hot_vertices", kHotVertices);

  struct Cfg {
    const char* name;
    bool compact;
  };
  const std::vector<Cfg> cfgs = {{"compact_off", false},
                                 {"compact_on", true}};

  TextTable table({"config", "mem final MB", "mem peak MB", "passes",
                   "update p50 us", "cold p99 us", "hot p99 us", "txns/s"});
  SoakResult results[2];
  for (size_t c = 0; c < cfgs.size(); ++c) {
    std::printf("# %s: %d update txns (gc_every=%d, compact_every=%d)...\n",
                cfgs[c].name, txns, gc_every, compact_every);
    std::fflush(stdout);
    SoakResult r = RunSoak(cfgs[c].compact, txns, gc_every, compact_every);

    auto mb = [](size_t b) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", b / (1024.0 * 1024.0));
      return std::string(buf);
    };
    auto us = [](double ms) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", ms * 1000.0);
      return std::string(buf);
    };
    char passes[32], tput[32];
    std::snprintf(passes, sizeof(passes), "%llu",
                  static_cast<unsigned long long>(r.compaction_runs));
    std::snprintf(tput, sizeof(tput), "%.0f",
                  r.wall_seconds > 0 ? txns / r.wall_seconds : 0.0);
    table.AddRow({cfgs[c].name, mb(r.final_memory), mb(r.peak_memory),
                  passes, us(r.update.Percentile(50)),
                  us(r.read.Percentile(99)),
                  us(r.read_hot.Percentile(99)), tput});

    json.AddSectionScalar(cfgs[c].name, "memory_final_bytes",
                          static_cast<double>(r.final_memory));
    json.AddSectionScalar(cfgs[c].name, "memory_peak_bytes",
                          static_cast<double>(r.peak_memory));
    json.AddSectionScalar(cfgs[c].name, "compaction_runs",
                          static_cast<double>(r.compaction_runs));
    json.AddSectionScalar(cfgs[c].name, "compaction_bytes_reclaimed",
                          static_cast<double>(r.compaction_bytes));
    json.AddSectionScalar(cfgs[c].name, "pin_mismatches",
                          static_cast<double>(r.pin_mismatches));
    json.AddSectionScalar(cfgs[c].name, "update_p50_us",
                          r.update.Percentile(50) * 1000.0);
    json.AddSectionScalar(cfgs[c].name, "cold_read_p50_us",
                          r.read.Percentile(50) * 1000.0);
    json.AddSectionScalar(cfgs[c].name, "cold_read_p99_us",
                          r.read.Percentile(99) * 1000.0);
    json.AddSectionScalar(cfgs[c].name, "hot_read_p50_us",
                          r.read_hot.Percentile(50) * 1000.0);
    json.AddSectionScalar(cfgs[c].name, "hot_read_p99_us",
                          r.read_hot.Percentile(99) * 1000.0);
    json.AddSectionScalar(cfgs[c].name, "txns_per_sec",
                          r.wall_seconds > 0 ? txns / r.wall_seconds : 0.0);
    results[c] = std::move(r);
  }
  table.Print();

  const SoakResult& off = results[0];
  const SoakResult& on = results[1];
  double reduction =
      off.final_memory > 0
          ? 1.0 - static_cast<double>(on.final_memory) / off.final_memory
          : 0.0;
  double p99_off = off.read.Percentile(99);
  double p99_on = on.read.Percentile(99);
  std::printf("# compaction: %.1f%% memory reduction (gate: >= %.0f%%), "
              "cold read p99 %.2f us vs %.2f us (gate: <= %.1fx), "
              "hot read p99 %.2f us vs %.2f us (informational), "
              "%llu pin mismatches\n",
              100.0 * reduction, 100.0 * mem_gate, p99_on * 1000.0,
              p99_off * 1000.0, p99_slack,
              on.read_hot.Percentile(99) * 1000.0,
              off.read_hot.Percentile(99) * 1000.0,
              static_cast<unsigned long long>(on.pin_mismatches));
  json.AddScalar("memory_reduction_pct", 100.0 * reduction);
  json.AddScalar("mem_gate_pct", 100.0 * mem_gate);
  json.AddScalar("p99_slack", p99_slack);
  MaybeWriteJson(argc, argv, json);

  if (on.compaction_runs == 0) {
    std::fprintf(stderr, "FAIL: compact_on never ran a compaction pass\n");
    return 1;
  }
  if (on.pin_mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu pinned-reader mismatches across swaps\n",
                 static_cast<unsigned long long>(on.pin_mismatches));
    return 1;
  }
  if (reduction < mem_gate) {
    std::fprintf(stderr,
                 "FAIL: memory reduction %.1f%% below the %.0f%% gate\n",
                 100.0 * reduction, 100.0 * mem_gate);
    return 1;
  }
  if (p99_on > p99_off * p99_slack) {
    std::fprintf(stderr,
                 "FAIL: cold read p99 %.2f us above %.2fx of compact_off "
                 "(%.2f us)\n",
                 p99_on * 1000.0, p99_slack, p99_off * 1000.0);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ges::bench

int main(int argc, char** argv) { return ges::bench::Main(argc, argv); }

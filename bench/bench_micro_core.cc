// Microbenchmarks of the core factorized data structures (google-benchmark):
// f-Tree enumeration, tuple-count DP (whole tree and per node of an
// IC5-shaped tree), flat-vs-lazy expand, selection filtering, the
// storage read layer on a graph that has taken updates, and IC5's
// typed-key grouping. These quantify the constant factors behind the macro
// results.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "datagen/snb_generator.h"
#include "executor/executor.h"
#include "executor/executor_internal.h"
#include "executor/ftree.h"
#include "harness/workload.h"
#include "queries/ldbc.h"
#include "runtime/scheduler.h"

namespace ges {
namespace {

// Adds a child of `parent` with `fan` rows under every parent row.
FTreeNode* AddFanChild(FTree* tree, FTreeNode* parent, const char* name,
                       uint64_t fan) {
  FTreeNode* child = tree->AddChild(parent);
  uint64_t parent_rows = parent->block.NumRows();
  ValueVector ids(ValueType::kInt64);
  for (uint64_t i = 0; i < parent_rows * fan; ++i) {
    ids.AppendInt(static_cast<int64_t>(i));
  }
  child->block.AddColumn(name, std::move(ids));
  child->parent_index.resize(parent_rows);
  for (uint64_t i = 0; i < parent_rows; ++i) {
    child->parent_index[i] = IndexRange{i * fan, (i + 1) * fan};
  }
  tree->RegisterColumns(child);
  return child;
}

// A tree with one root row in column "a".
std::unique_ptr<FTree> MakeRootTree() {
  auto tree = std::make_unique<FTree>();
  FTreeNode* r = tree->CreateRoot();
  ValueVector root_ids(ValueType::kInt64);
  root_ids.AppendInt(0);
  r->block.AddColumn("a", std::move(root_ids));
  tree->RegisterColumns(r);
  return tree;
}

// A fan-out tree: one root row, `fan1` children rows, each with `fan2`
// grandchildren rows.
std::unique_ptr<FTree> MakeFanTree(int fan1, int fan2) {
  auto tree = MakeRootTree();
  FTreeNode* mid = AddFanChild(tree.get(), tree->root(), "b", fan1);
  AddFanChild(tree.get(), mid, "c", fan2);
  return tree;
}

void BM_TupleEnumeration(benchmark::State& state) {
  auto tree = MakeFanTree(static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(0)));
  for (auto _ : state) {
    TupleEnumerator e(*tree);
    uint64_t n = 0;
    while (e.Next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_TupleEnumeration)->Arg(32)->Arg(128)->Arg(512);

void BM_TupleCountDP(benchmark::State& state) {
  auto tree = MakeFanTree(static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->CountTuples());
  }
}
BENCHMARK(BM_TupleCountDP)->Arg(32)->Arg(128)->Arg(512);

// IC5's count: a person -> 1k friends -> 50k forum memberships, filtered
// by join date -> a 450k-row post leaf without a selection vector. GES_f*
// groups the forum rows by the per-row tuple counts of the 50k-row node.
void BM_TupleCountsForNode(benchmark::State& state) {
  auto tree = MakeRootTree();
  FTreeNode* friends = AddFanChild(tree.get(), tree->root(), "f", 1000);
  FTreeNode* forums = AddFanChild(tree.get(), friends, "forum", 50);
  AddFanChild(tree.get(), forums, "post", 9);
  std::vector<uint8_t>& sel = forums->MutableSel();
  for (size_t i = 0; i < sel.size(); i += 20) sel[i] = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->TupleCountsForNode(forums));
  }
  state.SetItemsProcessed(state.iterations() * forums->block.NumRows());
}
BENCHMARK(BM_TupleCountsForNode);

void BM_Flatten(benchmark::State& state) {
  auto tree = MakeFanTree(static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Schema s;
    s.Add("a", ValueType::kInt64);
    s.Add("b", ValueType::kInt64);
    s.Add("c", ValueType::kInt64);
    FlatBlock out(s);
    tree->Flatten({"a", "b", "c"}, &out);
    benchmark::DoNotOptimize(out.NumRows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_Flatten)->Arg(32)->Arg(128)->Arg(512);


struct MicroGraph {
  Graph graph;
  SnbData data;
  LdbcContext ctx;

  static MicroGraph& Get() {
    static MicroGraph* g = new MicroGraph();
    return *g;
  }

 private:
  MicroGraph() {
    SnbConfig config;
    config.scale_factor = 0.02;
    data = GenerateSnb(config, &graph);
    ctx = LdbcContext::Resolve(graph, data.schema);
  }
};

void BM_ExpandIC9(benchmark::State& state) {
  MicroGraph& g = MicroGraph::Get();
  ExecMode mode = static_cast<ExecMode>(state.range(0));
  Executor exec(mode, ExecOptions{.collect_stats = false});
  ParamGen gen(&g.graph, &g.data, 42);
  LdbcParams p = gen.Next();
  GraphView view(&g.graph);
  Plan plan = BuildIC(9, g.ctx, p);
  for (auto _ : state) {
    QueryResult r = exec.Run(plan, view);
    benchmark::DoNotOptimize(r.table.NumRows());
  }
  state.SetLabel(ExecModeName(mode));
}
BENCHMARK(BM_ExpandIC9)
    ->Arg(static_cast<int>(ExecMode::kVolcano))
    ->Arg(static_cast<int>(ExecMode::kFlat))
    ->Arg(static_cast<int>(ExecMode::kFactorized))
    ->Arg(static_cast<int>(ExecMode::kFactorizedFused));

// The morsel-parallel Expand path (GES_f*): arg = intra_query_threads.
// On one core the parallel setting must not regress; on multi-core the
// hardware_concurrency run should beat threads=1.
void BM_ExpandIC9Parallel(benchmark::State& state) {
  MicroGraph& g = MicroGraph::Get();
  int threads = static_cast<int>(state.range(0));
  Executor exec(ExecMode::kFactorizedFused,
                ExecOptions{.intra_query_threads = threads,
                            .collect_stats = false});
  ParamGen gen(&g.graph, &g.data, 42);
  LdbcParams p = gen.Next();
  GraphView view(&g.graph);
  Plan plan = BuildIC(9, g.ctx, p);
  for (auto _ : state) {
    QueryResult r = exec.Run(plan, view);
    benchmark::DoNotOptimize(r.table.NumRows());
  }
  state.SetLabel("intra_threads=" + std::to_string(threads));
}
BENCHMARK(BM_ExpandIC9Parallel)
    ->Arg(1)
    ->Arg(static_cast<int>(HardwareThreads()));

// SF0.1 after a seeded stream of 3,500 DefaultMix-weighted IUs (about one
// snb_mix episode's updates), so every relation the IUs write has overlay
// entries. The sample is 2,048 bulk persons drawn uniformly, touched by the
// IUs or not, as the complex reads meet them.
struct UpdatedGraph {
  Graph graph;
  SnbData data;
  LdbcContext ctx;
  std::vector<VertexId> sample;
  std::vector<VertexId> friends;  // the sample's KNOWS lists, concatenated

  static UpdatedGraph& Get() {
    static UpdatedGraph* g = new UpdatedGraph();
    return *g;
  }

 private:
  UpdatedGraph() {
    SnbConfig config;
    config.scale_factor = 0.1;
    data = GenerateSnb(config, &graph);
    ctx = LdbcContext::Resolve(graph, data.schema);
    std::vector<MixEntry> ius;
    for (const MixEntry& e : DefaultMix()) {
      if (e.query.kind == QueryKind::kIU) ius.push_back(e);
    }
    MixSampler sampler(std::move(ius));
    ParamGen params(&graph, &data, 7);
    Rng rng(7);
    for (uint64_t i = 1; i <= 3500; ++i) {
      RunIU(sampler.Sample(rng).number, ctx, &graph, &params, i);
    }
    for (int i = 0; i < 2048; ++i) {
      sample.push_back(data.persons[rng.Uniform(data.persons.size())]);
    }
    for (VertexId v : sample) {
      AdjSpan span = graph.Neighbors(ctx.knows, v, graph.CurrentVersion());
      friends.insert(friends.end(), span.ids, span.ids + span.size);
    }
  }
};

// Wall nanoseconds since `start` per unit of work.
double NsPer(std::chrono::steady_clock::time_point start, uint64_t units) {
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  return units == 0 ? 0.0 : elapsed.count() / static_cast<double>(units);
}

// Neighbors over KNOWS and person->post for each sampled person.
void BM_NeighborsAfterUpdates(benchmark::State& state) {
  UpdatedGraph& g = UpdatedGraph::Get();
  const Version snapshot = g.graph.CurrentVersion();
  AdjScratch scratch;
  uint64_t calls = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    uint64_t edges = 0;
    for (VertexId v : g.sample) {
      for (RelationId rel : {g.ctx.knows, g.ctx.person_posts}) {
        edges += g.graph.Neighbors(rel, v, snapshot, &scratch).size;
      }
    }
    benchmark::DoNotOptimize(edges);
    calls += 2 * g.sample.size();
  }
  state.counters["ns_per_call"] = NsPer(start, calls);
}
BENCHMARK(BM_NeighborsAfterUpdates);

// GatherProperties of an int (creationDate) and a dictionary string
// (firstName) column over the sample's friends.
void BM_GatherAfterUpdates(benchmark::State& state) {
  UpdatedGraph& g = UpdatedGraph::Get();
  const Version snapshot = g.graph.CurrentVersion();
  const Catalog& catalog = g.graph.catalog();
  uint64_t rows = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (PropertyId prop : {g.ctx.p_creation, g.data.schema.first_name}) {
      ValueVector out(catalog.PropertyType(g.data.schema.person, prop));
      g.graph.GatherProperties(g.friends.data(), g.friends.size(), nullptr,
                               prop, snapshot, &out);
      benchmark::DoNotOptimize(out.size());
      rows += g.friends.size();
    }
  }
  state.counters["ns_per_row"] = NsPer(start, rows);
}
BENCHMARK(BM_GatherAfterUpdates);

// IC5's grouping: 33k forum rows of an int64 id column, into about 2.4k
// groups, each row weighed by its tuple count, as the direct factorized
// aggregation feeds them. Tracks the per-row cost of the typed-key index.
void BM_GroupedAggregate(benchmark::State& state) {
  constexpr size_t kRows = 33000;
  FBlock block;
  ValueVector ids(ValueType::kInt64);
  uint64_t x = 88172645463325252ULL;
  for (size_t i = 0; i < kRows; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ids.AppendInt(static_cast<int64_t>(x % 2400) * 1099511628211LL);
  }
  block.AddColumn("forum_id", std::move(ids));
  uint64_t rows = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    internal::GroupedAggregator agg(block.schema(), {"forum_id"},
                                    {AggSpec{AggSpec::kCount, "", "cnt"}});
    for (size_t r = 0; r < kRows; ++r) {
      agg.AddTypedRow([&](int c) { return block.WordAt(r, c); },
                      [&](int c) { return block.GetValue(r, c); },
                      static_cast<int64_t>(1 + r % 13));
    }
    benchmark::DoNotOptimize(agg.Finish().NumRows());
    rows += kRows;
  }
  state.counters["ns_per_row"] = NsPer(start, rows);
}
BENCHMARK(BM_GroupedAggregate);

}  // namespace
}  // namespace ges

BENCHMARK_MAIN();

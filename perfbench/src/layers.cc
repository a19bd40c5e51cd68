// Per-layer probes of the traced run (frontend, executor, storage) and the
// point-read templates.
#include <algorithm>

#include "bench.h"
#include "common/random.h"
#include "executor/executor.h"
#include "frontend/parser.h"
#include "harness/workload.h"

namespace ges::perfbench {

const char* const kOpCategories[kNumOpCategories] = {
    "Expand", "Filter", "Project", "IntersectExpand", "Sort", "Aggregate",
    "Other"};

const char* const kTemplates[kNumTemplates] = {
    "MATCH (p:PERSON) WHERE id(p) = $0 AND p.birthdayMonth > 0 "
    "RETURN p.firstName, p.lastName, p.gender, p.browserUsed, "
    "p.birthdayMonth, p.creationDate",
    "MATCH (p:PERSON)-[:KNOWS]->(f:PERSON) "
    "WHERE id(p) = $0 AND f.birthdayMonth > 0 "
    "RETURN f.id, f.firstName, f.lastName ORDER BY f.id ASC LIMIT 20",
    "MATCH (p:PERSON)<-[:HAS_CREATOR]-(m:POST) "
    "WHERE id(p) = $0 AND m.length > 10 "
    "RETURN m.id, m.length, m.browserUsed ORDER BY m.id DESC LIMIT 10",
    "MATCH (p:PERSON)-[:KNOWS]->(f:PERSON)-[:KNOWS]->(g:PERSON) "
    "WHERE id(p) = $0 RETURN g.id ORDER BY g.id ASC LIMIT 20",
};
const char* const kTemplateNames[kNumTemplates] = {
    "profile", "friends", "posts", "friends_of_friends"};

namespace {

// `tmpl` with $0 replaced by `person`.
std::string TemplateLiteral(const char* tmpl, int64_t person) {
  std::string text = tmpl;
  const size_t at = text.find("$0");
  return text.replace(at, 2, std::to_string(person));
}

int OpCategory(const std::string& op) {
  if (op == "Expand" || op == "ExpandFiltered") return 0;
  if (op == "Filter" || op == "ExpandInto") return 1;
  if (op == "GetProperty" || op == "Project") return 2;
  if (op == "IntersectExpand") return 3;
  if (op == "OrderBy" || op == "TopK") return 4;
  if (op == "Aggregate" || op == "AggProjectTop") return 5;
  return 6;  // seeks, scans, Limit, Distinct, procedures
}

void Profile(const Executor& exec, const Plan& plan, const GraphView& view,
             uint64_t request, SpanBuffer* spans, ExecutorProfile* out) {
  const int64_t t0 = NowNs();
  QueryResult r = exec.Run(plan, view);
  const uint32_t run = spans->Close(request, SpanBuffer::kRoot,
                                    exec.mode() == ExecMode::kFlat
                                        ? "executor.run.flat"
                                        : "executor.run",
                                    t0);
  ++out->replayed;
  for (const OpStats& os : r.stats.ops) {
    const int cat = OpCategory(os.op);
    out->op_ms[cat] += os.millis;
    out->rows_produced += static_cast<double>(os.rows);
    spans->Add(request, run, kOpCategories[cat], t0,
               static_cast<int64_t>(os.millis * 1e6));
  }
  out->rows_returned += static_cast<double>(r.table.NumRows());
  out->peak_intermediate_bytes =
      std::max(out->peak_intermediate_bytes, r.stats.peak_intermediate_bytes);
}

void Merge(const ExecutorProfile& p, ExecutorProfile* into) {
  into->replayed += p.replayed;
  for (int c = 0; c < kNumOpCategories; ++c) into->op_ms[c] += p.op_ms[c];
  into->peak_intermediate_bytes =
      std::max(into->peak_intermediate_bytes, p.peak_intermediate_bytes);
  into->rows_produced += p.rows_produced;
  into->rows_returned += p.rows_returned;
}

std::atomic<uint64_t> g_sink{0};

// ns per Graph::Neighbors call over `vertices` of every relation in `rels`.
double TimeNeighbors(const Graph& graph, const std::vector<RelationId>& rels,
                     const std::vector<VertexId>& vertices, const char* name,
                     SpanBuffer* spans) {
  constexpr int kPasses = 20;
  const Version version = graph.CurrentVersion();
  AdjScratch scratch;
  uint64_t sink = 0;
  uint64_t calls = 0;
  const int64_t t0 = NowNs();
  for (int pass = 0; pass < kPasses; ++pass) {
    const int64_t p0 = NowNs();
    for (RelationId rel : rels) {
      for (VertexId v : vertices) {
        AdjSpan span = graph.Neighbors(rel, v, version, &scratch);
        sink += span.size;
        if (span.size > 0) sink += span.ids[span.size - 1];
      }
    }
    spans->Close(pass, SpanBuffer::kRoot, name, p0);
    calls += rels.size() * vertices.size();
  }
  g_sink.fetch_add(sink, std::memory_order_relaxed);  // keeps the loop live
  return static_cast<double>(NowNs() - t0) / calls;
}

}  // namespace

void ProbeFrontend(const Graph& graph, size_t persons, uint64_t seed,
                   SpanBuffer* spans) {
  constexpr int kPerTemplate = 32;
  Rng rng(seed ^ 0xf0e1d2c3ull);
  uint64_t request = 0;
  for (const char* tmpl : kTemplates) {
    for (int i = 0; i < kPerTemplate; ++i) {
      const std::string text = TemplateLiteral(
          tmpl, static_cast<int64_t>(rng.Uniform(persons)));
      ++request;
      NormalizedQuery nq;
      int64_t t0 = NowNs();
      Status s = NormalizeQuery(text, &nq);
      spans->Close(request, SpanBuffer::kRoot, "frontend.normalize", t0);
      Plan tmpl;
      t0 = NowNs();
      if (s.ok()) s = CompileTemplate(nq.text, graph, nq.params, &tmpl);
      spans->Close(request, SpanBuffer::kRoot, "frontend.compile", t0);
      Plan bound;
      t0 = NowNs();
      if (s.ok()) s = BindPlanParams(tmpl, nq.params, &bound);
      spans->Close(request, SpanBuffer::kRoot, "frontend.bind", t0);
      if (!s.ok()) {
        std::fprintf(stderr, "perfbench: frontend probe: %s\n",
                     s.message().c_str());
      }
    }
  }
}

void ProbeExecutor(const Graph& graph, const LdbcContext& ctx,
                   const std::vector<Op>& sample, SpanBuffer* spans,
                   ExecutorProfile* fused, ExecutorProfile* fused_complex,
                   ExecutorProfile* flat_complex) {
  ExecOptions opts;
  opts.collect_stats = true;
  opts.intra_query_threads = 1;
  const Executor ges_f(ExecMode::kFactorizedFused, opts);
  const Executor ges_flat(ExecMode::kFlat, opts);
  const GraphView view(&graph);
  uint64_t request = 0;
  for (const Op& op : sample) {
    const Plan plan = ReadPlan(op, graph, ctx);
    ExecutorProfile one;
    Profile(ges_f, plan, view, ++request, spans, &one);
    Merge(one, fused);
    if (op.cls == OpClass::kComplex) {
      Merge(one, fused_complex);
      Profile(ges_flat, plan, view, ++request, spans, flat_complex);
    }
  }
}

void ProbeStorage(Graph* graph, const LdbcContext& ctx, const SnbData& data,
                  uint64_t seed, SpanBuffer* spans, Metrics* metrics) {
  constexpr size_t kSample = 2048;
  Rng rng(seed ^ 0x5eedull);
  std::vector<VertexId> sample;
  for (size_t i = 0; i < kSample; ++i) {
    sample.push_back(data.persons[rng.Uniform(data.persons.size())]);
  }
  const std::vector<RelationId> rels = {ctx.knows, ctx.person_posts};
  metrics->push_back({"storage.neighbors_base_ns",
                      TimeNeighbors(*graph, rels, sample,
                                    "storage.neighbors.base", spans),
                      "ns"});

  // Gather two person columns (an int and a dict-encoded string) over the
  // sample's friends.
  std::vector<VertexId> friends;
  {
    AdjScratch scratch;
    for (VertexId v : sample) {
      AdjSpan span =
          graph->Neighbors(ctx.knows, v, graph->CurrentVersion(), &scratch);
      for (uint32_t i = 0; i < span.size; ++i) {
        if (span.ids[i] != kInvalidVertex) friends.push_back(span.ids[i]);
      }
    }
  }
  uint64_t rows = 0;
  const int64_t g0 = NowNs();
  for (PropertyId prop : {ctx.p_creation, data.schema.first_name}) {
    for (int pass = 0; pass < 10; ++pass) {
      ValueVector out(graph->catalog().PropertyType(data.schema.person, prop));
      const int64_t t0 = NowNs();
      graph->GatherProperties(friends.data(), friends.size(), nullptr, prop,
                              graph->CurrentVersion(), &out);
      spans->Close(pass, SpanBuffer::kRoot, "storage.gather", t0);
      rows += friends.size();
    }
  }
  metrics->push_back({"storage.gather_ns_per_row",
                      rows == 0 ? 0.0
                                : static_cast<double>(NowNs() - g0) / rows,
                      "ns"});

  // The same vertices once the two relations are compacted segments.
  CompactionOptions force;
  force.force = true;
  force.only = rels;
  const int64_t c0 = NowNs();
  graph->CompactRelations(force);
  spans->Close(0, SpanBuffer::kRoot, "storage.compact", c0);
  metrics->push_back({"storage.neighbors_segment_ns",
                      TimeNeighbors(*graph, rels, sample,
                                    "storage.neighbors.segment", spans),
                      "ns"});
}

void ProbeUpdates(Graph* graph, const LdbcContext& ctx, const SnbData& data,
                  uint64_t seed, SpanBuffer* spans) {
  constexpr int kUpdates = 200;
  constexpr int kUpdatesPerGc = 50;
  // New entities take external ids far above any the server's update
  // stream handed out.
  SnbData fresh = data;
  constexpr int64_t kIdOffset = int64_t{1} << 32;
  fresh.next_person_ext += kIdOffset;
  fresh.next_post_ext += kIdOffset;
  fresh.next_comment_ext += kIdOffset;
  fresh.next_forum_ext += kIdOffset;
  ParamGen params(graph, &fresh, seed ^ 0x1a1a1aull);
  std::vector<MixEntry> mix;
  for (const MixEntry& e : DefaultMix()) {
    if (e.query.kind == ges::QueryKind::kIU) mix.push_back(e);
  }
  MixSampler updates(std::move(mix));
  Rng rng(seed ^ 0x2b2b2bull);
  for (int i = 0; i < kUpdates; ++i) {
    const QueryRef q = updates.Sample(rng);
    const int64_t t0 = NowNs();
    const Version v = RunIU(q.number, ctx, graph, &params, rng.Next());
    spans->Close(i, SpanBuffer::kRoot, "storage.iu", t0);
    if (v == 0) std::fprintf(stderr, "perfbench: in-process IU%d failed\n",
                             q.number);
    if ((i + 1) % kUpdatesPerGc == 0) {
      const int64_t g0 = NowNs();
      graph->PruneVersions();
      spans->Close(i, SpanBuffer::kRoot, "storage.gc", g0);
    }
  }
}

}  // namespace ges::perfbench

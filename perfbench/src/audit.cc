// Output audit: a seeded sample of the workload's reads, answered over the
// wire and by the reference kFlat engine in process at the same version.
#include "bench.h"
#include "common/random.h"
#include "executor/executor.h"
#include "frontend/parser.h"
#include "service/client.h"

namespace ges::perfbench {

namespace {

constexpr int kAuditReads = 48;

std::string Describe(const Op& op) {
  const std::string what =
      op.cls == OpClass::kPrepared
          ? std::string(kTemplateNames[op.number])
          : std::string(op.kind == service::QueryKind::kIC ? "IC" : "IS") +
                std::to_string(op.number);
  return what + "(person " + std::to_string(op.params.person) + ")";
}

std::vector<std::string> RunFlat(const Op& op, const Graph& graph,
                                 const LdbcContext& ctx, Version version) {
  return RenderRows(
      Executor(ExecMode::kFlat)
          .Run(ReadPlan(op, graph, ctx), GraphView(&graph, version))
          .table);
}

}  // namespace

std::vector<std::string> RenderRows(const FlatBlock& block) {
  std::vector<std::string> rows;
  rows.reserve(block.NumRows());
  for (const auto& row : block.rows()) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += '|';
    }
    rows.push_back(std::move(s));
  }
  return rows;
}

Plan ReadPlan(const Op& op, const Graph& graph, const LdbcContext& ctx) {
  if (op.cls == OpClass::kPrepared) {
    NormalizedQuery nq;
    Plan tmpl, bound;
    Status s = NormalizeQuery(kTemplates[op.number], &nq);
    if (s.ok()) s = CompileTemplate(nq.text, graph, nq.params, &tmpl);
    if (s.ok()) s = BindPlanParams(tmpl, {Value::Int(op.params.person)}, &bound);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: %s: %s\n", kTemplateNames[op.number],
                   s.message().c_str());
    }
    return bound;
  }
  return op.kind == service::QueryKind::kIC
             ? BuildIC(op.number, ctx, op.params)
             : BuildIS(op.number, ctx, op.params);
}

bool AuditReads(uint16_t port, const Fixture& fx,
                const std::vector<std::vector<Op>>& streams, uint64_t seed,
                std::vector<AuditItem>* items, Version* version,
                std::string* error) {
  std::vector<Op> sample;
  Rng rng(seed ^ 0xa0d17a0d17ull);
  while (static_cast<int>(sample.size()) < kAuditReads) {
    const std::vector<Op>& s = streams[rng.Uniform(streams.size())];
    const Op& op = s[rng.Uniform(s.size())];
    if (op.cls != OpClass::kUpdate) sample.push_back(op);
  }

  service::Client client;
  if (!client.Connect("127.0.0.1", port)) {
    *error = "audit connect: " + client.last_error();
    return false;
  }
  *version = client.snapshot();
  uint64_t handles[kNumTemplates] = {};
  for (int t = 0; t < kNumTemplates; ++t) {
    service::PrepareResult pr;
    if (!client.Prepare(kTemplates[t], &pr)) {
      *error = std::string("audit prepare ") + kTemplateNames[t] + ": " +
               client.last_error();
      return false;
    }
    handles[t] = pr.handle;
  }
  for (const Op& op : sample) {
    service::QueryResponse resp;
    bool answered;
    if (op.cls == OpClass::kPrepared) {
      answered = client.Execute(handles[op.number],
                                {Value::Int(op.params.person)}, &resp);
    } else {
      service::QueryRequest req;
      req.query_id = client.AllocQueryId();
      req.kind = op.kind;
      req.number = op.number;
      req.params = op.params;
      answered = client.Run(req, &resp);
    }
    if (!answered || resp.status != service::WireStatus::kOk) {
      *error = "audit " + Describe(op) + ": " +
               (answered ? service::WireStatusName(resp.status)
                         : client.last_error());
      return false;
    }
    if (resp.snapshot_version != *version) {
      *error = "audit " + Describe(op) + " ran at v" +
               std::to_string(resp.snapshot_version) + ", session pinned v" +
               std::to_string(*version);
      return false;
    }
    AuditItem item{op, RenderRows(resp.table)};
    const std::vector<std::string> expected =
        RunFlat(op, *fx.graph, fx.ctx, *version);
    if (item.rows != expected) {
      *error = "audit mismatch on " + Describe(op) + ": wire " +
               std::to_string(item.rows.size()) + " rows, kFlat " +
               std::to_string(expected.size()) + " rows";
      for (size_t i = 0; i < std::max(item.rows.size(), expected.size());
           ++i) {
        const std::string got = i < item.rows.size() ? item.rows[i] : "-";
        const std::string want = i < expected.size() ? expected[i] : "-";
        if (got != want) {
          *error += "; first difference at row " + std::to_string(i) +
                    ": wire [" + got + "] kFlat [" + want + "]";
          break;
        }
      }
      return false;
    }
    items->push_back(std::move(item));
  }
  return true;
}

bool ReplayAudit(const Graph& graph, const SnbData& data,
                 const std::vector<AuditItem>& items, std::string* error) {
  const LdbcContext ctx = LdbcContext::Resolve(graph, data.schema);
  for (const AuditItem& item : items) {
    if (RunFlat(item.op, graph, ctx, graph.CurrentVersion()) != item.rows) {
      *error = "recovered graph differs on " + Describe(item.op);
      return false;
    }
  }
  return true;
}

}  // namespace ges::perfbench

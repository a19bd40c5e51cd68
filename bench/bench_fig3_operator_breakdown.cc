// Figure 3: operator-level runtime breakdown of the long-running queries
// on the flat executor. The paper finds Expand dominating (~half of total
// runtime), with Select/Project also significant.
#include <cstdio>
#include <map>

#include "bench/bench_util.h"

using namespace ges;
using namespace ges::bench;

int main(int argc, char** argv) {
  std::printf("== Figure 3: operator-level analysis of long-running queries "
              "(flat GES baseline) ==\n");
  double sf = EnvDouble("GES_SF", 0.05);
  int params = EnvInt("GES_PARAMS", 20);
  BenchJsonReport json("fig3_operator_breakdown");
  json.AddScalar("sf", sf);
  json.AddScalar("params", params);
  auto g = MakeGraph(sf);
  GraphView view(&g->graph);
  Executor exec(ExecMode::kFlat);

  const int kLongRunning[] = {2, 5, 6, 9, 12};
  std::map<std::string, double> global;
  double global_total = 0;

  for (int k : kLongRunning) {
    ParamGen gen(&g->graph, &g->data, 300 + k);
    std::map<std::string, double> per_op;
    double total = 0;
    for (int i = 0; i < params; ++i) {
      LdbcParams p = gen.Next();
      QueryResult r = exec.Run(BuildIC(k, g->ctx, p), view);
      for (const OpStats& os : r.stats.ops) {
        // Map operator names onto the paper's categories.
        std::string name = os.op;
        if (name == "GetProperty" || name == "Project") name = "Project";
        if (name == "Filter" || name == "ExpandInto") name = "Select";
        if (name == "OrderBy" || name == "TopK") name = "Sort";
        if (name == "NodeByIdSeek" || name == "ScanByLabel") name = "Seek";
        per_op[name] += os.millis;
        global[name] += os.millis;
        total += os.millis;
        global_total += os.millis;
      }
    }
    std::printf("\nIC%d (total %s):\n", k, HumanMillis(total).c_str());
    TextTable table({"operator", "time", "share"});
    for (const auto& [name, ms] : per_op) {
      char pct[16];
      std::snprintf(pct, sizeof(pct), "%.1f%%", 100.0 * ms / total);
      table.AddRow({name, HumanMillis(ms), pct});
    }
    table.Print();
  }

  std::printf("\nAll long-running queries combined:\n");
  TextTable table({"operator", "time", "share"});
  for (const auto& [name, ms] : global) {
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%.1f%%", 100.0 * ms / global_total);
    json.AddSectionScalar("operator_millis", name, ms);
    table.AddRow({name, HumanMillis(ms), pct});
  }
  json.AddSectionScalar("operator_millis", "total", global_total);
  table.Print();
  std::printf("\nPaper shape check: Expand should account for roughly half "
              "of total runtime; Select and Project take most of the rest.\n");

  // Ablation: pointer-based join on vs. off. IC5 with the fused engine is
  // the telling case — its aggregation runs directly on the tree, so the
  // tree itself is the peak intermediate and the lazy (ptr,len) blocks cut
  // it dramatically.
  std::printf("\nAblation: pointer-based join on vs. off (GES_f*, IC5):\n");
  for (bool pointer_join : {false, true}) {
    ExecOptions opt;
    opt.pointer_join = pointer_join;
    Executor fact(ExecMode::kFactorizedFused, opt);
    ParamGen gen(&g->graph, &g->data, 555);
    double total = 0;
    size_t peak = 0;
    for (int i = 0; i < params; ++i) {
      LdbcParams p = gen.Next();
      QueryResult r = fact.Run(BuildIC(5, g->ctx, p), view);
      total += r.stats.total_millis;
      peak = std::max(peak, r.stats.peak_intermediate_bytes);
    }
    std::printf("  pointer_join=%s: total %s, peak intermediates %s\n",
                pointer_join ? "on " : "off", HumanMillis(total).c_str(),
                HumanBytes(peak).c_str());
    std::string section =
        pointer_join ? "pointer_join_on" : "pointer_join_off";
    json.AddSectionScalar(section, "total_millis", total);
    json.AddSectionScalar(section, "peak_intermediate_bytes",
                          static_cast<double>(peak));
  }

  MaybeWriteJson(argc, argv, json);
  return 0;
}

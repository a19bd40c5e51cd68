// Figure 11: average latency of each IC query with the flat (GES),
// factorized (GES_f), and fused (GES_f*) engines across graph scales.
//
// Paper shape: GES_f beats GES on every query (up to orders of magnitude on
// IC10/IC14-style traversals); GES_f* further cuts queries where de-factor
// costs dominate; gains grow with graph scale.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"

using namespace ges;
using namespace ges::bench;

int main(int argc, char** argv) {
  std::printf("== Figure 11: average query latency, GES vs GES_f vs GES_f* "
              "==\n");
  // 60 draws per query: at 15, run-to-run noise on a shared box hid a
  // 2x change in IC5.
  int params = EnvInt("GES_PARAMS", 60);
  BenchJsonReport json("fig11_latency_variants");
  json.AddScalar("params", params);
  for (double sf : EnvSfList()) {
    auto g = MakeGraph(sf);
    GraphView view(&g->graph);
    std::printf("\n--- %s ---\n", SfLabel(sf).c_str());
    TextTable table({"query", "GES", "GES_f", "GES_f*", "f speedup",
                     "f* speedup"});
    for (int k = 1; k <= 14; ++k) {
      double avg[3] = {0, 0, 0};
      int m = 0;
      for (ExecMode mode : VariantModes()) {
        Executor exec(mode, ExecOptions{.collect_stats = false});
        ParamGen gen(&g->graph, &g->data, 1100 + k);  // same params per mode
        LatencyRecorder rec;
        for (int i = 0; i < params; ++i) {
          LdbcParams p = gen.Next();
          Timer t;
          exec.Run(BuildIC(k, g->ctx, p), view);
          rec.Add(t.ElapsedMillis());
        }
        json.AddLatency(SfLabel(sf) + "/" + ExecModeName(mode),
                        "IC" + std::to_string(k), rec);
        avg[m++] = rec.Mean();
      }
      char s1[16], s2[16];
      std::snprintf(s1, sizeof(s1), "%.1fx", avg[0] / std::max(avg[1], 1e-9));
      std::snprintf(s2, sizeof(s2), "%.1fx", avg[0] / std::max(avg[2], 1e-9));
      table.AddRow({"IC" + std::to_string(k), HumanMillis(avg[0]),
                    HumanMillis(avg[1]), HumanMillis(avg[2]), s1, s2});
    }
    table.Print();
  }
  std::printf("\nPaper shape check: GES_f >= GES everywhere; largest gains "
              "on the long-running expansion-heavy queries; GES_f* adds "
              "large extra gains where aggregation/top-k previously forced "
              "full de-factoring (e.g. IC5).\n");
  MaybeWriteJson(argc, argv, json);
  return 0;
}

// Figure 21 (§6.4): effectiveness of round-robin drop — Occamy's cheap
// round-robin victim selection vs the longest-queue-drop variant.
//
// Paper expectation: nearly identical performance (avg QCT within ~15%,
// avg FCT within ~8.8%) — the simplification costs almost nothing, which is
// why the expensive Maximum Finder is unnecessary.
#include <cstdio>

#include "src/exp/platform_runs.h"
#include "src/util/table.h"

using namespace occamy;
using namespace occamy::exp;

int main() {
  Table qct_avg({"Query(%B)", "RR-drop", "Longest-drop", "diff"});
  Table qct_p99 = qct_avg;
  Table fct_avg = qct_avg;
  Table fct_small = qct_avg;

  for (int pct = 20; pct <= 100; pct += 20) {
    FabricRunSpec spec;
    spec.pattern = BgPattern::kWebSearch;
    spec.bg_load = 0.4;  // paper: 40% for this experiment
    spec.query_size_frac_of_buffer = pct / 100.0;

    spec.scheme = Scheme::kOccamy;
    const FabricRunResult rr = RunFabric(spec);
    spec.scheme = Scheme::kOccamyLongestDrop;
    const FabricRunResult lq = RunFabric(spec);

    const auto diff = [](double a, double b) {
      return Table::Fmt("%+.1f%%", b > 0 ? (a - b) / b * 100.0 : 0.0);
    };
    qct_avg.AddRow({Table::Fmt("%d", pct), Table::Fmt("%.1f", rr.qct_avg_slow),
                    Table::Fmt("%.1f", lq.qct_avg_slow),
                    diff(rr.qct_avg_slow, lq.qct_avg_slow)});
    qct_p99.AddRow({Table::Fmt("%d", pct), Table::Fmt("%.1f", rr.qct_p99_slow),
                    Table::Fmt("%.1f", lq.qct_p99_slow),
                    diff(rr.qct_p99_slow, lq.qct_p99_slow)});
    fct_avg.AddRow({Table::Fmt("%d", pct), Table::Fmt("%.1f", rr.fct_avg_slow),
                    Table::Fmt("%.1f", lq.fct_avg_slow),
                    diff(rr.fct_avg_slow, lq.fct_avg_slow)});
    fct_small.AddRow({Table::Fmt("%d", pct), Table::Fmt("%.1f", rr.fct_small_p99_slow),
                      Table::Fmt("%.1f", lq.fct_small_p99_slow),
                      diff(rr.fct_small_p99_slow, lq.fct_small_p99_slow)});
  }
  PrintHeader("Fig 21(a): query avg QCT slowdown");
  qct_avg.Print();
  PrintHeader("Fig 21(b): query p99 QCT slowdown");
  qct_p99.Print();
  PrintHeader("Fig 21(c): background avg FCT slowdown");
  fct_avg.Print();
  PrintHeader("Fig 21(d): small background p99 FCT slowdown");
  fct_small.Print();
  return 0;
}

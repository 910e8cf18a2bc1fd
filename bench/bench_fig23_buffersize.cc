// Figure 23 (§6.4): impact of the buffer size — sweeping the buffer density
// from 3.44KB/port/Gbps (Intel Tofino) to 9.6KB/port/Gbps (Broadcom
// Trident2); background 40%, query size 40% of the buffer partition.
//
// Paper expectation: Occamy helps across all buffer sizes (avg QCT ~36.7%
// better than DT at 3.44KB and ~40.3% at 9.6KB).
#include <cstdio>

#include "src/exp/platform_runs.h"
#include "src/util/table.h"

using namespace occamy;
using namespace occamy::exp;

int main() {
  const Scheme schemes[] = {Scheme::kOccamy, Scheme::kAbm, Scheme::kDt, Scheme::kPushout};
  const double densities[] = {3440, 5120, 7168, 9600};  // bytes/port/Gbps

  Table qct_avg({"Buf(KB/p/G)", "Occamy", "ABM", "DT", "Pushout"});
  Table qct_p99 = qct_avg;
  Table fct_avg = qct_avg;
  Table fct_small = qct_avg;

  for (double density : densities) {
    std::vector<std::string> r1 = {Table::Fmt("%.2f", density / 1000.0)};
    std::vector<std::string> r2 = r1, r3 = r1, r4 = r1;
    for (Scheme scheme : schemes) {
      FabricRunSpec spec;
      spec.scheme = scheme;
      spec.pattern = BgPattern::kWebSearch;
      spec.bg_load = 0.4;
      spec.query_size_frac_of_buffer = 0.4;
      spec.buffer_per_port_per_gbps = density;
      const FabricRunResult r = RunFabric(spec);
      r1.push_back(Table::Fmt("%.1f", r.qct_avg_slow));
      r2.push_back(Table::Fmt("%.1f", r.qct_p99_slow));
      r3.push_back(Table::Fmt("%.1f", r.fct_avg_slow));
      r4.push_back(Table::Fmt("%.1f", r.fct_small_p99_slow));
    }
    qct_avg.AddRow(r1);
    qct_p99.AddRow(r2);
    fct_avg.AddRow(r3);
    fct_small.AddRow(r4);
  }
  PrintHeader("Fig 23(a): query avg QCT slowdown vs buffer density");
  qct_avg.Print();
  PrintHeader("Fig 23(b): query p99 QCT slowdown vs buffer density");
  qct_p99.Print();
  PrintHeader("Fig 23(c): background avg FCT slowdown vs buffer density");
  fct_avg.Print();
  PrintHeader("Fig 23(d): small background p99 FCT slowdown vs buffer density");
  fct_small.Print();
  return 0;
}

// Figure 20 (§6.4): higher query load — avg QCT and background avg FCT
// slowdowns as the query load grows from 10% to 80% (query size 80% of the
// buffer partition, light 10% background).
//
// Paper expectation: Occamy improves avg QCT over DT by up to ~38% (ABM
// ~34%), most at low loads where DT's inefficiency dominates; the light
// background traffic is essentially unaffected by the BM choice.
#include <cstdio>

#include "src/exp/platform_runs.h"
#include "src/util/table.h"

using namespace occamy;
using namespace occamy::exp;

int main() {
  const Scheme schemes[] = {Scheme::kOccamy, Scheme::kAbm, Scheme::kDt, Scheme::kPushout};

  Table qct({"QueryLoad(%)", "Occamy", "ABM", "DT", "Pushout"});
  Table fct = qct;
  for (int load = 10; load <= 80; load += 10) {
    std::vector<std::string> r1 = {Table::Fmt("%d", load)};
    std::vector<std::string> r2 = r1;
    for (Scheme scheme : schemes) {
      FabricRunSpec spec;
      spec.scheme = scheme;
      spec.pattern = BgPattern::kWebSearch;
      spec.bg_load = 0.1;
      spec.query_size_frac_of_buffer = 0.8;
      spec.query_load = load / 100.0;
      const FabricRunResult r = RunFabric(spec);
      r1.push_back(Table::Fmt("%.1f", r.qct_avg_slow));
      r2.push_back(Table::Fmt("%.1f", r.fct_avg_slow));
    }
    qct.AddRow(r1);
    fct.AddRow(r2);
  }
  PrintHeader("Fig 20(a): query avg QCT slowdown vs query load");
  qct.Print();
  PrintHeader("Fig 20(b): overall background avg FCT slowdown vs query load");
  fct.Print();
  return 0;
}

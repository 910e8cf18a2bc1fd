// Extension bench (beyond the paper's figures): the full BM-scheme zoo on
// the two canonical stress tests.
//
//  (1) Burst absorption (the Fig. 12 lab): loss-free burst capacity of every
//      scheme — DT, EDT, TDT, ABM, complete sharing, QPO, Pushout, Occamy.
//  (2) The buffer-choking lab (Fig. 15 shape): QCT degradation factor.
//
// This places Occamy among both its contemporaries (ABM) and the
// related-work baselines implemented from §7: EDT (burst-state DT),
// TDT (traffic-aware DT), and QPO (quasi-pushout).
#include <cstdio>

#include "src/exp/platform_runs.h"
#include "src/util/table.h"

using namespace occamy;
using namespace occamy::exp;

int main() {
  const Scheme schemes[] = {Scheme::kDt,  Scheme::kEdt,     Scheme::kTdt,
                            Scheme::kAbm, Scheme::kCompleteSharing, Scheme::kQpo,
                            Scheme::kPushout, Scheme::kOccamy};

  PrintHeader("BM zoo (1): max loss-free burst (KB), 2MB buffer, alpha=default");
  Table burst({"Scheme", "MaxBurst(KB)", "loss@800KB"});
  for (Scheme scheme : schemes) {
    int64_t best = 0;
    for (int64_t kb = 100; kb <= 1900; kb += 100) {
      BurstLabSpec spec;
      spec.scheme = scheme;
      spec.alpha = DefaultAlpha(scheme);
      spec.burst_bytes = kb * 1000;
      if (RunBurstLab(spec).burst_drops == 0) {
        best = kb;
      } else {
        break;
      }
    }
    BurstLabSpec spec;
    spec.scheme = scheme;
    spec.alpha = DefaultAlpha(scheme);
    spec.burst_bytes = 800 * 1000;
    const auto at800 = RunBurstLab(spec);
    burst.AddRow({SchemeName(scheme), Table::Fmt("%lld", static_cast<long long>(best)),
                  Table::Fmt("%.3f", at800.BurstLossRate())});
  }
  burst.Print();

  PrintHeader("BM zoo (2): buffer-choking degradation (avg QCT w/ LP / w/o LP)");
  Table choke({"Scheme", "w/o LP (ms)", "w/ LP (ms)", "degradation"});
  for (Scheme scheme : schemes) {
    DpdkRunSpec base;
    base.scheme = scheme;
    base.queues_per_port = 8;
    base.scheduler = tm::SchedulerKind::kStrictPriority;
    base.alphas = {8.0, 1, 1, 1, 1, 1, 1, 1};
    base.query_bytes = 410 * 1000 * 3 / 2;
    base.min_queries = 20;

    DpdkRunSpec without = base;
    without.bg = DpdkRunSpec::Bg::kNone;
    const DpdkRunResult wo = RunDpdk(without);
    DpdkRunSpec with = base;
    with.bg = DpdkRunSpec::Bg::kSaturatingLp;
    with.bg_load = 1.0;
    const DpdkRunResult w = RunDpdk(with);
    choke.AddRow({SchemeName(scheme), Table::Fmt("%.2f", wo.qct_avg_ms),
                  Table::Fmt("%.2f", w.qct_avg_ms),
                  Table::Fmt("%.1fx", w.qct_avg_ms / wo.qct_avg_ms)});
  }
  choke.Print();
  std::printf("\nExpected ordering: preemptive schemes (Occamy, Pushout, QPO) shrug off\n"
              "choking; DT-family admission-only schemes (DT, EDT, TDT, ABM) can only\n"
              "limit how much the LP queues grab, not reclaim it.\n");
  return 0;
}

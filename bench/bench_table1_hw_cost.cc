// Table 1 (§5.1): hardware cost of Occamy's components.
//
// The paper synthesizes Verilog with Vivado (FPGA) and Design Compiler on
// FreePDK45 (ASIC). This bench prints our structural cost model next to the
// paper's reported numbers, plus the Maximum Finder comparison that explains
// why Pushout's selector was considered impractical (§2.2, Difficulty 3).
#include <cstdio>

#include "src/hw/circuits.h"
#include "src/hw/cost_model.h"
#include "src/util/table.h"

using namespace occamy;

int main() {
  PrintHeader("Table 1: hardware cost (model vs paper; 64 queues, 17-bit qlen)");
  Table table({"Module", "LUTs", "FFs", "Timing(ns)", "Area(mm2)", "Power(mW)", "Source"});
  const auto paper = hw::PaperTable1();
  const auto model = hw::OccamyTable1Costs(64, 17);
  for (size_t i = 0; i < model.size(); ++i) {
    table.AddRow({model[i].module, Table::Fmt("%ld", model[i].luts),
                  Table::Fmt("%ld", model[i].flip_flops),
                  Table::Fmt("%.2f", model[i].timing_ns),
                  Table::Fmt("%.2e", model[i].area_mm2),
                  Table::Fmt("%.3f", model[i].power_mw), "model"});
    table.AddRow({paper[i].module, Table::Fmt("%ld", paper[i].luts),
                  Table::Fmt("%ld", paper[i].flip_flops),
                  Table::Fmt("%.2f", paper[i].timing_ns),
                  Table::Fmt("%.2e", paper[i].area_mm2),
                  Table::Fmt("%.3f", paper[i].power_mw), "paper"});
  }
  table.Print();

  PrintHeader("Scaling: selector cost vs queue count");
  Table scaling({"Queues", "LUTs", "FFs", "Timing(ns)", "Area(mm2)", "Power(mW)"});
  for (int n : {32, 64, 128, 256, 512}) {
    const auto c = hw::SelectorCost(n, 17);
    scaling.AddRow({Table::Fmt("%d", n), Table::Fmt("%ld", c.luts),
                    Table::Fmt("%ld", c.flip_flops), Table::Fmt("%.2f", c.timing_ns),
                    Table::Fmt("%.2e", c.area_mm2), Table::Fmt("%.3f", c.power_mw)});
  }
  scaling.Print();

  PrintHeader("Why not Pushout: Maximum Finder vs Occamy's selector (§2.2)");
  Table mf({"Circuit", "LogicLevels", "Timing(ns)", "LUTs"});
  for (int n : {64, 128, 256}) {
    const hw::MaximumFinder finder(n, 17);
    const auto mf_cost = hw::MaximumFinderCost(n, 17);
    const auto sel_cost = hw::SelectorCost(n, 17);
    mf.AddRow({Table::Fmt("MaxFinder-%d", n), Table::Fmt("%d", finder.LogicLevels()),
               Table::Fmt("%.2f", mf_cost.timing_ns), Table::Fmt("%ld", mf_cost.luts)});
    const hw::ComparatorBank bank(n, 17);
    const hw::RoundRobinArbiterCircuit arb(n);
    mf.AddRow({Table::Fmt("Selector-%d", n),
               Table::Fmt("%d", bank.LogicLevels() + arb.LogicLevels()),
               Table::Fmt("%.2f", sel_cost.timing_ns), Table::Fmt("%ld", sel_cost.luts)});
  }
  mf.Print();

  PrintHeader("Head-drop executor pipeline (Figure 10)");
  Table pipe({"Packet(cells)", "Cycles", "Pipelined", "ns@1GHz"});
  const hw::HeadDropExecutorPipeline executor(4);
  for (int64_t cells : {1, 4, 8, 16, 48}) {
    pipe.AddRow({Table::Fmt("%ld", cells), Table::Fmt("%ld", executor.CyclesForPacket(cells)),
                 Table::Fmt("%ld", executor.PipelinedCyclesForPacket(cells)),
                 Table::Fmt("%ld", executor.PipelinedCyclesForPacket(cells))});
  }
  pipe.Print();
  std::printf("\nPaper reference: selector 1262 LUTs / 47 FFs / 1.49ns / 0.023mm2 / 0.895mW;\n"
              "expelling one packet every ~2 cycles at 1 GHz (§5.1).\n");
  return 0;
}

#include "src/exp/figures.h"

#include <map>

#include "src/util/table.h"

namespace occamy::exp {

namespace {

// Fig. 12 (§6.1): burst loss rate vs burst size on the P4 burst lab, for
// alpha in {1, 2, 4}, Occamy vs DT. The burst axis spans 100..1900 KB, so
// the last all-zero row of each table is the largest loss-free burst.
//
// Paper expectation: (1) with equal alpha Occamy absorbs larger bursts than
// DT (up to ~57% at alpha=4); (2) Occamy improves with larger alpha (higher
// buffer efficiency) while DT gets worse (smaller reserve it depends on).
// Paper: Occamy absorbs ~57% more than DT at alpha=4, and Occamy@alpha=4
// absorbs ~29% more than Occamy@alpha=1 while DT@alpha=4 absorbs ~12% less
// than DT@alpha=1.
SweepSpec MakeFig12() {
  SweepSpec spec;
  spec.scenarios = {"burst"};
  spec.bms = {"occamy", "dt"};
  spec.alphas = {1.0, 2.0, 4.0};
  for (int64_t kb = 100; kb <= 1900; kb += 100) spec.burst_bytes.push_back(kb * 1000);
  return spec;
}

// Fig. 13 (§6.2): QCT / background FCT vs query size (as a fraction of the
// 410KB DPDK-testbed buffer) under web-search background at 50% load.
//
// Paper expectation: Occamy cuts avg QCT by up to ~55% vs DT and ~42% vs
// ABM; avoids RTOs up to ~80% of the buffer size; background FCT is not
// hurt (small-flow p99 up to ~57% better than DT).
SweepSpec MakeFig13() {
  SweepSpec spec;
  spec.scenarios = {"burst_absorption"};
  spec.bms = {"occamy", "abm", "dt", "pushout"};
  const int64_t buffer = 410 * 1000;
  for (int pct = 20; pct <= 140; pct += 20) {
    spec.query_bytes.push_back(buffer * pct / 100);
  }
  return spec;
}

// Fig. 14 (§6.2): performance isolation — query traffic in one DRR queue,
// CUBIC web-search background in the other; avg/p99 QCT vs background load.
//
// Paper expectation: as background load grows, DT and ABM suffer RTOs (the
// buffer cannot be re-allocated fast enough even though the queues are
// separate), inflating p99 QCT; Occamy stays close to Pushout.
SweepSpec MakeFig14() {
  SweepSpec spec;
  spec.scenarios = {"isolation"};
  spec.bms = {"occamy", "abm", "dt", "pushout"};
  spec.bg_loads = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  return spec;
}

// Fig. 16 (§6.3): impact of the alpha parameter — p99 QCT of DT and Occamy
// for alpha in {0.5, 1, 2, 4, 8} (applied to both classes), on the Fig. 14
// DRR-scheduled query/background queues at 50% load, for queries of 100,
// 140 and 180% of the 410KB buffer.
//
// Paper expectation: DT is best at alpha in {1, 2} and degrades both below
// (inefficiency) and above (anomalous behaviour). Occamy monotonically
// improves with alpha, saturating around alpha=4..8 — hence the alpha=8
// recommendation.
SweepSpec MakeFig16() {
  SweepSpec spec;
  spec.scenarios = {"isolation"};
  spec.bms = {"dt", "occamy"};
  spec.alphas = {0.5, 1.0, 2.0, 4.0, 8.0};
  spec.bg_loads = {0.5};
  const int64_t buffer = 410 * 1000;
  for (int pct = 100; pct <= 180; pct += 40) {
    spec.query_bytes.push_back(buffer * pct / 100);
  }
  return spec;
}

// Fig. 18 (§6.4): QCT / FCT slowdowns vs (identical) background flow size
// under an all-to-all collective at 90% load on the leaf-spine fabric.
//
// Paper expectation: Occamy improves avg QCT over DT by up to ~33% and
// background p99 FCT by up to ~88%.
SweepSpec MakeFig18() {
  SweepSpec spec;
  spec.scenarios = {"alltoall"};
  spec.bms = {"occamy", "abm", "dt", "pushout"};
  spec.bg_loads = {0.9};
  spec.bg_flow_bytes = {16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024, 2048 * 1024};
  return spec;
}

// Fig. 19 (§6.4): all-reduce background traffic over the double binary
// tree (Sanders et al., the algorithm behind NCCL tree mode) — query avg QCT
// slowdown and background p99 FCT slowdown vs flow size, at 90% load.
//
// Paper expectation: Occamy improves avg QCT over DT by up to ~48% and
// background p99 FCT by up to ~73%.
SweepSpec MakeFig19() {
  SweepSpec spec = MakeFig18();
  spec.scenarios = {"allreduce"};
  return spec;
}

// Ordered distinct values of one key field, in first-seen order.
using FieldValues = std::vector<std::string>;

void AddValue(FieldValues& values, const std::string& v) {
  for (const auto& seen : values) {
    if (seen == v) return;
  }
  values.push_back(v);
}

}  // namespace

const std::vector<FigureDef>& Figures() {
  static const std::vector<FigureDef> kFigures = {
      {"fig12",
       "burst absorption: loss rate vs burst size (P4 lab)",
       &MakeFig12,
       {{"Fig 12: burst loss rate", "burst_loss_rate", "burst_bytes", "bm", "%.3f"}}},
      {"fig13",
       "burst absorption: QCT/FCT vs query size (DPDK testbed)",
       &MakeFig13,
       {{"Fig 13(a): query avg QCT (ms)", "qct_avg_ms", "query_bytes", "bm", "%.2f"},
        {"Fig 13(b): query p99 QCT (ms)", "qct_p99_ms", "query_bytes", "bm", "%.2f"},
        {"Fig 13(c): overall background avg FCT (ms)", "fct_avg_ms", "query_bytes", "bm",
         "%.2f"},
        {"Fig 13(d): small background flows (<100KB) p99 FCT (ms)", "fct_small_p99_ms",
         "query_bytes", "bm", "%.2f"}}},
      {"fig14",
       "isolation: QCT vs background load, separate DRR queues (DPDK testbed)",
       &MakeFig14,
       {{"Fig 14(a): avg QCT (ms) vs background load", "qct_avg_ms", "bg_load", "bm",
         "%.2f"},
        {"Fig 14(b): p99 QCT (ms) vs background load", "qct_p99_ms", "bg_load", "bm",
         "%.2f"}}},
      {"fig16",
       "alpha impact: DT vs Occamy p99 QCT vs alpha (DPDK testbed)",
       &MakeFig16,
       {{"Fig 16: p99 QCT (ms) vs alpha", "qct_p99_ms", "query_bytes", "alpha", "%.1f"}}},
      {"fig18",
       "all-to-all collectives: slowdowns vs flow size (fabric)",
       &MakeFig18,
       {{"Fig 18(a): query avg QCT slowdown (all-to-all background)", "qct_avg_slowdown",
         "bg_flow_bytes", "bm", "%.1f"},
        {"Fig 18(b): background p99 FCT slowdown (all-to-all)", "fct_p99_slowdown",
         "bg_flow_bytes", "bm", "%.1f"}}},
      {"fig19",
       "all-reduce collectives: slowdowns vs flow size (fabric)",
       &MakeFig19,
       {{"Fig 19(a): query avg QCT slowdown (all-reduce background)", "qct_avg_slowdown",
         "bg_flow_bytes", "bm", "%.1f"},
        {"Fig 19(b): background p99 FCT slowdown (all-reduce)", "fct_p99_slowdown",
         "bg_flow_bytes", "bm", "%.1f"}}},
  };
  return kFigures;
}

const FigureDef* FigureByName(const std::string& name) {
  for (const auto& f : Figures()) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

std::vector<std::string> FigureNames() {
  std::vector<std::string> names;
  for (const auto& f : Figures()) names.emplace_back(f.name);
  return names;
}

std::optional<std::string> RenderFigureTables(const FigureDef& figure,
                                              const std::vector<SweepPoint>& points,
                                              const std::vector<CellSummary>& cells,
                                              std::string& out) {
  const std::string fig = figure.name;
  // Key fields (seed excluded) in key order, each with its values in
  // expansion order.
  std::vector<std::pair<std::string, FieldValues>> fields;
  for (const auto& p : points) {
    for (const auto& [k, v] : p.key_fields) {
      if (k == "seed") continue;
      auto it = fields.begin();
      while (it != fields.end() && it->first != k) ++it;
      if (it == fields.end()) it = fields.insert(it, {k, {}});
      AddValue(it->second, v);
    }
  }
  const auto values_of = [&fields](const std::string& k) -> const FieldValues* {
    for (const auto& [name, values] : fields) {
      if (name == k) return &values;
    }
    return nullptr;
  };

  std::map<std::string, const CellSummary*> by_key;
  for (const auto& cell : cells) by_key[cell.cell_key] = &cell;

  for (const FigureTable& table : figure.tables) {
    const FieldValues* rows = values_of(table.row);
    const FieldValues* cols = values_of(table.col);
    if (rows == nullptr || cols == nullptr) {
      return fig + ": table '" + table.title + "': " +
             (rows == nullptr ? table.row : table.col) + " is not a key field of the grid";
    }
    // Every other field that varies splits the table; the split tuples are
    // enumerated in expansion order, as the points carry them.
    std::vector<std::string> split_fields;
    for (const auto& [name, values] : fields) {
      if (name != table.row && name != table.col && values.size() > 1) {
        split_fields.push_back(name);
      }
    }
    // (split label, row, col) -> cell key, from the points themselves.
    FieldValues splits;
    std::map<std::string, std::string> slot_cell;
    for (const auto& p : points) {
      std::string split, row, col;
      for (const auto& [k, v] : p.key_fields) {
        if (k == table.row) row = v;
        if (k == table.col) col = v;
        for (const auto& s : split_fields) {
          if (k == s) split += (split.empty() ? "" : ", ") + k + "=" + v;
        }
      }
      AddValue(splits, split);
      slot_cell[split + '\n' + row + '\n' + col] = p.cell_key;
    }

    for (const auto& split : splits) {
      std::vector<std::string> headers = {table.row};
      headers.insert(headers.end(), cols->begin(), cols->end());
      Table text(std::move(headers));
      for (const auto& row : *rows) {
        std::vector<std::string> line = {row};
        for (const auto& col : *cols) {
          const std::string where = (split.empty() ? "" : split + ", ") + "row " +
                                    table.row + "=" + row + ", column " + table.col +
                                    "=" + col;
          const auto slot = slot_cell.find(split + '\n' + row + '\n' + col);
          const auto cell = slot == slot_cell.end() ? by_key.end() : by_key.find(slot->second);
          if (cell == by_key.end()) return fig + ": no result at " + where;
          if (cell->second->failed > 0 || cell->second->runs == 0) {
            return fig + ": " + std::to_string(cell->second->failed) +
                   " failed run(s) at " + where;
          }
          const stats::Summary* summary = nullptr;
          for (const auto& [name, s] : cell->second->metrics) {
            if (name == table.metric) summary = &s;
          }
          if (summary == nullptr || summary->Empty()) {
            return fig + ": no " + table.metric + " at " + where;
          }
          line.push_back(Table::Fmt(table.format, summary->Mean()));
        }
        text.AddRow(std::move(line));
      }
      out += TableHeader(split.empty() ? table.title
                                       : std::string(table.title) + " [" + split + "]");
      out += text.Render();
    }
  }
  return std::nullopt;
}

}  // namespace occamy::exp

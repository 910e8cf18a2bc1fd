// Registry of the paper's figures: each maps onto one SweepSpec grid plus
// the tables that print it. `occamy_sim figure --name=fig13` runs the grid
// through the sweep engine, writes runs.jsonl + summary.csv, and prints the
// figure's tables from the per-cell means (one seed by default; --seeds=N
// averages N).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/exp/sinks.h"
#include "src/exp/sweep.h"

namespace occamy::exp {

// One printed table: the per-cell mean of `metric`, one row per value of
// key field `row` and one column per value of key field `col`. Any other
// key field that varies across the grid splits the table into one table
// per value.
struct FigureTable {
  const char* title;   // e.g. "Fig 13(a): query avg QCT (ms)"
  const char* metric;  // numeric run metric, e.g. "qct_avg_ms"
  const char* row;     // key field naming the rows, e.g. "query_bytes"
  const char* col;     // key field naming the columns, e.g. "bm"
  const char* format;  // printf format of one cell (a double), e.g. "%.2f"
};

struct FigureDef {
  const char* name;   // CLI name, e.g. "fig12"
  const char* title;  // human-readable description
  // Builds the figure's full grid at default scale with one seed; callers
  // may override scale/seeds/duration before running.
  SweepSpec (*make)();
  std::vector<FigureTable> tables;
};

const std::vector<FigureDef>& Figures();
const FigureDef* FigureByName(const std::string& name);
std::vector<std::string> FigureNames();

// Renders `figure`'s tables into `out`. `points` is the expanded grid in
// expansion order, which fixes the order of rows, columns and split
// tables; `cells` is exp::Aggregate over its records. Returns an error
// naming the figure, row and column of the first cell that is missing,
// failed, or lacks the metric, or naming a row/column field that is not a
// key field of the grid.
std::optional<std::string> RenderFigureTables(const FigureDef& figure,
                                              const std::vector<SweepPoint>& points,
                                              const std::vector<CellSummary>& cells,
                                              std::string& out);

}  // namespace occamy::exp

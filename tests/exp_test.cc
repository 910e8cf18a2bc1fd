// Tests for the experiment-orchestration subsystem (src/exp): grid
// expansion and keys, CSV aggregation, the figure registry, knob
// validation, and the determinism contract — the same sweep run twice, and
// at jobs=1 vs jobs=4, must produce byte-identical sorted JSONL.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>
#include <string>
#include <vector>

#include "src/exp/figures.h"
#include "src/exp/platform_runs.h"
#include "src/exp/sinks.h"
#include "src/exp/sweep_runner.h"

namespace occamy::exp {
namespace {

SweepSpec SmallRealSpec() {
  // Two scenarios (P4 burst lab + DPDK star incast) x two schemes x two
  // seeds, at smoke scale with a short traffic window: real simulations,
  // small enough for a unit test.
  SweepSpec spec;
  spec.scenarios = {"burst", "incast"};
  spec.bms = {"dt", "occamy"};
  spec.seeds = 2;
  spec.scale = exp::BenchScale::kSmoke;
  spec.duration_ms = 8;  // incast queries start at t=5ms, so keep a tail
  return spec;
}

// Removes the wall-clock perf fields, whose values legitimately differ from
// run to run; every other byte of the JSONL must be identical. The fields
// are never first in a record (run_key is), so each is preceded by a comma.
std::string StripPerfFields(std::string jsonl) {
  for (const std::string key :
       {"\"wall_ms\":", "\"events_per_sec\":", "\"parallel_efficiency\":"}) {
    size_t pos = 0;
    while ((pos = jsonl.find(key, pos)) != std::string::npos) {
      const size_t value_end = jsonl.find_first_of(",}", pos + key.size());
      jsonl.erase(pos - 1, value_end - (pos - 1));
    }
  }
  return jsonl;
}

std::string RunToJsonl(const SweepSpec& spec, int jobs) {
  std::vector<SweepPoint> points;
  const auto err = ExpandSweep(spec, points);
  EXPECT_FALSE(err.has_value()) << *err;
  SweepRunOptions options;
  options.jobs = jobs;
  const std::vector<RunRecord> records = RunSweep(points, options);
  for (const auto& rec : records) {
    EXPECT_TRUE(rec.ok) << rec.point.run_key << ": " << rec.error;
  }
  std::ostringstream out;
  WriteJsonl(records, out);
  return out.str();
}

TEST(SweepExpand, CartesianProductWithStableKeys) {
  SweepSpec spec;
  spec.scenarios = {"incast", "burst_absorption"};
  spec.bms = {"dt", "occamy"};
  spec.alphas = {1.0, 2.0};
  spec.seeds = 2;

  EXPECT_EQ(GridSize(spec), 16u);
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(spec, points).has_value());
  ASSERT_EQ(points.size(), 16u);

  std::set<std::string> run_keys, cell_keys;
  for (const auto& p : points) {
    run_keys.insert(p.run_key);
    cell_keys.insert(p.cell_key);
    EXPECT_EQ(p.run_key, p.cell_key + "|seed=" + std::to_string(p.spec.seed));
  }
  EXPECT_EQ(run_keys.size(), 16u) << "run keys must be unique";
  EXPECT_EQ(cell_keys.size(), 8u) << "cells collapse the seed dimension";

  // Expansion order is scenario-major, seed-minor.
  EXPECT_EQ(points[0].run_key, "scenario=incast|bm=dt|alpha=1|seed=1");
  EXPECT_EQ(points[1].run_key, "scenario=incast|bm=dt|alpha=1|seed=2");
  EXPECT_EQ(points[2].run_key, "scenario=incast|bm=dt|alpha=2|seed=1");
  EXPECT_EQ(points.back().run_key,
            "scenario=burst_absorption|bm=occamy|alpha=2|seed=2");
}

TEST(SweepExpand, InactiveKnobsAddNoKeyFields) {
  SweepSpec spec;
  spec.scenarios = {"incast"};
  spec.bms = {"dt"};
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(spec, points).has_value());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].run_key, "scenario=incast|bm=dt|seed=1");
  EXPECT_EQ(points[0].cell_key, "scenario=incast|bm=dt");
}

TEST(SweepExpand, RejectsUnknownNamesAndBadSeeds) {
  SweepSpec spec;
  spec.scenarios = {"no_such_scenario"};
  spec.bms = {"dt"};
  std::vector<SweepPoint> points;
  auto err = ExpandSweep(spec, points);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("no_such_scenario"), std::string::npos);

  spec.scenarios = {"incast"};
  spec.bms = {"no_such_scheme"};
  err = ExpandSweep(spec, points);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("no_such_scheme"), std::string::npos);

  spec.bms = {"dt"};
  spec.seeds = 0;
  EXPECT_TRUE(ExpandSweep(spec, points).has_value());
  EXPECT_EQ(GridSize(spec), 0u);
}

TEST(SweepExpand, RejectsKnobValuesThatCollideAfterFormatting) {
  // Keys render doubles at 6 significant digits; values differing only
  // beyond that must be rejected, not silently merged into one cell.
  SweepSpec spec;
  spec.scenarios = {"burst"};
  spec.bms = {"dt"};
  spec.alphas = {1.0000001, 1.0000002};
  std::vector<SweepPoint> points;
  const auto err = ExpandSweep(spec, points);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("duplicate run key"), std::string::npos) << *err;
}

TEST(RunPointTest, RejectsInapplicableKnobs) {
  PointSpec spec;
  spec.scenario = "websearch";  // fabric: query size derives from the buffer
  spec.bm = "dt";
  spec.query_bytes = 1000;
  const PointResult result = RunPoint(spec);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.error.find("query_bytes"), std::string::npos) << result.error;

  PointSpec burst;
  burst.scenario = "incast";
  burst.bm = "dt";
  burst.burst_bytes = 1000;
  const PointResult r2 = RunPoint(burst);
  ASSERT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("burst_bytes"), std::string::npos) << r2.error;
}

TEST(RunPointTest, RejectsZeroShards) {
  PointSpec spec;
  spec.shards = 0;
  const PointResult result = RunPoint(spec);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.error.find("want 1..64"), std::string::npos) << result.error;
}

TEST(AggregateTest, MeanAndP99AcrossSeeds) {
  // Three seeds of one cell plus one seed of another; synthetic metrics.
  std::vector<RunRecord> records;
  const double values[] = {1.0, 3.0, 2.0};
  for (int i = 0; i < 3; ++i) {
    RunRecord rec;
    rec.ok = true;
    rec.point.cell_key = "scenario=a|bm=dt";
    rec.point.run_key = "scenario=a|bm=dt|seed=" + std::to_string(i + 1);
    rec.point.key_fields = {{"scenario", "a"}, {"bm", "dt"},
                            {"seed", std::to_string(i + 1)}};
    rec.metrics.Set("seed", int64_t{i + 1});
    rec.metrics.Set("qct_ms", values[i]);
    rec.metrics.Set("scenario", "a");  // string metric: not aggregated
    rec.metrics.Set("bm", 7.0);  // numeric echo of a key field: not aggregated
    records.push_back(rec);
  }
  RunRecord other;
  other.ok = false;
  other.error = "boom";
  other.point.cell_key = "scenario=b|bm=dt";
  other.point.run_key = "scenario=b|bm=dt|seed=1";
  other.point.key_fields = {{"scenario", "b"}, {"bm", "dt"}, {"seed", "1"}};
  records.push_back(other);

  const std::vector<CellSummary> cells = Aggregate(records);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].cell_key, "scenario=a|bm=dt");
  EXPECT_EQ(cells[0].runs, 3);
  EXPECT_EQ(cells[0].failed, 0);
  ASSERT_EQ(cells[0].metrics.size(), 1u) << "seed and string metrics excluded";
  EXPECT_EQ(cells[0].metrics[0].first, "qct_ms");
  EXPECT_DOUBLE_EQ(cells[0].metrics[0].second.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(cells[0].metrics[0].second.P99(), 3.0);
  EXPECT_EQ(cells[1].runs, 0);
  EXPECT_EQ(cells[1].failed, 1);

  std::ostringstream csv;
  WriteSummaryCsv(cells, csv);
  const std::string text = csv.str();
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "scenario,bm,runs,failed,qct_ms_mean,qct_ms_p99");
  EXPECT_NE(text.find("a,dt,3,0,2,3"), std::string::npos) << text;
  EXPECT_NE(text.find("b,dt,0,1,,"), std::string::npos) << text;
}

TEST(FigureRegistry, KnownFiguresExpand) {
  EXPECT_EQ(FigureByName("fig99"), nullptr);
  EXPECT_EQ(FigureNames().size(), Figures().size());
  for (const FigureDef& figure : Figures()) {
    SCOPED_TRACE(figure.name);
    EXPECT_EQ(FigureByName(figure.name), &figure);
    std::vector<SweepPoint> points;
    const auto err = ExpandSweep(figure.make(), points);
    ASSERT_FALSE(err.has_value()) << *err;
    ASSERT_FALSE(points.empty());
    ASSERT_FALSE(figure.tables.empty());
    std::set<std::string> key_fields;
    for (const auto& p : points) {
      for (const auto& [k, v] : p.key_fields) key_fields.insert(k);
    }
    for (const FigureTable& table : figure.tables) {
      EXPECT_EQ(key_fields.count(table.row), 1u) << table.title << " row " << table.row;
      EXPECT_EQ(key_fields.count(table.col), 1u) << table.title << " col " << table.col;
    }
  }

  // Fig. 12 grid: 2 schemes x 3 alphas x 19 burst sizes (100..1900 KB).
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(FigureByName("fig12")->make(), points).has_value());
  EXPECT_EQ(points.size(), 114u);

  // Fig. 13: 4 schemes x 7 query sizes; Fig. 18: 4 schemes x 5 flow sizes.
  ASSERT_FALSE(ExpandSweep(FigureByName("fig13")->make(), points).has_value());
  EXPECT_EQ(points.size(), 28u);
  ASSERT_FALSE(ExpandSweep(FigureByName("fig18")->make(), points).has_value());
  EXPECT_EQ(points.size(), 20u);
}

// Synthetic records for a 2 schemes x 2 alphas x 2 query sizes x 2 seeds
// grid; qct_ms = query_kb + alpha + seed, so each cell's mean is
// query_kb + alpha + 1.5.
std::vector<RunRecord> SyntheticFigureRecords(const std::vector<SweepPoint>& points) {
  std::vector<RunRecord> records;
  for (const auto& p : points) {
    RunRecord rec;
    rec.point = p;
    rec.ok = true;
    rec.metrics.Set("seed", static_cast<int64_t>(p.spec.seed));
    rec.metrics.Set("qct_ms", static_cast<double>(p.spec.query_bytes) / 1000 +
                                  p.spec.alphas.front() +
                                  static_cast<double>(p.spec.seed));
    records.push_back(rec);
  }
  return records;
}

TEST(FigureRender, CellsAreSeedMeansAndGapsNameTheCell) {
  SweepSpec spec;
  spec.scenarios = {"incast"};
  spec.bms = {"dt", "occamy"};
  spec.alphas = {1.0, 2.0};
  spec.query_bytes = {10000, 20000};
  spec.seeds = 2;
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(spec, points).has_value());
  ASSERT_EQ(points.size(), 16u);
  const FigureDef figure{
      "figT", "synthetic", nullptr, {{"QCT", "qct_ms", "query_bytes", "bm", "%.2f"}}};

  std::vector<RunRecord> records = SyntheticFigureRecords(points);
  std::string out;
  auto err = RenderFigureTables(figure, points, Aggregate(records), out);
  ASSERT_FALSE(err.has_value()) << *err;
  // alpha varies and is neither row nor column: one table per alpha.
  EXPECT_EQ(out,
            "\n=== QCT [alpha=1] ===\n"
            "query_bytes  dt     occamy  \n"
            "----------------------------\n"
            "10000        12.50  12.50   \n"
            "20000        22.50  22.50   \n"
            "\n=== QCT [alpha=2] ===\n"
            "query_bytes  dt     occamy  \n"
            "----------------------------\n"
            "10000        13.50  13.50   \n"
            "20000        23.50  23.50   \n");

  // A failed seed fails its cell; the error names figure, row and column.
  const std::string gap = "scenario=incast|bm=occamy|alpha=2|query_bytes=20000";
  for (auto& rec : records) {
    if (rec.point.cell_key == gap && rec.point.spec.seed == 2) rec.ok = false;
  }
  out.clear();
  err = RenderFigureTables(figure, points, Aggregate(records), out);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("figT"), std::string::npos) << *err;
  EXPECT_NE(err->find("alpha=2"), std::string::npos) << *err;
  EXPECT_NE(err->find("row query_bytes=20000"), std::string::npos) << *err;
  EXPECT_NE(err->find("column bm=occamy"), std::string::npos) << *err;
  EXPECT_NE(err->find("failed"), std::string::npos) << *err;

  // A cell with no records at all is missing, with the same coordinates.
  std::vector<RunRecord> kept;
  for (const auto& rec : records) {
    if (rec.point.cell_key != gap) kept.push_back(rec);
  }
  err = RenderFigureTables(figure, points, Aggregate(kept), out);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("figT: no result at alpha=2, row query_bytes=20000, column bm=occamy"),
            std::string::npos)
      << *err;

  // A row or column field that is not a key field of the grid is an error.
  const FigureDef bad{"figB", "bad", nullptr, {{"T", "qct_ms", "bg_load", "bm", "%.2f"}}};
  err = RenderFigureTables(bad, points, Aggregate(SyntheticFigureRecords(points)), out);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("bg_load is not a key field"), std::string::npos) << *err;
}

// A sweep's single alpha applies to every traffic class: on the two-class
// isolation star it must match RunDpdk with that alpha on both classes.
TEST(SweepAlphas, OneAlphaAppliesToEveryClass) {
  SweepSpec spec;
  spec.scenarios = {"isolation"};
  spec.bms = {"dt"};
  spec.alphas = {4.0};
  spec.bg_loads = {0.5};
  spec.query_bytes = {410 * 1000};
  spec.scale = BenchScale::kSmoke;
  spec.duration_ms = 5;
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(spec, points).has_value());
  ASSERT_EQ(points.size(), 1u);
  const PointResult point = RunPoint(points[0].spec);
  ASSERT_TRUE(point.ok) << point.error;

  DpdkRunSpec run;
  run.scheme = Scheme::kDt;
  run.alphas = {4.0, 4.0};
  run.queues_per_port = 2;
  run.scheduler = tm::SchedulerKind::kDrr;
  run.bg = DpdkRunSpec::Bg::kWebSearchCubic;
  run.bg_load = 0.5;
  run.bg_tc = 1;
  run.query_tc = 0;
  run.query_bytes = 410 * 1000;
  run.scale = BenchScale::kSmoke;
  run.duration = run.max_duration = Milliseconds(5);
  run.min_queries = 0;
  const DpdkRunResult direct = RunDpdk(run);
  const Metrics& m = point.metrics;
  EXPECT_EQ(m.Number("qct_avg_ms"), direct.qct_avg_ms);
  EXPECT_EQ(m.Number("qct_p99_ms"), direct.qct_p99_ms);
  EXPECT_EQ(m.Number("fct_avg_ms"), direct.fct_avg_ms);
  EXPECT_EQ(m.Number("drops"), static_cast<double>(direct.drops));
  EXPECT_EQ(m.Number("sim_events"), static_cast<double>(direct.sim_events));
  EXPECT_EQ(m.Number("delivered_bytes"), static_cast<double>(direct.delivered_bytes));

  // One alpha per class is accepted too; any other length is rejected.
  PointSpec two = points[0].spec;
  two.alphas = {4.0, 4.0};
  EXPECT_TRUE(RunPoint(two).ok);
  PointSpec three = points[0].spec;
  three.alphas = {4.0, 4.0, 4.0};
  const PointResult rejected = RunPoint(three);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("3 alphas"), std::string::npos) << rejected.error;
}

TEST(SweepDeterminism, RepeatedRunsAndJobCountsAreByteIdentical) {
  const SweepSpec spec = SmallRealSpec();
  const std::string raw = RunToJsonl(spec, 1);
  ASSERT_FALSE(raw.empty());
  // Schema v3 carries per-run perf telemetry; only the wall-clock-derived
  // fields may differ between runs (sim_events is deterministic and stays).
  EXPECT_NE(raw.find("\"wall_ms\":"), std::string::npos);
  EXPECT_NE(raw.find("\"events_per_sec\":"), std::string::npos);
  EXPECT_NE(raw.find("\"sim_events\":"), std::string::npos);
  const std::string first = StripPerfFields(raw);
  EXPECT_EQ(first, StripPerfFields(RunToJsonl(spec, 1)))
      << "same spec+seed must reproduce exactly";
  EXPECT_EQ(first, StripPerfFields(RunToJsonl(spec, 4)))
      << "job count must not affect results";

  // Sanity: the JSONL is sorted by run key and every line is a JSON object.
  std::istringstream lines(first);
  std::string line, prev_key;
  size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    ASSERT_EQ(line.front(), '{');
    ASSERT_EQ(line.back(), '}');
    const auto key_pos = line.find("\"run_key\":\"");
    ASSERT_NE(key_pos, std::string::npos);
    const auto start = key_pos + 11;
    const std::string key = line.substr(start, line.find('"', start) - start);
    EXPECT_LT(prev_key, key) << "lines must be sorted by run_key";
    prev_key = key;
  }
  EXPECT_EQ(n, 8u);
}

TEST(SweepDeterminism, AggregationMatchesAcrossJobCounts) {
  const SweepSpec spec = SmallRealSpec();
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(spec, points).has_value());

  SweepRunOptions one, four;
  one.jobs = 1;
  four.jobs = 4;
  std::ostringstream csv1, csv4;
  WriteSummaryCsv(Aggregate(RunSweep(points, one)), csv1);
  WriteSummaryCsv(Aggregate(RunSweep(points, four)), csv4);
  EXPECT_EQ(csv1.str(), csv4.str());
  EXPECT_FALSE(csv1.str().empty());
}

TEST(SweepJobsCap, JobsTimesShardsFitsHardware) {
  // No shards: only the [1, 64] clamp applies.
  EXPECT_EQ(EffectiveSweepJobs(8, 0, 4), 8);
  EXPECT_EQ(EffectiveSweepJobs(200, 0, 4), 64);
  // Sharded runs: jobs x shards <= hardware_concurrency.
  EXPECT_EQ(EffectiveSweepJobs(8, 4, 16), 4);
  EXPECT_EQ(EffectiveSweepJobs(8, 4, 8), 2);
  EXPECT_EQ(EffectiveSweepJobs(8, 4, 4), 1);
  EXPECT_EQ(EffectiveSweepJobs(8, 4, 2), 1);   // never below 1
  EXPECT_EQ(EffectiveSweepJobs(8, 4, 0), 8);   // unknown hardware: no cap
  EXPECT_EQ(EffectiveSweepJobs(8, 1, 2), 8);   // single-shard runs uncapped
}

TEST(SweepJobsCap, RunSweepWarnsWhenCapping) {
  SweepSpec spec;
  spec.scenarios = {"websearch"};
  spec.bms = {"dt"};
  spec.scale = exp::BenchScale::kSmoke;
  spec.duration_ms = 1;
  spec.shards = 4;
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(spec, points).has_value());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].spec.shards, 4);  // fabric point inherits the knob

  SweepRunOptions options;
  options.jobs = 64;  // always above hw / 4, so the cap must fire
  std::vector<std::string> warnings;
  options.warn = [&](const std::string& w) { warnings.push_back(w); };
  const auto records = RunSweep(points, options);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].ok) << records[0].error;
  const auto* shards = records[0].metrics.Find("shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->i, 4);
  if (std::thread::hardware_concurrency() > 0 &&
      std::thread::hardware_concurrency() < 64 * 4) {
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("capping --jobs"), std::string::npos) << warnings[0];
  }
}

// Every platform has a sharded engine (node-affinity on the fabric,
// intra-switch partition sharding on star/p4), so the execution knob
// applies to the whole grid.
TEST(SweepExpand, ShardsKnobAppliesToEveryPlatform) {
  SweepSpec spec;
  spec.scenarios = {"incast", "websearch", "burst"};
  spec.bms = {"dt"};
  spec.shards = 2;
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(spec, points).has_value());
  ASSERT_EQ(points.size(), 3u);
  for (const auto& p : points) {
    EXPECT_EQ(p.spec.shards, 2) << p.run_key;
  }
}

}  // namespace
}  // namespace occamy::exp

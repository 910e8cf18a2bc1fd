// Single-point experiment execution: runs one (scenario, scheme, seed,
// knobs) combination and returns a typed metric dictionary.
//
// This is the layer underneath both the occamy_sim CLI (single runs) and
// the sweep engine (src/exp/sweep_runner.h): every knob is explicit in the
// PointSpec, so points are safe to execute concurrently from many threads —
// nothing here writes process-global state such as environment variables.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/exp/metrics.h"
#include "src/exp/scenarios.h"

namespace occamy::exp {

// ---------------- registries ----------------

struct ScenarioInfo {
  const char* name;
  // "p4" (§6.1 burst lab), "star" (§6.2 DPDK testbed) or "fabric" (§6.4).
  const char* platform;
  const char* description;
};

const std::vector<ScenarioInfo>& Scenarios();
const ScenarioInfo* ScenarioByName(const std::string& name);
std::vector<std::string> ScenarioNames();

std::optional<Scheme> SchemeByName(const std::string& name);
std::vector<std::string> SchemeNames();

std::optional<BenchScale> ScaleByName(const std::string& name);
const char* ScaleName(BenchScale scale);

// ---------------- point execution ----------------

struct PointSpec {
  std::string scenario = "incast";
  std::string bm = "occamy";
  uint64_t seed = 1;
  // nullopt = fall back to OCCAMY_BENCH_SCALE (read once, at run start).
  std::optional<BenchScale> scale;
  double duration_ms = 0;      // 0 = scenario default
  // Per-class alpha override: empty = scheme default, one value = that
  // alpha for every class, else exactly one per class (checked by RunPoint).
  std::vector<double> alphas;

  // Sweepable knobs; 0 = scenario default. Each knob only applies to some
  // platforms (validated in RunPoint, see KnobError):
  double bg_load = 0;        // star + fabric: background load fraction
  int64_t query_bytes = 0;   // star: incast query size
  int64_t buffer_bytes = 0;  // p4 + star: shared-buffer size
  int64_t bg_flow_bytes = 0; // fabric alltoall/allreduce: fixed flow size
  int64_t burst_bytes = 0;   // p4 burst lab: measured burst size

  // Fault injection (all platforms). `faults` is a full src/fault schedule
  // string; `loss_rate` is the sweepable shorthand for i.i.d. loss — when
  // > 0 it appends `loss:rate=<v>` to the schedule. Both are validated in
  // RunPoint (parse errors surface as PointResult.error, not a crash).
  std::string faults;
  double loss_rate = 0;  // 0 = none; must be < 1

  // Engine shards, 1..64: node-affinity sharding on the fabric, intra-
  // switch partition sharding on the star/p4 testbeds. Results are
  // byte-identical for any value (the determinism contract of
  // sim::ShardedSimulator), so this is an execution knob, not a sweep
  // dimension.
  int shards = 1;
  // Windows per plan barrier. 0 = adaptive, 1 = the
  // legacy one-window-per-drain schedule, N = fixed batch of N windows
  // (<= sim::ShardedSimulator::kMaxWindowBatch, validated in RunPoint).
  // Metrics are byte-identical at every setting — like shards, an
  // execution knob, not a sweep dimension.
  int window_batch = 0;
};

struct PointResult {
  bool ok = false;
  std::string error;  // set when !ok
  Metrics metrics;    // set when ok
  // Delivered application bytes bucketed by completion millisecond (star
  // and fabric platforms; empty on the p4 burst lab, which has no
  // completion records). Exact integers, byte-identical for any shard
  // count; the --degradation report derives time-to-recovery from it
  // (src/fault/recovery.h).
  std::vector<int64_t> delivered_by_ms;
};

// Runs one point. Returns !ok with a descriptive error for unknown
// scenario/scheme names or knobs that do not apply to the platform.
PointResult RunPoint(const PointSpec& spec);

}  // namespace occamy::exp

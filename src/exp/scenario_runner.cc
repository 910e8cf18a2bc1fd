#include "src/exp/scenario_runner.h"

#include <chrono>
#include <cstdio>

#include "src/exp/platform_runs.h"
#include "src/fault/fault_plan.h"

namespace occamy::exp {

namespace {

using PerfClock = std::chrono::steady_clock;

struct SchemeEntry {
  const char* name;
  Scheme scheme;
};

constexpr SchemeEntry kSchemes[] = {
    {"dt", Scheme::kDt},
    {"abm", Scheme::kAbm},
    {"pushout", Scheme::kPushout},
    {"occamy", Scheme::kOccamy},
    {"occamy_lqd", Scheme::kOccamyLongestDrop},
    {"cs", Scheme::kCompleteSharing},
    {"edt", Scheme::kEdt},
    {"tdt", Scheme::kTdt},
    {"qpo", Scheme::kQpo},
};

const std::vector<ScenarioInfo>& ScenarioTable() {
  static const std::vector<ScenarioInfo> kTable = {
      {"burst", "p4", "open-loop overload + measured burst into one shared buffer (Fig. 12)"},
      {"incast", "star", "incast queries only, no background (§6.2)"},
      {"burst_absorption", "star", "incast + DCTCP web-search background (Fig. 13)"},
      {"isolation", "star", "incast vs CUBIC background in separate DRR queues (Fig. 14)"},
      {"choking", "star", "HP incast vs saturating LP background, strict priority (Fig. 15)"},
      {"websearch", "fabric", "leaf-spine, web-search background + incast queries (§6.4)"},
      {"alltoall", "fabric", "leaf-spine, all-to-all collective background (Fig. 18)"},
      {"allreduce", "fabric", "leaf-spine, all-reduce collective background (Fig. 19)"},
  };
  return kTable;
}

// Delivered application bytes over the whole simulated window (traffic +
// drain): flows completing in the drain tail are counted in the numerator,
// so the denominator must include the tail too or goodput can exceed line
// rate.
double GoodputGbps(int64_t delivered_bytes, double duration_ms, double drain_ms) {
  const double total_ms = duration_ms + drain_ms;
  if (total_ms <= 0) return 0.0;
  return static_cast<double>(delivered_bytes) * 8.0 / (total_ms * 1e6);
}

// Error for a knob that was set but has no effect on this scenario; silent
// acceptance would make sweep grids lie about what they varied.
std::string KnobError(const char* knob, const ScenarioInfo& entry) {
  return std::string(knob) + " does not apply to scenario '" + entry.name +
         "' (platform " + entry.platform + ")";
}

// A per-class alpha override must be one alpha (broadcast to every traffic
// class, see ApplyScheme) or exactly one alpha per class; "" when it is.
std::string AlphasError(const std::vector<double>& alphas, int classes,
                        const ScenarioInfo& entry) {
  if (alphas.size() <= 1 || alphas.size() == static_cast<size_t>(classes)) return "";
  return std::to_string(alphas.size()) + " alphas for scenario '" + entry.name +
         "', which has " + std::to_string(classes) +
         " traffic class(es): give one alpha or one per class";
}

// The effective fault schedule of a point: the explicit `faults` string
// plus the `loss_rate` shorthand appended as an i.i.d. loss fault. Empty =
// healthy run.
std::string ComposeFaults(const PointSpec& spec) {
  std::string f = spec.faults;
  if (spec.loss_rate > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "loss:rate=%.17g", spec.loss_rate);
    if (!f.empty()) f += ';';
    f += buf;
  }
  return f;
}

void AddCommonFields(Metrics& m, const ScenarioInfo& entry, const PointSpec& spec,
                     BenchScale scale, const std::string& faults) {
  // Schema v8: the self-healing fault model adds four counters on every
  // platform (reroutes, flushed_bytes_restart, burst_loss_packets,
  // cp_stalled_steps — see AddObsFields). v7 added the base fault-injection
  // counters (faults_injected, packets_lost_injected, packets_corrupted,
  // blackhole_drops, link_down_drops) plus the `faults` schedule /
  // `loss_rate` knob when set. v6 added the counter-registry fields
  // (per-queue queueing-delay percentiles, per-queue drop and mailbox
  // counters). v5 added the `shards` engine field on every platform plus
  // parallel_efficiency on sharded runs.
  m.Set("schema_version", int64_t{8});
  m.Set("scenario", entry.name);
  m.Set("platform", entry.platform);
  m.Set("bm", spec.bm);
  m.Set("scale", ScaleName(scale));
  m.Set("seed", spec.seed);
  if (!faults.empty()) m.Set("faults", faults);
  if (spec.loss_rate > 0) m.Set("loss_rate", spec.loss_rate);
}

// Schema v4/v5: how many engine shards ran the point, the wall-clock-
// derived worker utilization (volatile like wall_ms; the CSV summary
// excludes it) and the adaptive window planner's telemetry. The window fields are deterministic for a given
// --window-batch setting but differ across settings, so — like shards —
// they are excluded from the golden/differential fingerprint
// (tests/differential.h VolatileMetricKeys), which is what lets every
// batch setting map onto the same golden file.
void AddEngineFields(Metrics& m, const RunStats& r, int window_batch) {
  m.Set("shards", int64_t{r.shards});
  m.Set("parallel_efficiency", r.parallel_efficiency);
  m.Set("window_batch", int64_t{window_batch});
  m.Set("windows_run", r.windows_run);
  m.Set("windows_executed", r.windows_executed);
  m.Set("max_window_batch", r.max_window_batch);
}

// Perf telemetry appended to every point (schema v3): the deterministic
// simulator event count, plus wall-clock-derived throughput. wall_ms and
// events_per_sec vary run to run and machine to machine — the JSONL sink
// carries them per run, but the CSV summary excludes them (see sinks.cc) so
// sweep output stays byte-reproducible.
void AddPerfFields(Metrics& m, const RunStats& r, PerfClock::time_point start) {
  const double wall_ms =
      std::chrono::duration<double, std::milli>(PerfClock::now() - start).count();
  m.Set("sim_events", r.sim_events);
  m.Set("wall_ms", wall_ms);
  m.Set("events_per_sec", wall_ms > 0 ? static_cast<double>(r.sim_events) / wall_ms * 1e3
                                      : 0.0);
}

// Schema v6 counter-registry fields: per-queue queueing-delay percentiles
// (from the PdQueue enqueue timestamps, simulated time, reported in ns),
// worst-single-queue drop/delay counters, and the sharded engine's
// cross-shard mailbox traffic. Every value is an exact integer produced by
// commutative folds (obs::BufferObs / obs::CounterRegistry), so it is
// byte-identical for any shard count >= 1 — the fields participate in the
// golden and differential fingerprints.
void AddObsFields(Metrics& m, const RunStats& r) {
  obs::CounterRegistry reg;
  reg.Add("mailbox_staged_events", static_cast<int64_t>(r.mailbox_staged));
  reg.Add("mailbox_drained_events", static_cast<int64_t>(r.mailbox_drained));
  // Schema v7 fault counters: exact integers from the injector's per-shard
  // slots, byte-identical for any shard count — always present (0 when the
  // run is healthy) so the fingerprint shape does not depend on the plan.
  reg.Add("faults_injected", r.faults.faults_injected);
  reg.Add("packets_lost_injected", r.faults.packets_lost);
  reg.Add("packets_corrupted", r.faults.packets_corrupted);
  reg.Add("blackhole_drops", r.faults.blackhole_drops);
  reg.Add("link_down_drops", r.faults.link_down_drops);
  // Schema v8 self-healing counters, same contract (always present).
  reg.Add("reroutes", r.faults.reroutes);
  reg.Add("flushed_bytes_restart", r.faults.flushed_bytes_restart);
  reg.Add("burst_loss_packets", r.faults.burst_loss_packets);
  reg.Add("cp_stalled_steps", r.faults.cp_stalled_steps);
  reg.Add("queue_delay_samples", static_cast<int64_t>(r.obs.all_delays.count()));
  reg.Add("queues_with_drops", static_cast<int64_t>(r.obs.queues_with_drops));
  reg.SetMax("queue_drops_max", static_cast<int64_t>(r.obs.queue_drops_max));
  reg.SetMax("queue_delay_p50_ns", r.obs.all_delays.Quantile(0.5) / kNanosecond);
  reg.SetMax("queue_delay_p99_ns", r.obs.all_delays.Quantile(0.99) / kNanosecond);
  reg.SetMax("queue_delay_max_ns", r.obs.all_delays.max() / kNanosecond);
  reg.SetMax("worst_queue_delay_p99_ns", r.obs.worst_queue_p99_ps / kNanosecond);
  // The registry keeps entries name-sorted, so emission order (and thus the
  // JSON text) is deterministic no matter how the fields above are added.
  for (const auto& e : reg.entries()) m.Set(e.name, e.value);
}

void AddOccupancy(Metrics& m, int64_t buffer_bytes, int64_t peak_bytes) {
  m.Set("buffer_bytes", buffer_bytes);
  m.Set("peak_occupancy_bytes", peak_bytes);
  m.Set("peak_occupancy_frac",
        buffer_bytes > 0
            ? static_cast<double>(peak_bytes) / static_cast<double>(buffer_bytes)
            : 0.0);
}

PointResult RunBurst(const ScenarioInfo& entry, Scheme scheme, const PointSpec& spec,
                     BenchScale scale, const std::string& faults) {
  PointResult result;
  if (spec.bg_load != 0) {
    result.error = KnobError("bg_load", entry);
    return result;
  }
  if (spec.query_bytes != 0) {
    result.error = KnobError("query_bytes", entry);
    return result;
  }
  if (spec.bg_flow_bytes != 0) {
    result.error = KnobError("bg_flow_bytes", entry);
    return result;
  }
  result.error = AlphasError(spec.alphas, 1, entry);
  if (!result.error.empty()) return result;

  BurstLabSpec run;
  run.scheme = scheme;
  if (!spec.alphas.empty()) run.alpha = spec.alphas.front();
  if (spec.burst_bytes > 0) run.burst_bytes = spec.burst_bytes;
  if (spec.buffer_bytes > 0) run.buffer_bytes = spec.buffer_bytes;
  if (spec.duration_ms > 0) run.horizon = FromSeconds(spec.duration_ms / 1000.0);
  run.seed = spec.seed;
  run.shards = spec.shards;
  run.window_batch = spec.window_batch;
  run.faults = faults;

  const PerfClock::time_point start = PerfClock::now();
  const BurstLabResult r = RunBurstLab(run);

  Metrics& m = result.metrics;
  AddCommonFields(m, entry, spec, scale, faults);
  m.Set("alpha", run.alpha);
  m.Set("burst_bytes", run.burst_bytes);
  m.Set("horizon_ms", ToMilliseconds(run.horizon));
  m.Set("burst_packets", r.burst_packets);
  m.Set("burst_drops", r.burst_drops);
  m.Set("burst_loss_rate", r.BurstLossRate());
  m.Set("long_lived_drops", r.long_lived_drops);
  m.Set("expelled", r.expelled);
  m.Set("buffer_bytes", run.buffer_bytes);
  AddObsFields(m, r);
  AddPerfFields(m, r, start);
  AddEngineFields(m, r, spec.window_batch);
  result.ok = true;
  return result;
}

PointResult RunStar(const ScenarioInfo& entry, Scheme scheme, const PointSpec& spec,
                    BenchScale scale, const std::string& faults) {
  PointResult result;
  if (spec.bg_flow_bytes != 0) {
    result.error = KnobError("bg_flow_bytes", entry);
    return result;
  }
  if (spec.burst_bytes != 0) {
    result.error = KnobError("burst_bytes", entry);
    return result;
  }

  DpdkRunSpec run;
  run.scheme = scheme;
  run.alphas = spec.alphas;
  run.seed = spec.seed;
  run.scale = scale;
  run.shards = spec.shards;
  run.window_batch = spec.window_batch;
  run.faults = faults;
  if (spec.buffer_bytes > 0) run.buffer_bytes = spec.buffer_bytes;

  const std::string name = entry.name;
  if (name == "incast") {
    if (spec.bg_load != 0) {
      result.error = KnobError("bg_load", entry);
      return result;
    }
    run.bg = DpdkRunSpec::Bg::kNone;
  } else if (name == "burst_absorption") {
    run.bg = DpdkRunSpec::Bg::kWebSearchDctcp;
    run.bg_load = 0.5;
  } else if (name == "isolation") {
    // Fig. 14: queries and CUBIC background in separate DRR queues.
    run.queues_per_port = 2;
    run.scheduler = tm::SchedulerKind::kDrr;
    run.bg = DpdkRunSpec::Bg::kWebSearchCubic;
    run.bg_load = 0.4;
    run.bg_tc = 1;
    run.query_tc = 0;
    run.query_bytes = run.buffer_bytes * 6 / 10;
  } else {  // choking (Fig. 15)
    run.queues_per_port = 8;
    run.scheduler = tm::SchedulerKind::kStrictPriority;
    if (run.alphas.empty()) run.alphas = {8.0, 1, 1, 1, 1, 1, 1, 1};
    run.bg = DpdkRunSpec::Bg::kSaturatingLp;
    run.bg_load = 1.0;
    run.query_tc = 0;
    run.query_bytes = run.buffer_bytes * 2;
  }
  result.error = AlphasError(run.alphas, run.queues_per_port, entry);
  if (!result.error.empty()) return result;
  if (spec.bg_load > 0) run.bg_load = spec.bg_load;
  if (spec.query_bytes > 0) run.query_bytes = spec.query_bytes;
  if (spec.duration_ms > 0) {
    run.duration = run.max_duration = FromSeconds(spec.duration_ms / 1000.0);
    run.min_queries = 0;
  }

  const PerfClock::time_point start = PerfClock::now();
  const DpdkRunResult r = RunDpdk(run);

  Metrics& m = result.metrics;
  AddCommonFields(m, entry, spec, scale, faults);
  m.Set("bg_load", run.bg == DpdkRunSpec::Bg::kNone ? 0.0 : run.bg_load);
  m.Set("query_bytes", run.query_bytes);
  m.Set("duration_ms", r.duration_ms);
  m.Set("drain_ms", r.drain_ms);
  m.Set("delivered_bytes", r.delivered_bytes);
  m.Set("goodput_gbps", GoodputGbps(r.delivered_bytes, r.duration_ms, r.drain_ms));
  m.Set("queries_completed", r.queries);
  m.Set("qct_avg_ms", r.qct_avg_ms);
  m.Set("qct_p99_ms", r.qct_p99_ms);
  m.Set("fct_avg_ms", r.fct_avg_ms);
  m.Set("fct_small_p99_ms", r.fct_small_p99_ms);
  m.Set("rtos", r.rtos);
  m.Set("drops", r.drops);
  m.Set("expelled", r.expelled);
  AddOccupancy(m, r.buffer_bytes, r.peak_occupancy_bytes);
  AddObsFields(m, r);
  AddPerfFields(m, r, start);
  AddEngineFields(m, r, spec.window_batch);
  result.delivered_by_ms = r.delivered_by_ms;
  result.ok = true;
  return result;
}

PointResult RunFabricScenario(const ScenarioInfo& entry, Scheme scheme,
                              const PointSpec& spec, BenchScale scale,
                              const std::string& faults) {
  PointResult result;
  if (spec.query_bytes != 0) {
    result.error = KnobError("query_bytes", entry);
    return result;
  }
  if (spec.buffer_bytes != 0) {
    result.error = KnobError("buffer_bytes", entry);
    return result;
  }
  if (spec.burst_bytes != 0) {
    result.error = KnobError("burst_bytes", entry);
    return result;
  }
  result.error = AlphasError(spec.alphas, 1, entry);
  if (!result.error.empty()) return result;

  FabricRunSpec run;
  run.scheme = scheme;
  run.alphas = spec.alphas;
  run.seed = spec.seed;
  run.scale = scale;
  run.shards = spec.shards;
  run.window_batch = spec.window_batch;
  run.faults = faults;

  const std::string name = entry.name;
  if (name == "alltoall") {
    run.pattern = BgPattern::kAllToAll;
    run.bg_load = 0.6;
    run.bg_fixed_size = 256 * 1024;  // midpoint of the Fig. 18 sweep
  } else if (name == "allreduce") {
    run.pattern = BgPattern::kAllReduce;
    run.bg_load = 0.6;
    run.bg_fixed_size = 256 * 1024;
  } else {  // websearch
    if (spec.bg_flow_bytes != 0) {
      result.error = KnobError("bg_flow_bytes", entry);
      return result;
    }
    run.pattern = BgPattern::kWebSearch;
    run.bg_load = 0.9;
  }
  if (spec.bg_load > 0) run.bg_load = spec.bg_load;
  if (spec.bg_flow_bytes > 0) run.bg_fixed_size = spec.bg_flow_bytes;
  if (spec.duration_ms > 0) run.duration = FromSeconds(spec.duration_ms / 1000.0);

  const PerfClock::time_point start = PerfClock::now();
  const FabricRunResult r = RunFabric(run);

  Metrics& m = result.metrics;
  AddCommonFields(m, entry, spec, scale, faults);
  m.Set("bg_load", run.bg_load);
  if (run.pattern != BgPattern::kWebSearch) {
    m.Set("bg_flow_bytes", run.bg_fixed_size);
  }
  m.Set("duration_ms", r.duration_ms);
  m.Set("drain_ms", r.drain_ms);
  m.Set("delivered_bytes", r.delivered_bytes);
  m.Set("goodput_gbps", GoodputGbps(r.delivered_bytes, r.duration_ms, r.drain_ms));
  m.Set("queries_completed", r.queries_completed);
  m.Set("bg_flows_completed", r.bg_flows_completed);
  m.Set("qct_avg_ms", r.qct_avg_ms);
  m.Set("qct_p99_ms", r.qct_p99_ms);
  m.Set("qct_avg_slowdown", r.qct_avg_slow);
  m.Set("qct_p99_slowdown", r.qct_p99_slow);
  m.Set("fct_avg_slowdown", r.fct_avg_slow);
  m.Set("fct_p99_slowdown", r.fct_p99_slow);
  m.Set("fct_small_p99_slowdown", r.fct_small_p99_slow);
  m.Set("drops", r.drops);
  m.Set("expelled", r.expelled);
  AddOccupancy(m, r.buffer_bytes, r.peak_occupancy_bytes);
  AddObsFields(m, r);
  AddPerfFields(m, r, start);
  AddEngineFields(m, r, spec.window_batch);
  result.delivered_by_ms = r.delivered_by_ms;
  result.ok = true;
  return result;
}

}  // namespace

// ---------------- registries ----------------

const std::vector<ScenarioInfo>& Scenarios() { return ScenarioTable(); }

const ScenarioInfo* ScenarioByName(const std::string& name) {
  for (const auto& e : ScenarioTable()) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

std::vector<std::string> ScenarioNames() {
  std::vector<std::string> names;
  for (const auto& e : ScenarioTable()) names.emplace_back(e.name);
  return names;
}

std::optional<Scheme> SchemeByName(const std::string& name) {
  for (const auto& e : kSchemes) {
    if (name == e.name) return e.scheme;
  }
  return std::nullopt;
}

std::vector<std::string> SchemeNames() {
  std::vector<std::string> names;
  for (const auto& e : kSchemes) names.emplace_back(e.name);
  return names;
}

std::optional<BenchScale> ScaleByName(const std::string& name) {
  if (name == "smoke") return BenchScale::kSmoke;
  if (name == "default") return BenchScale::kDefault;
  if (name == "full") return BenchScale::kFull;
  return std::nullopt;
}

const char* ScaleName(BenchScale scale) {
  switch (scale) {
    case BenchScale::kSmoke: return "smoke";
    case BenchScale::kFull: return "full";
    case BenchScale::kDefault: break;
  }
  return "default";
}

// ---------------- point execution ----------------

PointResult RunPoint(const PointSpec& spec) {
  PointResult result;
  const auto scheme = SchemeByName(spec.bm);
  if (!scheme.has_value()) {
    result.error = "unknown BM scheme: " + spec.bm + " (see --list)";
    return result;
  }
  const ScenarioInfo* entry = ScenarioByName(spec.scenario);
  if (entry == nullptr) {
    result.error = "unknown scenario: " + spec.scenario + " (see --list)";
    return result;
  }
  if (spec.shards < 1 || spec.shards > 64) {
    result.error = "shards out of range (want 1..64): " + std::to_string(spec.shards);
    return result;
  }
  if (spec.window_batch < 0 ||
      spec.window_batch > sim::ShardedSimulator::kMaxWindowBatch) {
    result.error =
        "window_batch out of range (want 0..." +
        std::to_string(sim::ShardedSimulator::kMaxWindowBatch) +
        ", 0 = auto): " + std::to_string(spec.window_batch);
    return result;
  }
  if (spec.loss_rate < 0 || spec.loss_rate >= 1) {
    result.error = "loss_rate out of range (want 0 <= rate < 1): " +
                   std::to_string(spec.loss_rate);
    return result;
  }
  const std::string faults = ComposeFaults(spec);
  if (!faults.empty()) {
    fault::FaultPlan plan;
    if (auto err = fault::ParseFaultPlan(faults, &plan)) {
      result.error = *err;
      return result;
    }
  }
  const BenchScale scale = spec.scale.value_or(GetBenchScale());
  const std::string platform = entry->platform;
  if (platform == "p4") return RunBurst(*entry, *scheme, spec, scale, faults);
  if (platform == "star") return RunStar(*entry, *scheme, spec, scale, faults);
  return RunFabricScenario(*entry, *scheme, spec, scale, faults);
}

}  // namespace occamy::exp

// Shared harness for the parallel-engine determinism + speedup gate
// benches (bench_fabric_parallel, bench_star_parallel).
//
// Each bench runs its scenario three ways — one shard at the adaptive
// window schedule (the timed serial leg and the oracle), kGateShards shards
// at the adaptive schedule (the timed parallel leg), and kGateShards shards
// at batch=1 (the untimed windows_run reference) — hard-fails on any
// deterministic-metric mismatch (the engines' contract), on a vacuous run,
// and unless adaptive batching strictly reduces barrier rounds, reports the
// wall-clock speedup, and optionally gates it against a per-core floor
// (enforced only when the machine has >= kGateShards hardware threads).
// Both timed legs use the same window schedule, so the speedup measures
// sharding alone. The bench supplies the scenario-specific parts: how to
// run one configuration, how to compare the fields its result adds to
// exp::RunStats, and which of its counters are completed transfers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "src/exp/platform_runs.h"
#include "src/util/table.h"

namespace occamy::bench {

inline constexpr int kGateShards = 4;
inline constexpr int kGateRounds = 2;  // best-of-N wall times to ride out machine noise
inline constexpr int kAdaptiveBatch = 0;

// Strict double parse for gate flags: the whole token must be a finite,
// non-negative number. std::atof silently returns 0 on garbage, which
// would turn a typo'd gate into "report only" (cert-err34-c).
inline bool ParseGateDouble(const char* text, double& out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0) return false;
  out = v;
  return true;
}

// Parses the one gate flag, --min-speedup-per-core=X: the required speedup
// is X times min(cores, kGateShards), so one flag scales across runner
// shapes (0.5 demands 2x on a 4-core runner); 0, the default, only reports.
// Returns false on a bad value or any other argument.
inline bool ParseParallelGateArgs(int argc, char** argv, double& min_speedup_per_core,
                                  const char* bench_name) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--min-speedup-per-core=", 0) == 0) {
      if (!ParseGateDouble(arg.c_str() + 23, min_speedup_per_core)) {
        std::fprintf(stderr,
                     "bad --min-speedup-per-core (want a non-negative number)\n");
        return false;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--min-speedup-per-core=X]\n", bench_name);
      return false;
    }
  }
  return true;
}

// Records the first differing field in `diff`. Deterministic fields must
// match bit for bit, so doubles compare exactly and print round-trip exact.
inline void DiffField(std::string& diff, const char* name, double a, double b) {
  if (a == b || !diff.empty()) return;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s: %.17g vs %.17g", name, a, b);
  diff = buf;
}

// The deterministic fields every platform result shares.
inline void DiffRunStats(const exp::RunStats& a, const exp::RunStats& b, std::string& diff) {
  DiffField(diff, "sim_events", a.sim_events, b.sim_events);
  DiffField(diff, "mailbox_staged", a.mailbox_staged, b.mailbox_staged);
  DiffField(diff, "mailbox_drained", a.mailbox_drained, b.mailbox_drained);
  DiffField(diff, "drops", a.drops, b.drops);
  DiffField(diff, "expelled", a.expelled, b.expelled);
  DiffField(diff, "peak_occupancy_bytes", a.peak_occupancy_bytes, b.peak_occupancy_bytes);
  DiffField(diff, "delivered_bytes", a.delivered_bytes, b.delivered_bytes);
  if (a.delivered_by_ms != b.delivered_by_ms && diff.empty()) diff = "delivered_by_ms";
}

// The gate proper. `run(shards, window_batch)` executes one configuration
// and returns its result (an exp::RunStats); `diff_fields(a, b, diff)`
// compares the deterministic fields the result adds to RunStats via
// DiffField; `completed(result)` counts the run's completed transfers, and
// a run with none, or with no bytes delivered, is vacuous. Returns the
// process exit code.
template <typename Result, typename RunFn, typename DiffFn, typename CompletedFn>
int RunParallelGate(double min_speedup_per_core, RunFn&& run, DiffFn&& diff_fields,
                    CompletedFn&& completed) {
  using PerfClock = std::chrono::steady_clock;
  const auto elapsed_ms = [](PerfClock::time_point a, PerfClock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };

  double serial_ms = 1e300, parallel_ms = 1e300;
  Result serial{}, parallel{};
  double best_efficiency = 0;
  for (int r = 0; r < kGateRounds; ++r) {
    const PerfClock::time_point t0 = PerfClock::now();
    serial = run(1, kAdaptiveBatch);
    const PerfClock::time_point t1 = PerfClock::now();
    parallel = run(kGateShards, kAdaptiveBatch);
    const PerfClock::time_point t2 = PerfClock::now();
    serial_ms = std::min(serial_ms, elapsed_ms(t0, t1));
    if (elapsed_ms(t1, t2) < parallel_ms) {
      parallel_ms = elapsed_ms(t1, t2);
      best_efficiency = parallel.parallel_efficiency;
    }
  }
  // Untimed reference leg: the one-window-per-barrier schedule.
  const Result batch1 = run(kGateShards, 1);

  std::string diff;
  const auto identical = [&](const Result& a, const Result& b) {
    diff_fields(a, b, diff);
    DiffRunStats(a, b, diff);
    return diff.empty();
  };
  if (!identical(serial, parallel)) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: shards=1 vs shards=%d metrics differ (%s)\n",
                 kGateShards, diff.c_str());
    return 1;
  }
  if (!identical(serial, batch1)) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: window_batch=1 reference differs (%s)\n",
                 diff.c_str());
    return 1;
  }
  if (completed(serial) == 0 || serial.delivered_bytes == 0) {
    std::fprintf(stderr, "EMPTY RUN: %lld transfers completed, %lld bytes delivered\n",
                 static_cast<long long>(completed(serial)),
                 static_cast<long long>(serial.delivered_bytes));
    return 1;
  }
  // Fewer barrier rounds is the whole point of the adaptive schedule.
  const auto windows = static_cast<unsigned long long>(parallel.windows_run);
  const auto batch1_windows = static_cast<unsigned long long>(batch1.windows_run);
  if (windows >= batch1_windows) {
    std::fprintf(stderr,
                 "WINDOW BATCHING REGRESSION: %llu barrier rounds at "
                 "window_batch=auto vs %llu at batch=1 (want strictly fewer)\n",
                 windows, batch1_windows);
    return 1;
  }

  const double speedup = serial_ms / parallel_ms;
  const auto events = static_cast<double>(serial.sim_events);
  const unsigned cores = std::thread::hardware_concurrency();

  Table table({"Engine", "wall ms", "events/s", "speedup"});
  table.AddRow({"single shard", Table::Fmt("%.1f", serial_ms),
                Table::Fmt("%.3g", events / serial_ms * 1e3), "1.00x"});
  table.AddRow({Table::Fmt("%d shards", kGateShards), Table::Fmt("%.1f", parallel_ms),
                Table::Fmt("%.3g", events / parallel_ms * 1e3),
                Table::Fmt("%.2fx", speedup)});
  table.Print();
  std::printf("metrics bit-identical across engines; %.0f events; %u cores; "
              "parallel efficiency %.2f; %llu barrier rounds (batch=1: %llu)\n",
              events, cores, best_efficiency, windows, batch1_windows);

  const double required = min_speedup_per_core *
                          static_cast<double>(std::min<unsigned>(cores, kGateShards));
  if (required > 0 && cores >= static_cast<unsigned>(kGateShards) && speedup < required) {
    std::fprintf(stderr,
                 "PARALLEL SPEEDUP REGRESSION: %.2fx < required %.2fx "
                 "(%d shards on %u cores)\n",
                 speedup, required, kGateShards, cores);
    return 1;
  }
  return 0;
}

}  // namespace occamy::bench

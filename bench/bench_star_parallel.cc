// Perf + determinism gate for the intra-switch partition-parallel
// star engine.
//
// Runs a big multi-partition star (32 hosts, Tomahawk-style 8 ports per
// buffer partition -> 4 partitions = 4 lanes) under web-search background +
// incast queries at one shard and at four through the shared
// gate harness (bench/common/parallel_gate.h): bit-identical metrics are a
// hard requirement, and the wall-clock speedup is checked against
// --min-speedup-per-core. Unlike the fabric bench this exercises *lane*
// sharding: the switch node itself is split along its TmPartitions, with
// each partition plus the hosts on its ports pinned to one shard. The
// speedup only exceeds 1 on multi-core machines.
#include <string>

#include "bench/common/parallel_gate.h"
#include "src/exp/platform_runs.h"

namespace occamy::exp {
namespace {

DpdkRunSpec MakeSpec(int shards, int window_batch) {
  DpdkRunSpec run;
  run.scheme = Scheme::kOccamy;
  run.num_hosts = 32;
  run.ports_per_partition = 8;  // 4 partitions = 4 lanes to shard over
  // Per-partition buffer at the Tomahawk density: 5.12KB/port/Gbps x 8 x 10G.
  run.buffer_bytes = 410 * 1000;
  run.bg = DpdkRunSpec::Bg::kWebSearchDctcp;
  run.bg_load = 0.6;
  run.query_load = 0.02;
  run.duration = run.max_duration = Milliseconds(40);
  run.min_queries = 0;
  run.seed = 1;
  run.scale = BenchScale::kDefault;  // explicit: ignore OCCAMY_BENCH_SCALE
  run.shards = shards;
  run.window_batch = window_batch;
  return run;
}

// The deterministic fields a star result adds to RunStats.
void DiffStar(const DpdkRunResult& a, const DpdkRunResult& b, std::string& diff) {
  using bench::DiffField;
  DiffField(diff, "qct_avg_ms", a.qct_avg_ms, b.qct_avg_ms);
  DiffField(diff, "qct_p99_ms", a.qct_p99_ms, b.qct_p99_ms);
  DiffField(diff, "fct_avg_ms", a.fct_avg_ms, b.fct_avg_ms);
  DiffField(diff, "fct_small_p99_ms", a.fct_small_p99_ms, b.fct_small_p99_ms);
  DiffField(diff, "queries", a.queries, b.queries);
  DiffField(diff, "rtos", a.rtos, b.rtos);
}

}  // namespace
}  // namespace occamy::exp

int main(int argc, char** argv) {
  using namespace occamy::bench;
  using namespace occamy::exp;

  double min_speedup_per_core = 0;
  if (!ParseParallelGateArgs(argc, argv, min_speedup_per_core, "bench_star_parallel")) return 2;

  std::printf(
      "== Star intra-switch parallel engine: 32 hosts, 4 partitions, 40 ms, "
      "%d shards ==\n",
      kGateShards);

  return RunParallelGate<DpdkRunResult>(
      min_speedup_per_core,
      [](int shards, int window_batch) { return RunDpdk(MakeSpec(shards, window_batch)); },
      DiffStar, [](const DpdkRunResult& r) { return r.queries; });
}

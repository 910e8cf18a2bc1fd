// Perf + determinism gate for the partition-parallel fabric engine.
//
// Runs the alltoall fabric scenario at one shard and at four through the
// shared gate harness (bench/common/parallel_gate.h): bit-identical metrics
// are a hard requirement (the engine's contract; a mismatch is a hard
// failure, not a slow run), and the wall-clock speedup is checked against
// --min-speedup-per-core. The speedup only exceeds 1 on multi-core
// machines (CI's 4-core runners require >= 2x).
#include <string>

#include "bench/common/parallel_gate.h"
#include "src/exp/platform_runs.h"

namespace occamy::exp {
namespace {

FabricRunSpec MakeSpec(int shards, int window_batch) {
  FabricRunSpec run;
  run.scheme = Scheme::kOccamy;
  run.pattern = BgPattern::kAllToAll;
  run.bg_load = 0.6;
  run.bg_fixed_size = 256 * 1024;
  run.duration = Milliseconds(5);
  run.seed = 1;
  run.scale = BenchScale::kDefault;  // explicit: ignore OCCAMY_BENCH_SCALE
  run.shards = shards;
  run.window_batch = window_batch;
  return run;
}

// The deterministic fields a fabric result adds to RunStats.
void DiffFabric(const FabricRunResult& a, const FabricRunResult& b, std::string& diff) {
  using bench::DiffField;
  DiffField(diff, "qct_avg_ms", a.qct_avg_ms, b.qct_avg_ms);
  DiffField(diff, "qct_p99_ms", a.qct_p99_ms, b.qct_p99_ms);
  DiffField(diff, "fct_avg_slow", a.fct_avg_slow, b.fct_avg_slow);
  DiffField(diff, "fct_p99_slow", a.fct_p99_slow, b.fct_p99_slow);
  DiffField(diff, "queries_completed", a.queries_completed, b.queries_completed);
  DiffField(diff, "bg_flows_completed", a.bg_flows_completed, b.bg_flows_completed);
}

}  // namespace
}  // namespace occamy::exp

int main(int argc, char** argv) {
  using namespace occamy::bench;
  using namespace occamy::exp;

  double min_speedup_per_core = 0;
  if (!ParseParallelGateArgs(argc, argv, min_speedup_per_core, "bench_fabric_parallel")) return 2;

  std::printf("== Fabric parallel engine: alltoall, default scale, 5 ms, %d shards ==\n",
              kGateShards);

  return RunParallelGate<FabricRunResult>(
      min_speedup_per_core,
      [](int shards, int window_batch) { return RunFabric(MakeSpec(shards, window_batch)); },
      DiffFabric, [](const FabricRunResult& r) { return r.bg_flows_completed; });
}

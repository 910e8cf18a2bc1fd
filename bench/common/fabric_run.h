// Shared runner for the large-scale simulation experiments (§6.4):
// leaf-spine fabric + background traffic (web-search / all-to-all /
// all-reduce) + incast query traffic, reporting QCT/FCT slowdowns.
//
// Workload arrivals are pre-generated, every flow start is bound to its
// source host's shard, and QCT/FCT metrics are derived from completion
// records merged in canonical order. Results are byte-identical for any
// shard count (see src/sim/sharded_simulator.h).
#pragma once

#include <algorithm>
#include <memory>
#include <optional>

#include "bench/common/fault_setup.h"
#include "bench/common/scenarios.h"
#include "bench/common/sharded_run.h"
#include "src/obs/counters.h"
#include "src/workload/collective.h"
#include "src/workload/pregen.h"

namespace occamy::bench {

enum class BgPattern { kWebSearch, kAllToAll, kAllReduce };

struct FabricRunSpec {
  Scheme scheme = Scheme::kDt;
  std::vector<double> alphas;  // empty = scheme default

  BgPattern pattern = BgPattern::kWebSearch;
  double bg_load = 0.9;         // fraction of aggregate host bandwidth
  int64_t bg_fixed_size = 0;    // for all-to-all / all-reduce sweeps
  transport::CcAlgorithm bg_cc = transport::CcAlgorithm::kDctcp;

  double query_size_frac_of_buffer = 0.4;  // of one buffer partition
  double query_load = 0.02;                // fraction of aggregate bandwidth
  int fanin = 16;

  double buffer_per_port_per_gbps = 5120.0;
  Time duration = 0;  // 0 = scale default
  Time drain = Milliseconds(40);
  uint64_t seed = 1;
  // Fault schedule (src/fault grammar); empty = healthy fabric. Parsed and
  // validated upstream; armed before any workload starts.
  std::string faults;
  // Explicit scale so parallel runs in one process never race on the
  // OCCAMY_BENCH_SCALE environment variable; nullopt falls back to the env.
  std::optional<BenchScale> scale;

  // Engine shards (>= 1): node-affinity sharding. Byte-identical metrics
  // for any value.
  int shards = 1;
  // Run shards on worker threads (off = same windowed algorithm inline;
  // byte-identical either way — a determinism test knob).
  bool shard_threads = true;
  // Windows per plan barrier (0 = adaptive, see
  // sim::ShardedSimulator::Options::window_batch). Byte-identical metrics
  // at every setting.
  int window_batch = 0;
};

struct FabricRunResult {
  double qct_avg_ms = 0, qct_p99_ms = 0;
  double qct_avg_slow = 0, qct_p99_slow = 0;
  double fct_avg_slow = 0, fct_p99_slow = 0;
  double fct_small_p99_slow = 0;
  int64_t queries_completed = 0;
  int64_t bg_flows_completed = 0;
  int64_t drops = 0;
  int64_t expelled = 0;
  int64_t delivered_bytes = 0;  // application bytes of completed transfers
  // Delivered bytes bucketed by the completing transfer's end time in
  // simulated milliseconds (exact integers; feeds the --degradation
  // time-to-recovery report, see src/fault/recovery.h).
  std::vector<int64_t> delivered_by_ms;
  int64_t peak_occupancy_bytes = 0;
  int64_t buffer_bytes = 0;  // one leaf/spine partition
  double duration_ms = 0;    // traffic window (excludes the drain tail)
  double drain_ms = 0;       // drain tail simulated after the traffic window
  int64_t sim_events = 0;    // simulator events processed (deterministic)
  int shards = 0;            // engine shards the run used
  double parallel_efficiency = 0;  // wall-clock derived
  uint64_t windows_run = 0;       // barrier (drain+plan) rounds
  uint64_t windows_executed = 0;  // conservative windows run
  uint64_t max_window_batch = 0;  // widest batch planned
  obs::BufferObs obs;              // per-queue delay/drop aggregate (schema v6)
  uint64_t mailbox_staged = 0;     // mailbox records staged
  uint64_t mailbox_drained = 0;    // mailbox records drained at barriers
  fault::FaultCounters faults;     // injected-fault counters (schema v7)
};

inline Time DefaultFabricDuration(BenchScale scale) {
  switch (scale) {
    case BenchScale::kSmoke: return Milliseconds(10);
    case BenchScale::kDefault: return Milliseconds(20);
    case BenchScale::kFull: return Milliseconds(50);
  }
  return Milliseconds(20);
}

// Background traffic config.
inline workload::PoissonFlowConfig MakeFabricBgConfig(
    const FabricRunSpec& run, const std::vector<net::NodeId>& hosts,
    Bandwidth host_rate, Time duration, workload::IdealFn ideal_fn) {
  workload::PoissonFlowConfig bg;
  switch (run.pattern) {
    case BgPattern::kWebSearch:
      bg.hosts = hosts;
      bg.load = run.bg_load;
      bg.host_rate = host_rate;
      bg.size_dist = workload::WebSearchDistribution();
      break;
    case BgPattern::kAllToAll:
      // A zero flow size makes the Poisson arrival rate unbounded (the
      // pre-generator spins forever emitting empty flows); fail loudly
      // instead.
      OCCAMY_CHECK(run.bg_fixed_size > 0) << "all-to-all needs bg_fixed_size > 0";
      bg = workload::MakeAllToAllConfig(hosts, run.bg_load, host_rate,
                                        run.bg_fixed_size, 0, duration, run.seed + 17);
      break;
    case BgPattern::kAllReduce:
      OCCAMY_CHECK(run.bg_fixed_size > 0) << "all-reduce needs bg_fixed_size > 0";
      bg = workload::MakeAllReduceConfig(hosts, run.bg_load, host_rate,
                                         run.bg_fixed_size, 0, duration, run.seed + 17);
      break;
  }
  bg.cc = run.bg_cc;
  bg.stop = duration;
  bg.ideal_fn = std::move(ideal_fn);
  bg.seed = run.seed + 17;
  return bg;
}

// Incast query config.
inline workload::IncastConfig MakeFabricQueryConfig(
    const FabricRunSpec& run, const std::vector<net::NodeId>& hosts, int n_hosts,
    Bandwidth host_rate, int64_t buffer_per_partition, Time duration,
    workload::IdealFn ideal_fn,
    std::function<Time(net::NodeId, int64_t)> query_ideal_fn) {
  workload::IncastConfig q;
  q.clients = hosts;
  q.servers = hosts;
  q.fanin = std::min(run.fanin, n_hosts - 1);
  q.query_size_bytes = static_cast<int64_t>(run.query_size_frac_of_buffer *
                                            static_cast<double>(buffer_per_partition));
  const double aggregate = host_rate.bytes_per_sec() * n_hosts;
  q.queries_per_second =
      run.query_load * aggregate / static_cast<double>(q.query_size_bytes);
  q.stop = duration;
  q.ideal_fn = std::move(ideal_fn);
  q.query_ideal_fn = std::move(query_ideal_fn);
  q.seed = run.seed + 31;
  return q;
}

// Drop / expulsion / peak-occupancy counters over every switch: all integer
// maxima/sums, read after the run.
template <typename Scenario>
void CollectFabricSwitchStats(Scenario& s, FabricRunResult& result) {
  for (auto& sw_id : s.topo.leaves) {
    auto& sw = static_cast<net::SwitchNode&>(s.net.node(sw_id));
    result.drops += sw.TotalDrops();
    for (int p = 0; p < sw.num_partitions(); ++p) {
      result.expelled += sw.partition(p).stats().expelled_packets;
      result.peak_occupancy_bytes =
          std::max(result.peak_occupancy_bytes,
                   sw.partition(p).shared_buffer().peak_occupancy_bytes());
      sw.partition(p).AccumulateObs(result.obs);
    }
  }
  for (auto& sw_id : s.topo.spines) {
    auto& sw = static_cast<net::SwitchNode&>(s.net.node(sw_id));
    result.drops += sw.TotalDrops();
    for (int p = 0; p < sw.num_partitions(); ++p) {
      result.peak_occupancy_bytes =
          std::max(result.peak_occupancy_bytes,
                   sw.partition(p).shared_buffer().peak_occupancy_bytes());
      sw.partition(p).AccumulateObs(result.obs);
    }
  }
  result.mailbox_staged = s.net.mailbox_staged();
  result.mailbox_drained = s.net.mailbox_drained();
}

// QCT / FCT / volume metrics. `qct` holds one record per completed query;
// `flows` is the flow-completion collector; `bg_filter` selects background
// flow records.
inline void FillFabricCompletionMetrics(
    FabricRunResult& result, const stats::CompletionCollector& qct,
    const stats::CompletionCollector& flows,
    const stats::CompletionCollector::Filter& bg_filter) {
  const auto qct_ms = qct.DurationsMs();
  const auto qct_slow = qct.Slowdowns();
  result.qct_avg_ms = qct_ms.Mean();
  result.qct_p99_ms = qct_ms.P99();
  result.qct_avg_slow = qct_slow.Mean();
  result.qct_p99_slow = qct_slow.P99();
  result.queries_completed = static_cast<int64_t>(qct.Count());

  const auto bg_slow = flows.Slowdowns(bg_filter);
  result.fct_avg_slow = bg_slow.Mean();
  result.fct_p99_slow = bg_slow.P99();
  const auto small_filter = [&](const stats::CompletionRecord& r) {
    return bg_filter(r) && r.bytes < 100 * 1000;
  };
  result.fct_small_p99_slow = flows.Slowdowns(small_filter).P99();
  result.bg_flows_completed = flows.DurationsMs(bg_filter).Count();

  for (const auto& rec : flows.records()) {
    result.delivered_bytes += rec.bytes;
    const int64_t bucket = rec.end / kMillisecond;
    if (bucket >= static_cast<int64_t>(result.delivered_by_ms.size())) {
      result.delivered_by_ms.resize(static_cast<size_t>(bucket) + 1, 0);
    }
    result.delivered_by_ms[static_cast<size_t>(bucket)] += rec.bytes;
  }
}

inline FabricRunResult RunFabric(const FabricRunSpec& run) {
  OCCAMY_CHECK_GE(run.shards, 1) << "want 1..64 shards";
  const BenchScale scale = run.scale.value_or(GetBenchScale());
  FabricSpec spec;
  spec.scheme = run.scheme;
  spec.alphas = run.alphas;
  spec.buffer_per_port_per_gbps = run.buffer_per_port_per_gbps;
  spec.seed = run.seed;
  spec.window_batch = run.window_batch;
  FabricScenario s(spec, scale, run.shards, run.shard_threads);
  std::optional<fault::FaultInjector> injector;
  ArmFaultsOrDie(injector, s.net, run.faults, FabricFaultTopology(s.topo));

  const Time duration = run.duration > 0 ? run.duration : DefaultFabricDuration(scale);
  const Bandwidth host_rate = s.topo.config.host_rate;
  const int n_hosts = s.topo.num_hosts();

  // Pre-generate both arrival processes (they are open loop: a pure
  // function of their Rng, identical for any shard count), then bind every
  // flow start to its source host's shard. Background flows get the low
  // contiguous id range, queries the next — the post-run filters below key
  // on that.
  const auto bg_flows = workload::PregeneratePoissonFlows(
      MakeFabricBgConfig(run, s.topo.hosts, host_rate, duration, s.IdealFn()));
  const workload::IncastConfig q_cfg =
      MakeFabricQueryConfig(run, s.topo.hosts, n_hosts, host_rate,
                            s.buffer_per_partition, duration, s.IdealFn(),
                            s.QueryIdealFn());
  const workload::PregeneratedIncast incast = workload::PregenerateIncast(q_cfg);

  uint64_t bg_last_id = 0;
  for (const auto& params : bg_flows) bg_last_id = s.manager->StartFlow(params);
  std::vector<uint64_t> incast_flow_ids;
  incast_flow_ids.reserve(incast.flows.size());
  for (const auto& params : incast.flows) {
    incast_flow_ids.push_back(s.manager->StartFlow(params));
  }

  s.ssim.RunUntil(duration + run.drain);
  s.manager->MergeShardCompletions();

  const stats::CompletionCollector qct = DeriveIncastQct(
      incast, incast_flow_ids, s.manager->completions(), q_cfg.query_ideal_fn);

  FabricRunResult result;
  FillFabricCompletionMetrics(result, qct, s.manager->completions(),
                              [bg_last_id](const stats::CompletionRecord& r) {
                                return r.id >= 1 && r.id <= bg_last_id;
                              });
  CollectFabricSwitchStats(s, result);
  result.buffer_bytes = s.buffer_per_partition;
  result.duration_ms = ToMilliseconds(duration);
  result.drain_ms = ToMilliseconds(run.drain);
  result.sim_events = static_cast<int64_t>(s.ssim.processed_events());
  result.shards = run.shards;
  result.parallel_efficiency = s.ssim.parallel_efficiency();
  result.windows_run = s.ssim.windows_run();
  result.windows_executed = s.ssim.windows_executed();
  result.max_window_batch = s.ssim.max_window_batch();
  if (injector) result.faults = injector->Totals();
  return result;
}

}  // namespace occamy::bench

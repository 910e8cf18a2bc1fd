// One run per paper platform, on the partition-parallel engine:
//
//  * RunBurstLab — §6.1 P4 burst lab (Figs. 11-12): fast senders, slow
//    receivers, one shared buffer; a long-lived overload to receiver A and
//    a measured burst to receiver B, both open loop.
//  * RunDpdk — §6.2/6.3 DPDK star: 8 hosts x 10G around one 410KB
//    shared-buffer switch, DCTCP query (incast) traffic plus a configurable
//    background, reporting QCT / FCT statistics.
//  * RunFabric — §6.4 leaf-spine: web-search / all-to-all / all-reduce
//    background plus incast queries, reporting QCT/FCT slowdowns.
//
// Poisson and incast arrivals are pre-generated (src/workload/pregen.h) and
// bound to their source host's shard; open-loop senders are shard-confined
// and inject live. QCT is derived after the run from the canonically merged
// completion records. Results are byte-identical for any shard count (see
// src/sim/sharded_simulator.h).
//
// Every run reports the same post-run counters (RunStats), gathered by one
// path: CollectSwitchStats walks the switches, CollectRunStats reads the
// engine and the fault injector, AddDeliveredBytes buckets the completions.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/exp/scenarios.h"
#include "src/fault/injector.h"
#include "src/obs/counters.h"
#include "src/stats/completion_stats.h"
#include "src/stats/timeseries.h"
#include "src/workload/incast.h"
#include "src/workload/open_loop.h"
#include "src/workload/pregen.h"

namespace occamy::exp {

// ---------------- shared post-run plumbing ----------------

// Counters every platform run reports. All are exact integers (or, for
// parallel_efficiency, wall-clock derived) read after RunUntil returns.
struct RunStats {
  int64_t sim_events = 0;          // simulator events processed (deterministic)
  int shards = 0;                  // engine shards the run used
  double parallel_efficiency = 0;  // wall-clock derived
  uint64_t windows_run = 0;        // barrier (drain+plan) rounds
  uint64_t windows_executed = 0;   // conservative windows run
  uint64_t max_window_batch = 0;   // widest batch planned
  obs::BufferObs obs;              // per-queue delay/drop aggregate (schema v6)
  uint64_t mailbox_staged = 0;     // mailbox records staged
  uint64_t mailbox_drained = 0;    // mailbox records drained at barriers
  fault::FaultCounters faults;     // injected-fault counters (schema v7)
  int64_t drops = 0;               // switch drops, every cause
  int64_t expelled = 0;            // packets the expulsion engine reclaimed
  int64_t peak_occupancy_bytes = 0;  // worst partition peak
  // Application bytes of completed transfers, in total and bucketed by the
  // completing transfer's end time in simulated milliseconds (exact
  // integers; feeds the --degradation time-to-recovery report, see
  // src/fault/recovery.h). Empty on the burst lab, which has no
  // completion records.
  int64_t delivered_bytes = 0;
  std::vector<int64_t> delivered_by_ms;
};

// Fault universe of a star testbed: the switch is sw0, hosts keep their
// port order.
fault::FaultTopology StarFaultTopology(const net::StarTopology& topo);

// Fault universe of the leaf-spine fabric: leaves first (sw0..swL-1), then
// spines — matching the builder's id layout so sw<k> reads naturally.
fault::FaultTopology FabricFaultTopology(const net::LeafSpineTopology& topo);

// Parses `spec` and arms `injector` on `net` against `ft` (the injector is
// emplaced, and pinned once armed: scheduled toggles capture its address).
// No-op for an empty spec. OCCAMY_CHECKs on failure: specs are validated
// upstream (exp::RunPoint / the CLI), which is where user errors surface
// as exit 2.
void ArmFaultsOrDie(std::optional<fault::FaultInjector>& injector, net::Network& net,
                    const std::string& spec, fault::FaultTopology ft);

// Folds the drops, peak occupancy and queue obs of every switch in
// `switches` into `stats`, plus the network's mailbox totals. Expulsions
// are summed over the first `expelling` switches only (see
// CollectFabricSwitchStats).
void CollectSwitchStats(net::Network& net, const std::vector<net::NodeId>& switches,
                        size_t expelling, RunStats& stats);

// Engine counters and fault totals; `injector` is empty on healthy runs.
void CollectRunStats(const sim::ShardedSimulator& ssim,
                     const std::optional<fault::FaultInjector>& injector, RunStats& stats);

// Adds every completion record's bytes to delivered_bytes and to its
// end-millisecond bucket of delivered_by_ms.
void AddDeliveredBytes(const stats::CompletionCollector& flows, RunStats& stats);

// Post-run QCT derivation: a query completes when its last member flow
// does, so the statistic falls out of the merged records. `flow_ids[i]` is
// the flow id FlowManager assigned to `incast.flows[i]`; `flows` must
// already be merged into canonical order (FlowManager::
// MergeShardCompletions). Returns one record per completed query, added in
// canonical (end, id) order so downstream percentile math is
// byte-identical for any shard count.
stats::CompletionCollector DeriveIncastQct(
    const workload::PregeneratedIncast& incast, const std::vector<uint64_t>& flow_ids,
    const stats::CompletionCollector& flows,
    const std::function<Time(net::NodeId, int64_t)>& query_ideal_fn);

// ---------------- P4 burst lab (§6.1) ----------------

struct BurstLabSpec {
  Scheme scheme = Scheme::kDt;
  double alpha = 1.0;
  int64_t buffer_bytes = 2 * 1000 * 1000;
  Bandwidth sender_rate = Bandwidth::Gbps(100);
  Bandwidth receiver_rate = Bandwidth::Gbps(10);
  int64_t burst_bytes = 600 * 1000;
  Time burst_start = Microseconds(400);
  Time horizon = Milliseconds(4);
  // Sampling interval for queue-length traces (0 = no traces).
  Time sample_every = 0;
  // The open-loop senders are deterministic, but the seed still reaches the
  // simulator so scheme-internal randomization (if any) is reproducible.
  uint64_t seed = 1;
  // Fault schedule (src/fault grammar); empty = healthy lab. Validated
  // upstream; armed before the senders start.
  std::string faults;

  // Engine shards (>= 1): intra-switch partition sharding. Byte-identical
  // metrics for any value.
  int shards = 1;
  // Worker threads on/off (byte-identical either way).
  bool shard_threads = true;
  // Windows per plan barrier (0 = adaptive, see
  // sim::ShardedSimulator::Options::window_batch). Byte-identical metrics
  // at every setting.
  int window_batch = 0;
};

struct BurstLabResult : RunStats {
  int64_t burst_packets = 0;
  int64_t burst_drops = 0;
  int64_t long_lived_drops = 0;
  stats::TimeSeries q_long{"q1"};
  stats::TimeSeries q_burst{"q2"};
  stats::TimeSeries threshold{"T"};

  double BurstLossRate() const {
    return burst_packets == 0
               ? 0.0
               : static_cast<double>(burst_drops) / static_cast<double>(burst_packets);
  }
};

// Drop counters come from the partition's drop hook, which in this 4-host
// single-partition lab runs on exactly one shard. Queue-length traces
// (sample_every) are sampled by events on the lane simulator of switch
// partition 0, which owns every queue they read, so the traces are
// byte-identical for any shard count too.
BurstLabResult RunBurstLab(const BurstLabSpec& spec);

// ---------------- DPDK star (§6.2, §6.3) ----------------

struct DpdkRunSpec {
  Scheme scheme = Scheme::kDt;
  std::vector<double> alphas;  // per class; empty = scheme default
  int queues_per_port = 1;
  tm::SchedulerKind scheduler = tm::SchedulerKind::kFifo;
  int64_t buffer_bytes = 410 * 1000;  // 5.12KB/port/Gbps x 8 x 10G

  // Geometry overrides (bench_star_parallel's big multi-partition star);
  // the paper testbed keeps the defaults: 8 hosts, one shared buffer.
  int num_hosts = 8;
  int ports_per_partition = 0;  // 0 = one buffer across every port

  enum class Bg {
    kNone,
    kWebSearchDctcp,  // §6.2 burst absorption: same queue as queries
    kWebSearchCubic,  // §6.2 isolation: separate CUBIC queue
    kSaturatingLp,    // §6.2 choking: LP streams pinning the client's port
  };
  Bg bg = Bg::kWebSearchDctcp;
  double bg_load = 0.5;
  uint8_t bg_tc = 0;

  int64_t query_bytes = 200 * 1000;
  double query_load = 0.01;
  uint8_t query_tc = 0;

  Time duration = Milliseconds(150);
  Time max_duration = Milliseconds(450);
  int min_queries = 60;
  uint64_t seed = 1;
  // Fault schedule (src/fault grammar); empty = healthy fabric. Parsed and
  // validated upstream; armed before any workload starts.
  std::string faults;
  // Explicit scale so parallel runs in one process never race on the
  // OCCAMY_BENCH_SCALE environment variable; nullopt falls back to the env.
  std::optional<BenchScale> scale;

  // Engine shards (>= 1): intra-switch partition sharding. Byte-identical
  // metrics for any value.
  int shards = 1;
  // Run shards on worker threads (off = same windowed algorithm inline;
  // byte-identical either way — a determinism test knob).
  bool shard_threads = true;
  // Windows per plan barrier (0 = adaptive, see
  // sim::ShardedSimulator::Options::window_batch). Byte-identical metrics
  // at every setting.
  int window_batch = 0;
};

struct DpdkRunResult : RunStats {
  double qct_avg_ms = 0, qct_p99_ms = 0;
  double fct_avg_ms = 0, fct_small_p99_ms = 0;
  int64_t queries = 0;
  int64_t rtos = 0;
  int64_t buffer_bytes = 0;
  double duration_ms = 0;  // traffic window (excludes the drain tail)
  double drain_ms = 0;     // drain tail simulated after the traffic window
};

StarSpec MakeDpdkStarSpec(const DpdkRunSpec& run);

// Traffic window: long enough for `min_queries` queries, clamped to
// [duration, max_duration] (20ms at smoke scale).
Time DpdkDuration(const DpdkRunSpec& run, const StarSpec& star, BenchScale scale);

workload::PoissonFlowConfig MakeDpdkBgConfig(const DpdkRunSpec& run,
                                             const std::vector<net::NodeId>& hosts,
                                             Bandwidth host_rate, Time duration,
                                             workload::IdealFn ideal_fn);

// Saturating low-priority streams into the query client's port, spread
// over the LP classes. They stand in for the paper's kernel CUBIC with
// SACK, which keeps the LP queues full; the simplified no-SACK transport
// cannot, so the streams are open loop.
std::vector<workload::OpenLoopConfig> MakeDpdkLpConfigs(
    const DpdkRunSpec& run, const std::vector<net::NodeId>& hosts, Time duration);

workload::IncastConfig MakeDpdkQueryConfig(
    const DpdkRunSpec& run, const std::vector<net::NodeId>& hosts, const StarSpec& star,
    Time duration, workload::IdealFn ideal_fn,
    std::function<Time(net::NodeId, int64_t)> query_ideal_fn);

// RTO tails drained after the traffic window.
inline Time DpdkDrain() { return Milliseconds(300); }

// Switch counters of a star scenario (StarScenario or an equivalent rig).
template <typename Scenario>
void FillDpdkSwitchStats(Scenario& s, RunStats& stats) {
  CollectSwitchStats(s.net, {s.topo.switch_id}, 1, stats);
}

// QCT / FCT / volume metrics. `bg_filter` selects the background flows
// among the completion records.
void FillDpdkCompletionMetrics(DpdkRunResult& result, const stats::CompletionCollector& qct,
                               const stats::CompletionCollector& flows, bool have_bg,
                               const stats::CompletionCollector::Filter& bg_filter);

DpdkRunResult RunDpdk(const DpdkRunSpec& run);

// ---------------- Leaf-spine fabric (§6.4) ----------------

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

struct FabricRunResult : RunStats {
  double qct_avg_ms = 0, qct_p99_ms = 0;
  double qct_avg_slow = 0, qct_p99_slow = 0;
  double fct_avg_slow = 0, fct_p99_slow = 0;
  double fct_small_p99_slow = 0;
  int64_t queries_completed = 0;
  int64_t bg_flows_completed = 0;
  int64_t buffer_bytes = 0;  // one leaf/spine partition
  double duration_ms = 0;    // traffic window (excludes the drain tail)
  double drain_ms = 0;       // drain tail simulated after the traffic window
};

Time DefaultFabricDuration(BenchScale scale);

workload::PoissonFlowConfig MakeFabricBgConfig(const FabricRunSpec& run,
                                               const std::vector<net::NodeId>& hosts,
                                               Bandwidth host_rate, Time duration,
                                               workload::IdealFn ideal_fn);

workload::IncastConfig MakeFabricQueryConfig(
    const FabricRunSpec& run, const std::vector<net::NodeId>& hosts, int n_hosts,
    Bandwidth host_rate, int64_t buffer_per_partition, Time duration,
    workload::IdealFn ideal_fn, std::function<Time(net::NodeId, int64_t)> query_ideal_fn);

// Switch counters over every leaf, then every spine (FabricScenario or an
// equivalent rig). Known gap: `expelled` counts leaf expulsions only, and
// spines expel too (54 vs 823 leaf expulsions, websearch seed 1, default
// scale). Counting them changes the goldens and the benchmark's expected
// outcomes, so the fix waits for a benchmark change (ROADMAP, conservation
// ledger).
template <typename Scenario>
void CollectFabricSwitchStats(Scenario& s, RunStats& stats) {
  CollectSwitchStats(s.net, FabricFaultTopology(s.topo).switches, s.topo.leaves.size(),
                     stats);
}

// QCT / FCT / volume metrics. `qct` holds one record per completed query;
// `flows` is the flow-completion collector; `bg_filter` selects background
// flow records.
void FillFabricCompletionMetrics(FabricRunResult& result,
                                 const stats::CompletionCollector& qct,
                                 const stats::CompletionCollector& flows,
                                 const stats::CompletionCollector::Filter& bg_filter);

FabricRunResult RunFabric(const FabricRunSpec& run);

}  // namespace occamy::exp

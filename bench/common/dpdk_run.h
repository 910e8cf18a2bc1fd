// Shared runner for the DPDK-software-switch experiments (§6.2, §6.3):
// 8 hosts x 10G around one 410KB shared-buffer switch, DCTCP query (incast)
// traffic plus a configurable background, reporting QCT / FCT statistics.
//
// The run uses intra-switch partition sharding (StarScenario): the switch
// is sharded along its TmPartitions, hosts ride on their egress
// partition's shard, Poisson/incast arrivals are pre-generated, the
// saturating-LP streams inject live (open loop is shard-confined), and QCT
// is derived from the canonically merged completion records. Results are
// byte-identical for any shard count.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "bench/common/fault_setup.h"
#include "bench/common/scenarios.h"
#include "bench/common/sharded_run.h"
#include "src/obs/counters.h"
#include "src/workload/flow_size_dist.h"
#include "src/workload/incast.h"
#include "src/workload/open_loop.h"
#include "src/workload/pregen.h"

namespace occamy::bench {

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

struct DpdkRunResult {
  double qct_avg_ms = 0, qct_p99_ms = 0;
  double fct_avg_ms = 0, fct_small_p99_ms = 0;
  int64_t queries = 0;
  int64_t rtos = 0;
  int64_t drops = 0;
  int64_t expelled = 0;
  int64_t delivered_bytes = 0;  // application bytes of completed transfers
  // Delivered bytes bucketed by the completing transfer's end time in
  // simulated milliseconds (exact integers; feeds the --degradation
  // time-to-recovery report, see src/fault/recovery.h).
  std::vector<int64_t> delivered_by_ms;
  int64_t peak_occupancy_bytes = 0;
  int64_t buffer_bytes = 0;
  double duration_ms = 0;  // traffic window (excludes the drain tail)
  double drain_ms = 0;     // drain tail simulated after the traffic window
  int64_t sim_events = 0;  // simulator events processed (deterministic)
  int shards = 0;          // engine shards the run used
  double parallel_efficiency = 0;  // wall-clock derived
  uint64_t windows_run = 0;       // barrier (drain+plan) rounds
  uint64_t windows_executed = 0;  // conservative windows run
  uint64_t max_window_batch = 0;  // widest batch planned
  obs::BufferObs obs;              // per-queue delay/drop aggregate (schema v6)
  uint64_t mailbox_staged = 0;     // mailbox records staged
  uint64_t mailbox_drained = 0;    // mailbox records drained at barriers
  fault::FaultCounters faults;     // injected-fault counters (schema v7)
};

inline StarSpec MakeDpdkStarSpec(const DpdkRunSpec& run) {
  StarSpec star;
  star.num_hosts = run.num_hosts;
  star.host_rate = Bandwidth::Gbps(10);
  star.buffer_bytes = run.buffer_bytes;
  star.ecn_threshold_bytes = 65 * 1500;  // 65 packets (§6.2)
  star.queues_per_port = run.queues_per_port;
  star.scheduler = run.scheduler;
  star.scheme = run.scheme;
  star.alphas = run.alphas;
  star.seed = run.seed;
  star.ports_per_partition = run.ports_per_partition;
  star.window_batch = run.window_batch;
  return star;
}

inline double DpdkQueriesPerSecond(const DpdkRunSpec& run, const StarSpec& star) {
  const double aggregate = star.host_rate.bytes_per_sec() * star.num_hosts;
  return run.query_load * aggregate / static_cast<double>(run.query_bytes);
}

inline Time DpdkDuration(const DpdkRunSpec& run, const StarSpec& star,
                         BenchScale scale) {
  const double qps = DpdkQueriesPerSecond(run, star);
  Time duration = run.duration;
  const Time needed = FromSeconds(static_cast<double>(run.min_queries) / qps);
  duration = std::clamp(needed, duration, run.max_duration);
  if (scale == BenchScale::kSmoke) duration = std::min(duration, Milliseconds(20));
  return duration;
}

inline workload::PoissonFlowConfig MakeDpdkBgConfig(
    const DpdkRunSpec& run, const std::vector<net::NodeId>& hosts, Bandwidth host_rate,
    Time duration, workload::IdealFn ideal_fn) {
  workload::PoissonFlowConfig bg;
  bg.hosts = hosts;
  bg.load = run.bg_load;
  bg.host_rate = host_rate;
  bg.size_dist = workload::WebSearchDistribution();
  bg.traffic_class = run.bg_tc;
  bg.cc = run.bg == DpdkRunSpec::Bg::kWebSearchCubic ? transport::CcAlgorithm::kCubic
                                                     : transport::CcAlgorithm::kDctcp;
  bg.stop = duration;
  bg.ideal_fn = std::move(ideal_fn);
  bg.seed = run.seed + 17;
  return bg;
}

// Saturating low-priority streams into the query client's port, spread
// over the LP classes (kernel-CUBIC stand-in; see DESIGN.md).
inline std::vector<workload::OpenLoopConfig> MakeDpdkLpConfigs(
    const DpdkRunSpec& run, const std::vector<net::NodeId>& hosts, Time duration) {
  // The choking layout pins hosts 6/7 as the LP sources (§6.2's fixed
  // 8-host testbed); a smaller custom star would index out of bounds.
  OCCAMY_CHECK(hosts.size() >= 8) << "saturating-LP background needs >= 8 hosts";
  const int lp_classes = std::max(1, run.queues_per_port - 1);
  const int streams = std::max(7, lp_classes);
  std::vector<workload::OpenLoopConfig> configs;
  configs.reserve(static_cast<size_t>(streams));
  for (int i = 0; i < streams; ++i) {
    workload::OpenLoopConfig cfg;
    cfg.src = hosts[static_cast<size_t>(6 + (i % 2))];
    cfg.dst = hosts[0];
    cfg.rate = Bandwidth::Mbps(static_cast<int64_t>(
        run.bg_load * 10000.0 * 1.2 / streams));  // 1.2x oversubscription
    cfg.traffic_class = static_cast<uint8_t>(1 + (i % lp_classes));
    cfg.flow_id = 900 + static_cast<uint64_t>(i);
    cfg.stop = duration + Milliseconds(50);
    configs.push_back(cfg);
  }
  return configs;
}

inline workload::IncastConfig MakeDpdkQueryConfig(
    const DpdkRunSpec& run, const std::vector<net::NodeId>& hosts, const StarSpec& star,
    Time duration, workload::IdealFn ideal_fn,
    std::function<Time(net::NodeId, int64_t)> query_ideal_fn) {
  workload::IncastConfig q;
  if (run.bg == DpdkRunSpec::Bg::kSaturatingLp) {
    q.clients = {hosts[0]};  // the choked port
  } else {
    q.clients = hosts;
  }
  // 16 responders: two per non-client host (§6.2: "each host runs 2").
  for (int rep = 0; rep < 2; ++rep) {
    for (auto h : hosts) q.servers.push_back(h);
  }
  q.fanin = std::min(14, 2 * (star.num_hosts - 1));
  q.query_size_bytes = run.query_bytes;
  q.queries_per_second = DpdkQueriesPerSecond(run, star);
  q.traffic_class = run.query_tc;
  q.start = Milliseconds(5);  // let the background establish itself
  q.stop = duration;
  q.ideal_fn = std::move(ideal_fn);
  q.query_ideal_fn = std::move(query_ideal_fn);
  q.seed = run.seed + 31;
  return q;
}

// RTO tails drained after the traffic window.
inline Time DpdkDrain() { return Milliseconds(300); }

// Drop / expulsion / occupancy counters over the switch: all integer
// sums/maxima, read after the run.
template <typename Scenario>
void FillDpdkSwitchStats(Scenario& s, DpdkRunResult& result) {
  result.drops = s.sw().TotalDrops();
  for (int p = 0; p < s.sw().num_partitions(); ++p) {
    result.expelled += s.sw().partition(p).stats().expelled_packets;
    result.peak_occupancy_bytes =
        std::max(result.peak_occupancy_bytes,
                 s.sw().partition(p).shared_buffer().peak_occupancy_bytes());
    s.sw().partition(p).AccumulateObs(result.obs);
  }
  result.mailbox_staged = s.net.mailbox_staged();
  result.mailbox_drained = s.net.mailbox_drained();
}

// QCT / FCT / volume metrics. `bg_filter` selects the background flows
// among the completion records.
inline void FillDpdkCompletionMetrics(
    DpdkRunResult& result, const stats::CompletionCollector& qct,
    const stats::CompletionCollector& flows, bool have_bg,
    const stats::CompletionCollector::Filter& bg_filter) {
  result.qct_avg_ms = qct.DurationsMs().Mean();
  result.qct_p99_ms = qct.DurationsMs().P99();
  result.queries = static_cast<int64_t>(qct.Count());
  if (have_bg) {
    result.fct_avg_ms = flows.DurationsMs(bg_filter).Mean();
    const auto small = [&](const stats::CompletionRecord& r) {
      return bg_filter(r) && r.bytes < 100 * 1000;
    };
    result.fct_small_p99_ms = flows.DurationsMs(small).P99();
  }
  for (const auto& rec : flows.records()) {
    result.delivered_bytes += rec.bytes;
    const int64_t bucket = rec.end / kMillisecond;
    if (bucket >= static_cast<int64_t>(result.delivered_by_ms.size())) {
      result.delivered_by_ms.resize(static_cast<size_t>(bucket) + 1, 0);
    }
    result.delivered_by_ms[static_cast<size_t>(bucket)] += rec.bytes;
  }
}

inline DpdkRunResult RunDpdk(const DpdkRunSpec& run) {
  OCCAMY_CHECK_GE(run.shards, 1) << "want 1..64 shards";
  const BenchScale scale = run.scale.value_or(GetBenchScale());
  const StarSpec star = MakeDpdkStarSpec(run);
  StarScenario s(star, run.shards, run.shard_threads);
  const Time duration = DpdkDuration(run, star, scale);
  std::optional<fault::FaultInjector> injector;
  ArmFaultsOrDie(injector, s.net, run.faults, StarFaultTopology(s.topo));

  // ---- background: pre-generated Poisson flows (low contiguous id range,
  // the post-run filter keys on it) or live shard-confined LP streams ----
  uint64_t bg_last_id = 0;
  std::vector<std::unique_ptr<workload::OpenLoopSender>> lp_senders;
  if (run.bg == DpdkRunSpec::Bg::kWebSearchDctcp ||
      run.bg == DpdkRunSpec::Bg::kWebSearchCubic) {
    const auto bg_flows = workload::PregeneratePoissonFlows(
        MakeDpdkBgConfig(run, s.topo.hosts, star.host_rate, duration, s.IdealFn()));
    for (const auto& params : bg_flows) bg_last_id = s.manager->StartFlow(params);
  } else if (run.bg == DpdkRunSpec::Bg::kSaturatingLp) {
    for (const auto& cfg : MakeDpdkLpConfigs(run, s.topo.hosts, duration)) {
      lp_senders.push_back(std::make_unique<workload::OpenLoopSender>(&s.net, cfg));
      lp_senders.back()->Start();
    }
  }

  // ---- query traffic: pre-generated incast, QCT derived post-run ----
  const workload::IncastConfig q_cfg = MakeDpdkQueryConfig(
      run, s.topo.hosts, star, duration, s.IdealFn(),
      [&s](net::NodeId, int64_t bytes) { return s.IdealFct(bytes); });
  const workload::PregeneratedIncast incast = workload::PregenerateIncast(q_cfg);
  std::vector<uint64_t> incast_flow_ids;
  incast_flow_ids.reserve(incast.flows.size());
  for (const auto& params : incast.flows) {
    incast_flow_ids.push_back(s.manager->StartFlow(params));
  }

  s.ssim.RunUntil(duration + DpdkDrain());
  s.manager->MergeShardCompletions();

  const stats::CompletionCollector qct = DeriveIncastQct(
      incast, incast_flow_ids, s.manager->completions(), q_cfg.query_ideal_fn);

  DpdkRunResult result;
  const bool have_bg = bg_last_id > 0;
  FillDpdkCompletionMetrics(result, qct, s.manager->completions(), have_bg,
                            [bg_last_id](const stats::CompletionRecord& r) {
                              return r.id >= 1 && r.id <= bg_last_id;
                            });
  result.rtos = s.manager->counters().rtos;
  FillDpdkSwitchStats(s, result);
  result.buffer_bytes = run.buffer_bytes;
  result.duration_ms = ToMilliseconds(duration);
  result.drain_ms = ToMilliseconds(DpdkDrain());
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

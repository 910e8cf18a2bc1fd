#include "src/exp/platform_runs.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/fault/fault_plan.h"
#include "src/util/check.h"
#include "src/workload/collective.h"
#include "src/workload/flow_size_dist.h"

namespace occamy::exp {

// ---------------- shared post-run plumbing ----------------

fault::FaultTopology StarFaultTopology(const net::StarTopology& topo) {
  fault::FaultTopology ft;
  ft.switches = {topo.switch_id};
  ft.hosts = topo.hosts;
  return ft;
}

fault::FaultTopology FabricFaultTopology(const net::LeafSpineTopology& topo) {
  fault::FaultTopology ft;
  ft.switches = topo.leaves;
  ft.switches.insert(ft.switches.end(), topo.spines.begin(), topo.spines.end());
  ft.hosts = topo.hosts;
  return ft;
}

void ArmFaultsOrDie(std::optional<fault::FaultInjector>& injector, net::Network& net,
                    const std::string& spec, fault::FaultTopology ft) {
  if (spec.empty()) return;
  fault::FaultPlan plan;
  auto parse_err = fault::ParseFaultPlan(spec, &plan);
  OCCAMY_CHECK(!parse_err) << *parse_err;
  injector.emplace(&net, std::move(plan), std::move(ft));
  auto arm_err = injector->Arm();
  OCCAMY_CHECK(!arm_err) << *arm_err;
}

void CollectSwitchStats(net::Network& net, const std::vector<net::NodeId>& switches,
                        size_t expelling, RunStats& stats) {
  for (size_t i = 0; i < switches.size(); ++i) {
    auto& sw = static_cast<net::SwitchNode&>(net.node(switches[i]));
    stats.drops += sw.TotalDrops();
    for (int p = 0; p < sw.num_partitions(); ++p) {
      if (i < expelling) stats.expelled += sw.partition(p).stats().expelled_packets;
      stats.peak_occupancy_bytes =
          std::max(stats.peak_occupancy_bytes,
                   sw.partition(p).shared_buffer().peak_occupancy_bytes());
      sw.partition(p).AccumulateObs(stats.obs);
    }
  }
  stats.mailbox_staged = net.mailbox_staged();
  stats.mailbox_drained = net.mailbox_drained();
}

void CollectRunStats(const sim::ShardedSimulator& ssim,
                     const std::optional<fault::FaultInjector>& injector, RunStats& stats) {
  stats.sim_events = static_cast<int64_t>(ssim.processed_events());
  stats.shards = ssim.num_shards();
  stats.parallel_efficiency = ssim.parallel_efficiency();
  stats.windows_run = ssim.windows_run();
  stats.windows_executed = ssim.windows_executed();
  stats.max_window_batch = ssim.max_window_batch();
  if (injector) stats.faults = injector->Totals();
}

void AddDeliveredBytes(const stats::CompletionCollector& flows, RunStats& stats) {
  for (const auto& rec : flows.records()) {
    stats.delivered_bytes += rec.bytes;
    const auto bucket = static_cast<size_t>(rec.end / kMillisecond);
    if (bucket >= stats.delivered_by_ms.size()) stats.delivered_by_ms.resize(bucket + 1, 0);
    stats.delivered_by_ms[bucket] += rec.bytes;
  }
}

stats::CompletionCollector DeriveIncastQct(
    const workload::PregeneratedIncast& incast, const std::vector<uint64_t>& flow_ids,
    const stats::CompletionCollector& flows,
    const std::function<Time(net::NodeId, int64_t)>& query_ideal_fn) {
  std::unordered_map<uint64_t, Time> flow_end;
  flow_end.reserve(flows.records().size());
  for (const auto& rec : flows.records()) flow_end[rec.id] = rec.end;

  struct QueryDone {
    Time end = 0;
    uint64_t id = 0;
    net::NodeId client = 0;
    Time issue_time = 0;
  };
  std::vector<QueryDone> done;
  for (const auto& query : incast.queries) {
    Time end = 0;
    bool complete = true;
    for (const size_t fi : query.flow_indices) {
      const auto it = flow_end.find(flow_ids[fi]);
      if (it == flow_end.end()) {
        complete = false;
        break;
      }
      end = std::max(end, it->second);
    }
    if (complete) done.push_back({end, query.id, query.client, query.issue_time});
  }
  // Canonical order (matches the collector merge): completion time, then id.
  std::sort(done.begin(), done.end(), [](const QueryDone& a, const QueryDone& b) {
    if (a.end != b.end) return a.end < b.end;
    return a.id < b.id;
  });
  stats::CompletionCollector qct;
  for (const auto& query : done) {
    stats::CompletionRecord rec;
    rec.id = query.id;
    rec.bytes = incast.query_size_bytes;
    rec.start = query.issue_time;
    rec.end = query.end;
    if (query_ideal_fn) {
      rec.ideal = query_ideal_fn(query.client, incast.query_size_bytes);
    }
    qct.Add(rec);
  }
  return qct;
}

// ---------------- P4 burst lab (§6.1) ----------------

namespace {

constexpr uint64_t kBurstLabLongFlow = 1;
constexpr uint64_t kBurstLabBurstFlow = 2;

StarSpec MakeBurstLabStarSpec(const BurstLabSpec& spec) {
  StarSpec star;
  star.num_hosts = 4;
  star.host_rates = {spec.sender_rate, spec.sender_rate, spec.receiver_rate,
                     spec.receiver_rate};
  star.link_propagation = Microseconds(1);
  star.buffer_bytes = spec.buffer_bytes;
  star.ecn_threshold_bytes = 0;  // open-loop: no ECN
  star.scheme = spec.scheme;
  star.alphas = {spec.alpha};
  star.seed = spec.seed;
  star.window_batch = spec.window_batch;
  return star;
}

workload::OpenLoopConfig BurstLabLongLivedConfig(const BurstLabSpec& spec,
                                                 const StarScenario& s) {
  workload::OpenLoopConfig lived;
  lived.src = s.topo.hosts[0];
  lived.dst = s.topo.hosts[2];
  lived.rate = spec.sender_rate;
  lived.flow_id = kBurstLabLongFlow;
  lived.stop = spec.horizon;
  return lived;
}

workload::OpenLoopConfig BurstLabBurstConfig(const BurstLabSpec& spec,
                                             const StarScenario& s) {
  workload::OpenLoopConfig burst;
  burst.src = s.topo.hosts[1];
  burst.dst = s.topo.hosts[3];
  burst.rate = spec.sender_rate;
  burst.flow_id = kBurstLabBurstFlow;
  burst.start = spec.burst_start;
  burst.total_bytes = spec.burst_bytes;
  return burst;
}

}  // namespace

BurstLabResult RunBurstLab(const BurstLabSpec& spec) {
  OCCAMY_CHECK_GE(spec.shards, 1) << "want 1..64 shards";
  StarScenario s(MakeBurstLabStarSpec(spec), spec.shards, spec.shard_threads);
  std::optional<fault::FaultInjector> injector;
  ArmFaultsOrDie(injector, s.net, spec.faults, StarFaultTopology(s.topo));

  BurstLabResult result;
  // Counts losses of the measured burst and the long-lived flow. The hook
  // fires on the dropping partition's shard — one shard here (single
  // partition), read after the join.
  s.sw().set_drop_hook([&result](const Packet& pkt, tm::DropReason reason) {
    // Expulsions of the long-lived queue are deliberate reclamation; count
    // them separately from congestion losses.
    if (pkt.flow_id == kBurstLabBurstFlow && reason != tm::DropReason::kExpelled) {
      ++result.burst_drops;
    }
    if (pkt.flow_id == kBurstLabLongFlow) ++result.long_lived_drops;
  });

  workload::OpenLoopSender long_lived(&s.net, BurstLabLongLivedConfig(spec, s));
  long_lived.Start();
  workload::OpenLoopSender burst_sender(&s.net, BurstLabBurstConfig(spec, s));
  burst_sender.Start();

  if (spec.sample_every > 0) {
    // Partition 0 owns ports 2 and 3, so the sampler runs on its lane's
    // shard and every read is shard-local. Scheduled before the run, each
    // sample runs ahead of every mailbox arrival of its timestamp at any
    // shard count or window batch, so the traces are byte-identical too.
    sim::Simulator& lane = s.net.LaneSim(s.topo.switch_id, 0);
    std::function<void()> sample = [&s, &lane, &result]() {
      auto& part = s.sw().partition(0);
      result.q_long.Record(lane.now(),
                           static_cast<double>(s.sw().QueueLengthBytes(2, 0)) / 1000.0);
      result.q_burst.Record(lane.now(),
                            static_cast<double>(s.sw().QueueLengthBytes(3, 0)) / 1000.0);
      result.threshold.Record(
          lane.now(),
          static_cast<double>(part.ThresholdBytes(part.QueueIndex(2, 0))) / 1000.0);
    };
    for (Time t = 0; t <= spec.horizon; t += spec.sample_every) lane.At(t, sample);
  }

  s.ssim.RunUntil(spec.horizon);
  result.burst_packets = burst_sender.packets_sent();
  CollectSwitchStats(s.net, {s.topo.switch_id}, 1, result);
  CollectRunStats(s.ssim, injector, result);
  return result;
}

// ---------------- DPDK star (§6.2, §6.3) ----------------

namespace {

double DpdkQueriesPerSecond(const DpdkRunSpec& run, const StarSpec& star) {
  const double aggregate = star.host_rate.bytes_per_sec() * star.num_hosts;
  return run.query_load * aggregate / static_cast<double>(run.query_bytes);
}

}  // namespace

StarSpec MakeDpdkStarSpec(const DpdkRunSpec& run) {
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

Time DpdkDuration(const DpdkRunSpec& run, const StarSpec& star, BenchScale scale) {
  const double qps = DpdkQueriesPerSecond(run, star);
  Time duration = run.duration;
  const Time needed = FromSeconds(static_cast<double>(run.min_queries) / qps);
  duration = std::clamp(needed, duration, run.max_duration);
  if (scale == BenchScale::kSmoke) duration = std::min(duration, Milliseconds(20));
  return duration;
}

workload::PoissonFlowConfig MakeDpdkBgConfig(const DpdkRunSpec& run,
                                             const std::vector<net::NodeId>& hosts,
                                             Bandwidth host_rate, Time duration,
                                             workload::IdealFn ideal_fn) {
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

std::vector<workload::OpenLoopConfig> MakeDpdkLpConfigs(
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

workload::IncastConfig MakeDpdkQueryConfig(
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

void FillDpdkCompletionMetrics(DpdkRunResult& result, const stats::CompletionCollector& qct,
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
  AddDeliveredBytes(flows, result);
}

DpdkRunResult RunDpdk(const DpdkRunSpec& run) {
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
  CollectRunStats(s.ssim, injector, result);
  result.buffer_bytes = run.buffer_bytes;
  result.duration_ms = ToMilliseconds(duration);
  result.drain_ms = ToMilliseconds(DpdkDrain());
  return result;
}

// ---------------- Leaf-spine fabric (§6.4) ----------------

Time DefaultFabricDuration(BenchScale scale) {
  switch (scale) {
    case BenchScale::kSmoke: return Milliseconds(10);
    case BenchScale::kDefault: return Milliseconds(20);
    case BenchScale::kFull: return Milliseconds(50);
  }
  return Milliseconds(20);
}

workload::PoissonFlowConfig MakeFabricBgConfig(const FabricRunSpec& run,
                                               const std::vector<net::NodeId>& hosts,
                                               Bandwidth host_rate, Time duration,
                                               workload::IdealFn ideal_fn) {
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

workload::IncastConfig MakeFabricQueryConfig(
    const FabricRunSpec& run, const std::vector<net::NodeId>& hosts, int n_hosts,
    Bandwidth host_rate, int64_t buffer_per_partition, Time duration,
    workload::IdealFn ideal_fn, std::function<Time(net::NodeId, int64_t)> query_ideal_fn) {
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

void FillFabricCompletionMetrics(FabricRunResult& result,
                                 const stats::CompletionCollector& qct,
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
  AddDeliveredBytes(flows, result);
}

FabricRunResult RunFabric(const FabricRunSpec& run) {
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
  CollectRunStats(s.ssim, injector, result);
  result.buffer_bytes = s.buffer_per_partition;
  result.duration_ms = ToMilliseconds(duration);
  result.drain_ms = ToMilliseconds(run.drain);
  return result;
}

}  // namespace occamy::exp

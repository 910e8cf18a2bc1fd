// The P4-testbed scenario (§6.1, Figs. 11-12): fast senders, slow receivers,
// one shared buffer; a long-lived overload to receiver A and a measured
// burst to receiver B, both open-loop (Pktgen substitute).
//
// The lab runs on intra-switch partition sharding (StarScenario). The
// open-loop senders are shard-confined (each lives on its source host's
// shard), so they inject live; drop counters come from the partition's drop
// hook, which in this 4-host single-partition lab runs on exactly one
// shard. Queue-length traces (sample_every) are sampled by events on the
// lane simulator of switch partition 0, which owns every queue they read.
// Results, traces included, are byte-identical for any shard count.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "bench/common/fault_setup.h"
#include "bench/common/scenarios.h"
#include "src/obs/counters.h"
#include "src/stats/timeseries.h"
#include "src/workload/open_loop.h"

namespace occamy::bench {

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

struct BurstLabResult {
  int64_t burst_packets = 0;
  int64_t burst_drops = 0;
  int64_t long_lived_drops = 0;
  int64_t expelled = 0;
  stats::TimeSeries q_long{"q1"};
  stats::TimeSeries q_burst{"q2"};
  stats::TimeSeries threshold{"T"};
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

  double BurstLossRate() const {
    return burst_packets == 0
               ? 0.0
               : static_cast<double>(burst_drops) / static_cast<double>(burst_packets);
  }
};

inline StarSpec MakeBurstLabStarSpec(const BurstLabSpec& spec) {
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

inline constexpr uint64_t kBurstLabLongFlow = 1;
inline constexpr uint64_t kBurstLabBurstFlow = 2;

// Counts losses of the measured burst and the long-lived flow into
// `result`. The hook fires on the dropping partition's shard — one shard
// here (single partition), read after the join.
inline void InstallBurstLabDropHook(StarScenario& s, BurstLabResult& result) {
  s.sw().set_drop_hook([&result](const Packet& pkt, tm::DropReason reason) {
    // Expulsions of the long-lived queue are deliberate reclamation; count
    // them separately from congestion losses.
    if (pkt.flow_id == kBurstLabBurstFlow && reason != tm::DropReason::kExpelled) {
      ++result.burst_drops;
    }
    if (pkt.flow_id == kBurstLabLongFlow) ++result.long_lived_drops;
  });
}

inline workload::OpenLoopConfig BurstLabLongLivedConfig(const BurstLabSpec& spec,
                                                        StarScenario& s) {
  workload::OpenLoopConfig lived;
  lived.src = s.topo.hosts[0];
  lived.dst = s.topo.hosts[2];
  lived.rate = spec.sender_rate;
  lived.flow_id = kBurstLabLongFlow;
  lived.stop = spec.horizon;
  return lived;
}

inline workload::OpenLoopConfig BurstLabBurstConfig(const BurstLabSpec& spec,
                                                    StarScenario& s) {
  workload::OpenLoopConfig burst;
  burst.src = s.topo.hosts[1];
  burst.dst = s.topo.hosts[3];
  burst.rate = spec.sender_rate;
  burst.flow_id = kBurstLabBurstFlow;
  burst.start = spec.burst_start;
  burst.total_bytes = spec.burst_bytes;
  return burst;
}

inline BurstLabResult RunBurstLab(const BurstLabSpec& spec) {
  OCCAMY_CHECK_GE(spec.shards, 1) << "want 1..64 shards";
  const StarSpec star = MakeBurstLabStarSpec(spec);
  StarScenario s(star, spec.shards, spec.shard_threads);
  std::optional<fault::FaultInjector> injector;
  ArmFaultsOrDie(injector, s.net, spec.faults, StarFaultTopology(s.topo));

  BurstLabResult result;
  InstallBurstLabDropHook(s, result);

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
  for (int p = 0; p < s.sw().num_partitions(); ++p) {
    result.expelled += s.sw().partition(p).stats().expelled_packets;
    s.sw().partition(p).AccumulateObs(result.obs);
  }
  result.mailbox_staged = s.net.mailbox_staged();
  result.mailbox_drained = s.net.mailbox_drained();
  result.sim_events = static_cast<int64_t>(s.ssim.processed_events());
  result.shards = spec.shards;
  result.parallel_efficiency = s.ssim.parallel_efficiency();
  result.windows_run = s.ssim.windows_run();
  result.windows_executed = s.ssim.windows_executed();
  result.max_window_batch = s.ssim.max_window_batch();
  if (injector) result.faults = injector->Totals();
  return result;
}

}  // namespace occamy::bench

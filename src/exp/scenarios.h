// The paper's evaluation platforms as ready-to-run engines:
//
//  * P4 burst lab — §6.1: 100G senders, 10G receivers, one shared buffer,
//                   open-loop traffic (Pktgen substitute). A StarScenario.
//  * DPDK star    — §6.2/6.3: 8 hosts x 10G, 410KB shared buffer
//                   (5.12KB/port/Gbps), DCTCP via the kernel stack.
//  * Fabric       — §6.4: leaf-spine, web-search/collective background +
//                   incast queries, Tomahawk-style 4MB-per-8-port partitions.
//
// plus the BM-scheme selection every platform shares, with the alpha
// settings used throughout the paper's evaluation (§6.2): DT alpha=1, ABM
// alpha=2, Occamy alpha=8; Pushout needs none.
//
// Scale is selected by OCCAMY_BENCH_SCALE (smoke | default | full) unless a
// run spec carries it explicitly; the default keeps laptop runtimes by
// shrinking link speed and host count while preserving every relative
// parameter (buffer per port per Gbps, ECN in BDP, loads, query size as a
// fraction of buffer).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/net/switch.h"
#include "src/net/topology.h"
#include "src/sim/sharded_simulator.h"
#include "src/tm/traffic_manager.h"
#include "src/transport/flow_manager.h"
#include "src/workload/poisson_flows.h"

namespace occamy::exp {

// ---------------- BM schemes ----------------

enum class Scheme {
  kDt,
  kAbm,
  kPushout,
  kOccamy,
  kOccamyLongestDrop,  // Fig. 21 ablation
  kCompleteSharing,
  kEdt,  // related-work baselines (§7)
  kTdt,
  kQpo,
};

const char* SchemeName(Scheme s);
double DefaultAlpha(Scheme s);
net::BmSchemeFactory MakeFactory(Scheme s);

// Applies scheme-specific TM settings: one class config per queue of a
// port (priority = class index, alpha from `alphas`) and, for Occamy, the
// expulsion engine. `alphas` is empty (scheme default for every class), one
// alpha broadcast to every class, or one alpha per class; any other length
// CHECK-fails.
void ApplyScheme(tm::TmConfig& tm, Scheme s, const std::vector<double>& alphas = {});

// ---------------- scale and engine ----------------

enum class BenchScale { kSmoke, kDefault, kFull };

BenchScale GetBenchScale();

// Engine options of every scenario. `lookahead` is the topology's uniform
// link propagation: every delivery carries exactly this delay, so it is the
// tightest legal conservative window.
sim::ShardedSimulator::Options EngineOptions(Time lookahead, uint64_t seed, int shards,
                                             bool use_threads, int window_batch);

// ---------------- DPDK-style star testbed (§6.2) ----------------

struct StarSpec {
  int num_hosts = 8;
  Bandwidth host_rate = Bandwidth::Gbps(10);
  std::vector<Bandwidth> host_rates;  // optional per-host override
  Time link_propagation = Microseconds(2);
  // 5.12KB per port per Gbps (Tomahawk ratio): 8 x 10G -> 410KB.
  int64_t buffer_bytes = 410 * 1000;
  int64_t ecn_threshold_bytes = 65 * 1500;  // 65 packets (paper §6.2)
  int queues_per_port = 1;
  tm::SchedulerKind scheduler = tm::SchedulerKind::kFifo;
  Scheme scheme = Scheme::kDt;
  std::vector<double> alphas;  // per class; empty = scheme default
  uint64_t seed = 1;
  // Windows per plan barrier (0 = adaptive, see
  // sim::ShardedSimulator::Options::window_batch). Byte-identical metrics
  // at every setting.
  int window_batch = 0;
  // Ports per buffer partition; 0 = every port shares one buffer (the
  // testbeds' single shared-memory domain, `buffer_bytes` total). A smaller
  // value splits the switch Tomahawk-style into num_hosts/ports_per_partition
  // partitions of `buffer_bytes` each — which is also the shard boundary of
  // intra-switch sharding (StarScenario).
  int ports_per_partition = 0;
};

net::StarConfig MakeStarConfig(const StarSpec& spec);

// Ideal duration of a `bytes` transfer on the unloaded star (base RTT is
// two host<->switch round trips).
Time StarIdealFct(const StarSpec& spec, int64_t bytes);

// The star testbed on the partition-parallel engine: the switch is sharded
// *internally* along its TmPartitions (each partition and the hosts whose
// egress ports it owns form one lane, net::StarShardOf /
// net::StarLaneShardOf), the conservative lookahead is the star's uniform
// link propagation, and all workload arrivals must be pre-generated
// (src/workload/pregen.h) before RunUntil. With the testbeds' single shared
// buffer every lane lands on shard 0 and extra shards idle at the barriers;
// splitting the switch (ports_per_partition) is what buys parallel speedup.
// Metrics are byte-identical for any shard count either way.
struct StarScenario {
  explicit StarScenario(const StarSpec& spec, int shards = 1, bool use_threads = true);

  Time IdealFct(int64_t bytes) const { return StarIdealFct(spec_, bytes); }

  workload::IdealFn IdealFn() const {
    return [this](net::NodeId, net::NodeId, int64_t bytes) { return IdealFct(bytes); };
  }

  net::SwitchNode& sw() { return topo.sw(net); }

  StarSpec spec_;
  net::StarConfig cfg;
  sim::ShardedSimulator ssim;
  net::Network net;
  net::StarTopology topo;
  std::unique_ptr<transport::FlowManager> manager;
};

// ---------------- Leaf-spine fabric (§6.4) ----------------

struct FabricSpec {
  Scheme scheme = Scheme::kDt;
  std::vector<double> alphas;
  int queues_per_port = 1;
  tm::SchedulerKind scheduler = tm::SchedulerKind::kFifo;
  // Buffer density in bytes per port per Gbps (Tomahawk: 5120).
  double buffer_per_port_per_gbps = 5120.0;
  double ecn_bdp_fraction = 0.72;  // paper: ECN = 0.72 BDP
  uint64_t seed = 1;
  // Windows per plan barrier (0 = adaptive, see
  // sim::ShardedSimulator::Options::window_batch).
  int window_batch = 0;
};

// Builds the leaf-spine config (scale geometry, buffer density, ECN, BM
// scheme). `buffer_per_partition` receives the derived per-partition buffer
// size.
net::LeafSpineConfig MakeFabricLeafSpineConfig(const FabricSpec& spec, BenchScale scale,
                                               int64_t& buffer_per_partition);

// Ideal (unloaded-network) transfer time between two fabric hosts.
Time FabricIdealFct(const net::LeafSpineTopology& topo, net::NodeId src, net::NodeId dst,
                    int64_t bytes);

// Ideal QCT for an incast of `bytes` into one client port.
Time FabricQueryIdealFct(const net::LeafSpineTopology& topo, int64_t bytes);

// The leaf-spine fabric on the partition-parallel engine: each leaf and its
// hosts are pinned to one shard (net::LeafSpineShardOf), the lookahead is
// the fabric's uniform link propagation, and all workload arrivals are
// pre-generated (src/workload/pregen.h) so no workload object mutates
// shared state while shards run. RunFabric (src/exp/platform_runs.h) drives
// it.
struct FabricScenario {
  explicit FabricScenario(const FabricSpec& spec, BenchScale scale = GetBenchScale(),
                          int shards = 1, bool use_threads = true);

  workload::IdealFn IdealFn() {
    return [this](net::NodeId s, net::NodeId d, int64_t b) {
      return FabricIdealFct(topo, s, d, b);
    };
  }

  std::function<Time(net::NodeId, int64_t)> QueryIdealFn() {
    return [this](net::NodeId, int64_t bytes) { return FabricQueryIdealFct(topo, bytes); };
  }

  int64_t buffer_per_partition = 0;
  net::LeafSpineConfig cfg;
  sim::ShardedSimulator ssim;
  net::Network net;
  net::LeafSpineTopology topo;
  std::unique_ptr<transport::FlowManager> manager;
};

}  // namespace occamy::exp

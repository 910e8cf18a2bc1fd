#include "src/exp/scenarios.h"

#include <algorithm>
#include <string>

#include "src/bm/abm.h"
#include "src/bm/dynamic_threshold.h"
#include "src/bm/enhanced_dt.h"
#include "src/bm/pushout.h"
#include "src/bm/quasi_pushout.h"
#include "src/bm/static_threshold.h"
#include "src/bm/traffic_aware_dt.h"
#include "src/core/occamy_bm.h"
#include "src/util/env.h"

namespace occamy::exp {

// ---------------- BM schemes ----------------

const char* SchemeName(Scheme s) {
  switch (s) {
    case Scheme::kDt: return "DT";
    case Scheme::kAbm: return "ABM";
    case Scheme::kPushout: return "Pushout";
    case Scheme::kOccamy: return "Occamy";
    case Scheme::kOccamyLongestDrop: return "Occamy-LQD";
    case Scheme::kCompleteSharing: return "CS";
    case Scheme::kEdt: return "EDT";
    case Scheme::kTdt: return "TDT";
    case Scheme::kQpo: return "QPO";
  }
  return "?";
}

double DefaultAlpha(Scheme s) {
  switch (s) {
    case Scheme::kDt: return 1.0;       // paper default, per [27]
    case Scheme::kAbm: return 2.0;      // paper §6.2
    case Scheme::kOccamy: return 8.0;   // paper recommendation §4.4
    case Scheme::kOccamyLongestDrop: return 8.0;
    case Scheme::kEdt: return 1.0;
    case Scheme::kTdt: return 1.0;  // TDT carries per-state alphas itself
    default: return 1.0;
  }
}

net::BmSchemeFactory MakeFactory(Scheme s) {
  switch (s) {
    case Scheme::kDt:
      return [] { return std::make_unique<bm::DynamicThreshold>(); };
    case Scheme::kAbm:
      return [] { return std::make_unique<bm::Abm>(); };
    case Scheme::kPushout:
      return [] { return std::make_unique<bm::Pushout>(); };
    case Scheme::kOccamy:
    case Scheme::kOccamyLongestDrop:
      return [] { return std::make_unique<core::OccamyBm>(); };
    case Scheme::kCompleteSharing:
      return [] { return std::make_unique<bm::CompleteSharing>(); };
    case Scheme::kEdt:
      return [] { return std::make_unique<bm::EnhancedDt>(); };
    case Scheme::kTdt:
      return [] { return std::make_unique<bm::TrafficAwareDt>(); };
    case Scheme::kQpo:
      return [] { return std::make_unique<bm::QuasiPushout>(); };
  }
  return nullptr;
}

void ApplyScheme(tm::TmConfig& tm, Scheme s, std::vector<double> alphas) {
  if (alphas.empty()) {
    alphas.assign(static_cast<size_t>(std::max(1, tm.queues_per_port)), DefaultAlpha(s));
  }
  tm.class_configs.clear();
  for (size_t c = 0; c < alphas.size(); ++c) {
    tm::TmQueueConfig qc;
    qc.alpha = alphas[c];
    qc.priority = static_cast<int>(c);
    tm.class_configs.push_back(qc);
  }
  tm.enable_expulsion =
      (s == Scheme::kOccamy || s == Scheme::kOccamyLongestDrop);
  tm.expulsion.policy = (s == Scheme::kOccamyLongestDrop)
                            ? core::DropPolicy::kLongestQueue
                            : core::DropPolicy::kRoundRobin;
}

// ---------------- scale and engine ----------------

BenchScale GetBenchScale() {
  const std::string s = GetEnvOr("OCCAMY_BENCH_SCALE", "default");
  if (s == "smoke") return BenchScale::kSmoke;
  if (s == "full") return BenchScale::kFull;
  return BenchScale::kDefault;
}

sim::ShardedSimulator::Options EngineOptions(Time lookahead, uint64_t seed, int shards,
                                             bool use_threads, int window_batch) {
  sim::ShardedSimulator::Options opts;
  opts.shards = shards;
  opts.lookahead = lookahead;
  opts.seed = seed;
  opts.use_threads = use_threads;
  opts.window_batch = window_batch;
  return opts;
}

// ---------------- DPDK-style star testbed (§6.2) ----------------

net::StarConfig MakeStarConfig(const StarSpec& spec) {
  net::StarConfig cfg;
  cfg.num_hosts = spec.num_hosts;
  cfg.host_rate = spec.host_rate;
  cfg.host_rates = spec.host_rates;
  cfg.link_propagation = spec.link_propagation;
  cfg.switch_config.ports_per_partition =
      spec.ports_per_partition > 0 ? spec.ports_per_partition : spec.num_hosts;
  cfg.switch_config.tm.buffer_bytes = spec.buffer_bytes;
  cfg.switch_config.tm.ecn_threshold_bytes = spec.ecn_threshold_bytes;
  cfg.switch_config.tm.queues_per_port = spec.queues_per_port;
  cfg.switch_config.tm.scheduler = spec.scheduler;
  ApplyScheme(cfg.switch_config.tm, spec.scheme, spec.alphas);
  cfg.switch_config.scheme_factory = MakeFactory(spec.scheme);
  return cfg;
}

Time StarIdealFct(const StarSpec& spec, int64_t bytes) {
  const int64_t segments = (bytes + kDefaultMss - 1) / kDefaultMss;
  return 4 * spec.link_propagation +
         spec.host_rate.TxTime(bytes + segments * kHeaderBytes);
}

StarScenario::StarScenario(const StarSpec& spec, int shards, bool use_threads)
    : spec_(spec),
      cfg(MakeStarConfig(spec)),
      ssim(EngineOptions(spec.link_propagation, spec.seed, shards, use_threads,
                         spec.window_batch)),
      net(&ssim,
          [this, shards](net::NodeId id) { return net::StarShardOf(cfg, shards, id); },
          [shards](net::NodeId, int lane) { return net::StarLaneShardOf(shards, lane); }) {
  topo = net::BuildStar(net, cfg);
  manager = std::make_unique<transport::FlowManager>(&net);
  for (auto h : topo.hosts) manager->AttachHost(h);
}

// ---------------- Leaf-spine fabric (§6.4) ----------------

net::LeafSpineConfig MakeFabricLeafSpineConfig(const FabricSpec& spec, BenchScale scale,
                                               int64_t& buffer_per_partition) {
  net::LeafSpineConfig cfg;
  switch (scale) {
    case BenchScale::kSmoke:
      cfg.num_spines = 2;
      cfg.num_leaves = 2;
      cfg.hosts_per_leaf = 4;
      cfg.host_rate = cfg.uplink_rate = Bandwidth::Gbps(10);
      break;
    case BenchScale::kDefault:
      cfg.num_spines = 4;
      cfg.num_leaves = 4;
      cfg.hosts_per_leaf = 8;
      cfg.host_rate = cfg.uplink_rate = Bandwidth::Gbps(10);
      break;
    case BenchScale::kFull:
      cfg.num_spines = 8;
      cfg.num_leaves = 8;
      cfg.hosts_per_leaf = 16;
      cfg.host_rate = cfg.uplink_rate = Bandwidth::Gbps(100);
      break;
  }
  cfg.link_propagation = Microseconds(10);  // 80us base RTT across spine
  cfg.ports_per_partition = 8;
  // Buffer: density * 8 ports * Gbps per port (per partition).
  const double gbps = cfg.host_rate.gbps();
  buffer_per_partition =
      static_cast<int64_t>(spec.buffer_per_port_per_gbps * 8.0 * gbps);
  cfg.tm.buffer_bytes = buffer_per_partition;
  cfg.tm.queues_per_port = spec.queues_per_port;
  cfg.tm.scheduler = spec.scheduler;
  const int64_t bdp = cfg.host_rate.BytesIn(Microseconds(80));
  cfg.tm.ecn_threshold_bytes =
      static_cast<int64_t>(spec.ecn_bdp_fraction * static_cast<double>(bdp));
  ApplyScheme(cfg.tm, spec.scheme, spec.alphas);
  cfg.scheme_factory = MakeFactory(spec.scheme);
  return cfg;
}

namespace {

int FabricHostIndexOf(const net::LeafSpineTopology& topo, net::NodeId id) {
  for (size_t i = 0; i < topo.hosts.size(); ++i) {
    if (topo.hosts[i] == id) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

Time FabricIdealFct(const net::LeafSpineTopology& topo, net::NodeId src, net::NodeId dst,
                    int64_t bytes) {
  const int64_t segments = (bytes + kDefaultMss - 1) / kDefaultMss;
  return topo.BaseRtt(FabricHostIndexOf(topo, src), FabricHostIndexOf(topo, dst)) +
         topo.config.host_rate.TxTime(bytes + segments * kHeaderBytes);
}

Time FabricQueryIdealFct(const net::LeafSpineTopology& topo, int64_t bytes) {
  const int64_t segments = (bytes + kDefaultMss - 1) / kDefaultMss;
  return Microseconds(80) + topo.config.host_rate.TxTime(bytes + segments * kHeaderBytes);
}

FabricScenario::FabricScenario(const FabricSpec& spec, BenchScale scale, int shards,
                               bool use_threads)
    : cfg(MakeFabricLeafSpineConfig(spec, scale, buffer_per_partition)),
      ssim(EngineOptions(cfg.link_propagation, spec.seed, shards, use_threads,
                         spec.window_batch)),
      net(&ssim, [this, shards](net::NodeId id) {
        return net::LeafSpineShardOf(cfg, shards, id);
      }) {
  topo = net::BuildLeafSpine(net, cfg);
  manager = std::make_unique<transport::FlowManager>(&net);
  for (auto h : topo.hosts) manager->AttachHost(h);
}

}  // namespace occamy::exp

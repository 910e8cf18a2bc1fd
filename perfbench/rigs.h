// The three benchmark workloads, built from the same public calls the
// scenario runner uses (bench/common + src/net + src/transport), with one
// difference: the switch BM-scheme factory is the caller's, so the traced
// driver can wrap every scheme in a timing decorator.
//
// The run specs below must mirror src/exp/scenario_runner.cc (RunStar for
// burst_absorption/choking, RunFabricScenario for websearch). The traced
// driver checks that its simulated outcomes equal the untraced
// `occamy_sim run` of the same point, so any drift shows as a failed run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench/common/dpdk_run.h"
#include "bench/common/fabric_run.h"

namespace occamy::perfbench {

enum class Platform { kStar, kFabric };

struct WorkloadInfo {
  const char* name;
  const char* scenario;  // occamy_sim --scenario
  Platform platform;
  int shards;
};

inline const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> kTable = {
      {"star_burst_absorption", "burst_absorption", Platform::kStar, 1},
      {"star_choking", "choking", Platform::kStar, 1},
      {"fabric_websearch", "websearch", Platform::kFabric, 2},
  };
  return kTable;
}

inline const WorkloadInfo* WorkloadByName(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// RunStar's DpdkRunSpec for the occamy scheme (no knob overrides).
inline bench::DpdkRunSpec StarRunSpec(const WorkloadInfo& w, uint64_t seed,
                                      bench::BenchScale scale) {
  bench::DpdkRunSpec run;
  run.scheme = bench::Scheme::kOccamy;
  run.seed = seed;
  run.scale = scale;
  run.shards = w.shards;
  if (std::string(w.scenario) == "burst_absorption") {
    run.bg = bench::DpdkRunSpec::Bg::kWebSearchDctcp;
    run.bg_load = 0.5;
  } else {  // choking (Fig. 15)
    run.queues_per_port = 8;
    run.scheduler = tm::SchedulerKind::kStrictPriority;
    run.alphas = {8.0, 1, 1, 1, 1, 1, 1, 1};
    run.bg = bench::DpdkRunSpec::Bg::kSaturatingLp;
    run.bg_load = 1.0;
    run.query_tc = 0;
    run.query_bytes = run.buffer_bytes * 2;
  }
  return run;
}

// RunFabricScenario's FabricRunSpec for websearch under occamy.
inline bench::FabricRunSpec FabricRunSpec(const WorkloadInfo& w, uint64_t seed,
                                          bench::BenchScale scale) {
  bench::FabricRunSpec run;
  run.scheme = bench::Scheme::kOccamy;
  run.seed = seed;
  run.scale = scale;
  run.shards = w.shards;
  run.pattern = bench::BgPattern::kWebSearch;
  run.bg_load = 0.9;
  return run;
}

// Wraps the factory a config carries; identity when `wrap` is empty.
using FactoryWrap = std::function<net::BmSchemeFactory(net::BmSchemeFactory)>;

// ShardedStarScenario with a caller-wrapped BM factory.
struct StarRig {
  StarRig(const bench::StarSpec& spec, int shards, const FactoryWrap& wrap)
      : spec_(spec),
        cfg(MakeConfig(spec, wrap)),
        ssim(MakeOptions(spec, shards)),
        net(&ssim,
            [this, shards](net::NodeId id) { return net::StarShardOf(cfg, shards, id); },
            [shards](net::NodeId, int lane) { return net::StarLaneShardOf(shards, lane); }) {
    topo = net::BuildStar(net, cfg);
    manager = std::make_unique<transport::FlowManager>(&net);
    for (auto h : topo.hosts) manager->AttachHost(h);
  }

  workload::IdealFn IdealFn() const {
    return [this](net::NodeId, net::NodeId, int64_t bytes) {
      return bench::StarIdealFct(spec_, bytes);
    };
  }
  net::SwitchNode& sw() { return topo.sw(net); }

  bench::StarSpec spec_;
  net::StarConfig cfg;
  sim::ShardedSimulator ssim;
  net::Network net;
  net::StarTopology topo;
  std::unique_ptr<transport::FlowManager> manager;

 private:
  static net::StarConfig MakeConfig(const bench::StarSpec& spec, const FactoryWrap& wrap) {
    net::StarConfig c = bench::MakeStarConfig(spec);
    if (wrap) c.switch_config.scheme_factory = wrap(c.switch_config.scheme_factory);
    return c;
  }
  static sim::ShardedSimulator::Options MakeOptions(const bench::StarSpec& spec,
                                                    int shards) {
    sim::ShardedSimulator::Options opts;
    opts.shards = shards;
    opts.lookahead = spec.link_propagation;
    opts.seed = spec.seed;
    opts.window_batch = spec.window_batch;
    return opts;
  }
};

// ShardedFabricScenario with a caller-wrapped BM factory.
struct FabricRig {
  FabricRig(const bench::FabricSpec& spec, bench::BenchScale scale, int shards,
            const FactoryWrap& wrap)
      : cfg(MakeConfig(spec, scale, wrap, buffer_per_partition)),
        ssim(MakeOptions(cfg, spec, shards)),
        net(&ssim, [this, shards](net::NodeId id) {
          return net::LeafSpineShardOf(cfg, shards, id);
        }) {
    topo = net::BuildLeafSpine(net, cfg);
    manager = std::make_unique<transport::FlowManager>(&net);
    for (auto h : topo.hosts) manager->AttachHost(h);
  }

  workload::IdealFn IdealFn() {
    return [this](net::NodeId s, net::NodeId d, int64_t b) {
      return bench::FabricIdealFct(topo, s, d, b);
    };
  }
  std::function<Time(net::NodeId, int64_t)> QueryIdealFn() {
    return [this](net::NodeId, int64_t bytes) {
      return bench::FabricQueryIdealFct(topo, bytes);
    };
  }

  int64_t buffer_per_partition = 0;
  net::LeafSpineConfig cfg;
  sim::ShardedSimulator ssim;
  net::Network net;
  net::LeafSpineTopology topo;
  std::unique_ptr<transport::FlowManager> manager;

 private:
  static net::LeafSpineConfig MakeConfig(const bench::FabricSpec& spec,
                                         bench::BenchScale scale, const FactoryWrap& wrap,
                                         int64_t& buffer_per_partition) {
    net::LeafSpineConfig c =
        bench::MakeFabricLeafSpineConfig(spec, scale, buffer_per_partition);
    if (wrap) c.scheme_factory = wrap(c.scheme_factory);
    return c;
  }
  static sim::ShardedSimulator::Options MakeOptions(const net::LeafSpineConfig& cfg,
                                                    const bench::FabricSpec& spec,
                                                    int shards) {
    sim::ShardedSimulator::Options opts;
    opts.shards = shards;
    opts.lookahead = cfg.link_propagation;
    opts.seed = spec.seed;
    opts.window_batch = spec.window_batch;
    return opts;
  }
};

inline bench::FabricSpec MakeFabricSpec(const bench::FabricRunSpec& run) {
  bench::FabricSpec spec;
  spec.scheme = run.scheme;
  spec.alphas = run.alphas;
  spec.buffer_per_port_per_gbps = run.buffer_per_port_per_gbps;
  spec.seed = run.seed;
  spec.window_batch = run.window_batch;
  return spec;
}

}  // namespace occamy::perfbench

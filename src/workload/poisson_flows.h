// Poisson open-loop flow workload configuration.
//
// The common model behind the paper's background workloads: flows arrive as
// a Poisson process at a rate derived from the target load, with sizes drawn
// from a distribution and endpoints drawn from a pluggable pair sampler
// (uniform 1-to-1 for web-search background, tree edges for all-reduce).
// workload::PregeneratePoissonFlows (pregen.h) expands a config into its
// arrival schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/net/network.h"
#include "src/stats/cdf.h"
#include "src/transport/flow.h"
#include "src/util/bandwidth.h"
#include "src/util/rng.h"

namespace occamy::workload {

// Returns the ideal (unloaded) duration of a transfer, for slowdown metrics.
using IdealFn = std::function<Time(net::NodeId src, net::NodeId dst, int64_t bytes)>;

// Produces (src, dst) endpoint pairs for generated flows.
using PairSampler = std::function<std::pair<net::NodeId, net::NodeId>(Rng&)>;

struct PoissonFlowConfig {
  std::vector<net::NodeId> hosts;  // endpoint population (for load math)
  double load = 0.5;               // fraction of aggregate host uplink rate
  Bandwidth host_rate = Bandwidth::Gbps(10);
  stats::PiecewiseCdf size_dist = stats::PiecewiseCdf({{1000, 0}, {1000, 1}});
  uint8_t traffic_class = 0;
  transport::CcAlgorithm cc = transport::CcAlgorithm::kDctcp;
  Time start = 0;
  Time stop = Milliseconds(10);
  IdealFn ideal_fn;          // optional
  PairSampler pair_sampler;  // default: uniform ordered pairs from `hosts`
  uint64_t seed = 1;
};

// The uniform ordered-pair sampler installed when a config leaves
// `pair_sampler` unset.
PairSampler DefaultPairSampler(std::vector<net::NodeId> hosts);

// Mean flow inter-arrival time implied by `config` (load / mean size math).
Time MeanInterarrivalOf(const PoissonFlowConfig& config);

}  // namespace occamy::workload

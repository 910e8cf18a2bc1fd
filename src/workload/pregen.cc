#include "src/workload/pregen.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace occamy::workload {

std::vector<transport::FlowParams> PregeneratePoissonFlows(PoissonFlowConfig config) {
  OCCAMY_CHECK(!config.hosts.empty());
  OCCAMY_CHECK(config.load > 0.0);
  if (!config.pair_sampler) config.pair_sampler = DefaultPairSampler(config.hosts);
  const double mean_gap = static_cast<double>(MeanInterarrivalOf(config));

  std::vector<transport::FlowParams> out;
  Rng rng(config.seed);
  Time t = std::max<Time>(config.start, 0);
  // Per arrival: pair draw, then size draw, then the gap to the next
  // arrival, until `stop`.
  for (;;) {
    const auto [src, dst] = config.pair_sampler(rng);
    OCCAMY_CHECK(src != dst);
    transport::FlowParams params;
    params.src = src;
    params.dst = dst;
    params.size_bytes =
        std::max<int64_t>(1, static_cast<int64_t>(config.size_dist.Sample(rng)));
    params.traffic_class = config.traffic_class;
    params.cc = config.cc;
    params.start_time = t;
    if (config.ideal_fn) {
      params.ideal_duration = config.ideal_fn(src, dst, params.size_bytes);
    }
    out.push_back(params);

    const Time gap = static_cast<Time>(rng.Exponential(mean_gap)) + 1;
    t += gap;
    if (t > config.stop) break;
  }
  return out;
}

PregeneratedIncast PregenerateIncast(const IncastConfig& config) {
  OCCAMY_CHECK(!config.clients.empty());
  OCCAMY_CHECK(static_cast<int>(config.servers.size()) >= config.fanin)
      << "need at least fanin servers";
  OCCAMY_CHECK(config.fanin > 0);

  PregeneratedIncast out;
  out.query_size_bytes = config.query_size_bytes;
  Rng rng(config.seed);
  Time t = std::max<Time>(config.start, 0);
  uint64_t next_query_id = 1;
  // Per query: client draw, fanin partial shuffle, then the gap to the next
  // query (with the max_queries / stop cutoffs).
  for (;;) {
    const net::NodeId client = config.clients[rng.UniformInt(config.clients.size())];

    std::vector<net::NodeId> candidates;
    candidates.reserve(config.servers.size());
    for (net::NodeId s : config.servers) {
      if (s != client) candidates.push_back(s);
    }
    OCCAMY_CHECK(static_cast<int>(candidates.size()) >= config.fanin);
    for (int i = 0; i < config.fanin; ++i) {
      const size_t j = static_cast<size_t>(i) +
                       rng.UniformInt(candidates.size() - static_cast<size_t>(i));
      std::swap(candidates[static_cast<size_t>(i)], candidates[j]);
    }

    PregeneratedIncast::Query query;
    query.id = next_query_id++;
    query.client = client;
    query.issue_time = t;

    const int64_t per_flow =
        std::max<int64_t>(1, config.query_size_bytes / config.fanin);
    for (int i = 0; i < config.fanin; ++i) {
      transport::FlowParams params;
      params.src = candidates[static_cast<size_t>(i)];
      params.dst = client;
      params.size_bytes = per_flow;
      params.traffic_class = config.traffic_class;
      params.cc = config.cc;
      params.start_time = t;
      if (config.ideal_fn) {
        params.ideal_duration = config.ideal_fn(params.src, params.dst, per_flow);
      }
      query.flow_indices.push_back(out.flows.size());
      out.flows.push_back(params);
    }
    out.queries.push_back(std::move(query));

    if (config.max_queries > 0 &&
        static_cast<int64_t>(out.queries.size()) >= config.max_queries) {
      break;
    }
    const double mean_gap_s = 1.0 / config.queries_per_second;
    const Time gap = FromSeconds(rng.Exponential(mean_gap_s)) + 1;
    t += gap;
    if (t > config.stop) break;
  }
  return out;
}

}  // namespace occamy::workload

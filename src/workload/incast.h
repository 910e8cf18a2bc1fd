// Incast (partition-aggregate) query workload configuration.
//
// A client issues a query to `fanin` servers; each server responds with
// query_size/fanin bytes; the Query Completion Time is measured from query
// issue until the last response flow finishes (the paper's QCT). Queries
// arrive as a Poisson process. workload::PregenerateIncast (pregen.h)
// expands a config into its flow schedule; exp::DeriveIncastQct derives
// QCT from the run's merged completion records.
//
// The (tiny) request packets are not simulated: response flows start at the
// query issue time, which shifts every QCT by a constant ~RTT/2 and does not
// affect any comparison across BM schemes.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/workload/poisson_flows.h"

namespace occamy::workload {

struct IncastConfig {
  std::vector<net::NodeId> clients;  // query issuers (aggregators)
  std::vector<net::NodeId> servers;  // responders
  int fanin = 16;
  int64_t query_size_bytes = 1'000'000;  // total response volume per query
  double queries_per_second = 100.0;     // aggregate Poisson rate
  int max_queries = 0;                   // 0 = unlimited until `stop`
  Time start = 0;
  Time stop = Milliseconds(10);
  uint8_t traffic_class = 0;
  transport::CcAlgorithm cc = transport::CcAlgorithm::kDctcp;
  IdealFn ideal_fn;  // ideal duration of one response flow (for FCT records)
  // Ideal QCT of a whole query at a client (for slowdown); optional.
  std::function<Time(net::NodeId client, int64_t total_bytes)> query_ideal_fn;
  uint64_t seed = 2;
};

}  // namespace occamy::workload

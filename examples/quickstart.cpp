// Quickstart: build a small shared-memory switch network, run an incast
// with Occamy buffer management, and print what happened.
//
//   $ ./build/examples/quickstart
//
// Walks through the core public API:
//   1. a simulator + Network,
//   2. a star topology around one switch with a chosen BM scheme,
//   3. a transport layer (DCTCP) and an incast (partition-aggregate) query,
//   4. the statistics every experiment in this repo is built on.
#include <cstdio>
#include <memory>
#include <vector>

#include "src/core/occamy_bm.h"
#include "src/exp/platform_runs.h"
#include "src/net/topology.h"
#include "src/transport/flow_manager.h"
#include "src/workload/pregen.h"

using namespace occamy;

int main() {
  // 1. The discrete-event simulator that drives everything: one shard, with
  //    a conservative window no longer than the shortest link delay.
  sim::ShardedSimulator::Options options;
  options.seed = 42;
  options.lookahead = Microseconds(2);
  sim::ShardedSimulator simulator(options);
  net::Network network(&simulator, [](net::NodeId) { return 0; });

  // 2. Eight 10G hosts around one switch with a 410KB shared buffer
  //    (5.12KB/port/Gbps, the Tomahawk ratio) managed by Occamy:
  //    DT admission with alpha=8 plus the reactive expulsion engine.
  net::StarConfig star;
  star.num_hosts = 8;
  star.host_rate = Bandwidth::Gbps(10);
  star.link_propagation = Microseconds(2);
  star.switch_config.tm.buffer_bytes = 410 * 1000;
  star.switch_config.tm.ecn_threshold_bytes = 65 * 1500;  // DCTCP marking
  star.switch_config.tm.class_configs = {{.alpha = 8.0, .priority = 0}};
  star.switch_config.tm.enable_expulsion = true;  // Occamy's reactive component
  star.switch_config.scheme_factory = [] { return std::make_unique<core::OccamyBm>(); };
  net::StarTopology topo = net::BuildStar(network, star);

  // 3. Transport layer: DCTCP flows with a 5ms minimum RTO.
  transport::FlowManager flows(&network);
  for (auto host : topo.hosts) flows.AttachHost(host);

  // An incast: host 0 asks 7 servers for 50KB each (350KB total - most of
  // the shared buffer arriving at one 10G port at once). The query arrivals
  // are open loop, so the whole schedule is generated before the run.
  workload::IncastConfig incast_cfg;
  incast_cfg.clients = {topo.hosts[0]};
  incast_cfg.servers = {topo.hosts.begin() + 1, topo.hosts.end()};
  incast_cfg.fanin = 7;
  incast_cfg.query_size_bytes = 350 * 1000;
  incast_cfg.max_queries = 20;
  incast_cfg.queries_per_second = 500;
  incast_cfg.stop = Milliseconds(50);
  const workload::PregeneratedIncast incast = workload::PregenerateIncast(incast_cfg);
  std::vector<uint64_t> flow_ids;
  for (const auto& params : incast.flows) flow_ids.push_back(flows.StartFlow(params));

  // 4. Run and report. A query completes when its last response flow does.
  simulator.RunUntil(Milliseconds(200));
  flows.MergeShardCompletions();
  const stats::CompletionCollector queries =
      exp::DeriveIncastQct(incast, flow_ids, flows.completions(), nullptr);

  const auto qct = queries.DurationsMs();
  std::printf("queries:       %zu issued, %zu completed\n", incast.queries.size(),
              queries.Count());
  std::printf("QCT:           avg %.3f ms, p99 %.3f ms\n", qct.Mean(), qct.P99());

  auto& sw = topo.sw(network);
  auto& tm_stats = sw.partition(0).stats();
  std::printf("switch:        %lld pkts enqueued, %lld drops (%lld admission)\n",
              static_cast<long long>(tm_stats.enqueued_packets),
              static_cast<long long>(tm_stats.TotalDrops()),
              static_cast<long long>(tm_stats.admission_drops));
  std::printf("occamy:        %lld packets expelled (%lld KB reclaimed)\n",
              static_cast<long long>(tm_stats.expelled_packets),
              static_cast<long long>(tm_stats.expelled_bytes / 1000));
  std::printf("transport:     %lld RTOs, %lld fast retransmits\n",
              static_cast<long long>(flows.counters().rtos),
              static_cast<long long>(flows.counters().fast_retransmits));
  std::printf("sim:           %llu events, %.1f ms simulated\n",
              static_cast<unsigned long long>(simulator.processed_events()),
              ToMilliseconds(network.now()));
  return 0;
}

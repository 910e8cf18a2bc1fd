// FlowManager: the per-network transport layer.
//
// Owns every Connection, installs the receive demultiplexer on each host,
// and records flow completions (FCT + slowdown) into a CompletionCollector.
//
// Connections are created up front (before RunUntil) and the map is
// read-only while shards execute; counters and completion records go to
// per-shard slots (selected by sim::CurrentShard()), and the runner merges
// completions into the canonical (end, id) order afterwards. Workload
// statistics (e.g. incast QCT) are derived from the merged records.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/net/host.h"
#include "src/net/network.h"
#include "src/stats/completion_stats.h"
#include "src/transport/connection.h"
#include "src/transport/flow.h"

namespace occamy::transport {

class FlowManager {
 public:
  explicit FlowManager(net::Network* net, TransportConfig config = {});

  FlowManager(const FlowManager&) = delete;
  FlowManager& operator=(const FlowManager&) = delete;

  // Installs this manager as the receiver on `host_id`. Topology builders
  // create hosts; call this for every host that terminates flows.
  void AttachHost(net::NodeId host_id);

  // Creates and schedules a flow. If params.id is 0 a fresh id is assigned.
  // Returns the flow id.
  uint64_t StartFlow(FlowParams params);

  // Completion records; call MergeShardCompletions() after the run first.
  stats::CompletionCollector& completions() { return completions_; }

  // Moves every per-shard completion record into completions(), sorted by (end, id) — an order independent of the shard
  // count, which keeps downstream metrics byte-identical.
  void MergeShardCompletions();

  const TransportConfig& config() const { return config_; }
  net::Network& network() { return *net_; }
  net::Host& host(net::NodeId id) { return static_cast<net::Host&>(net_->node(id)); }

  // Aggregate transport counters.
  struct Counters {
    int64_t flows_started = 0;
    int64_t flows_completed = 0;
    int64_t data_packets_sent = 0;
    int64_t retransmitted_packets = 0;
    int64_t acks_sent = 0;
    int64_t rtos = 0;
    int64_t fast_retransmits = 0;
  };
  // Summed across shards (integer sums: order-independent, deterministic).
  Counters counters() const;

  Connection* FindConnection(uint64_t flow_id);

 private:
  friend class Connection;

  // The counter slot of the shard executing on this thread.
  Counters& mutable_counters();

  void Dispatch(net::NodeId at_host, const Packet& pkt);
  void OnConnectionComplete(Connection* conn, Time end_time);

  // Per-shard mutable slots, padded against false sharing.
  struct alignas(64) ShardState {
    Counters counters;
    stats::CompletionCollector completions;
  };

  net::Network* net_;
  TransportConfig config_;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  stats::CompletionCollector completions_;
  std::vector<ShardState> shard_state_;
};

}  // namespace occamy::transport

// Base class for network nodes (hosts and switches).
#pragma once

#include <cstdint>
#include <vector>

#include "src/buffer/packet.h"
#include "src/util/time.h"

namespace occamy {
namespace sim {
class Simulator;
}  // namespace sim

namespace net {

class Network;

using NodeId = uint32_t;

class Node {
 public:
  virtual ~Node() = default;

  // Called by the network when a packet arrives on `in_port`.
  virtual void ReceivePacket(int in_port, Packet pkt) = 0;

  // Intra-node sharding (see Network::BindNodeLanes): the lane whose shard
  // must execute ReceivePacket for this packet. A lane-sharded switch fans
  // its work across shards along its buffer partitions, so the lane of an
  // arrival is the partition owning the packet's egress port — a pure
  // function of (in_port, pkt, arrival time), never of thread timing. `at`
  // is the packet's arrival time: with epoch-versioned routes (fault-driven
  // rerouting) the egress port depends on which route epoch is active when
  // the packet arrives, and passing the arrival time explicitly keeps the
  // sender-side shard routing and the receiver-side route lookup in exact
  // agreement. Plain nodes have a single lane 0.
  virtual int RxLane(int in_port, const Packet& pkt, Time at) const {
    (void)in_port;
    (void)pkt;
    (void)at;
    return 0;
  }

  NodeId id() const { return id_; }
  Network* network() const { return network_; }

  // The simulator that runs this node's events: its owning shard's. Set by Network::AddNode; all of a node's scheduling must go through it.
  // Lane-sharded nodes (see Network::BindNodeLanes) span several shards and
  // must schedule per-lane work on Network::LaneSim instead.
  sim::Simulator& sim() const { return *sim_; }

 private:
  friend class Network;
  NodeId id_ = 0;
  Network* network_ = nullptr;
  sim::Simulator* sim_ = nullptr;
  // Per-(source, lane) sequence of DeliverAfter calls; part of the
  // canonical cross-shard merge key (see Network::DeliverAfter). One slot
  // per lane (plain nodes: just lane 0); each lane is produced from exactly
  // one shard, so the counters need no synchronization.
  std::vector<uint64_t> lane_delivery_seq_ = {0};
};

}  // namespace net
}  // namespace occamy

#include "src/net/switch.h"

#include "src/util/logging.h"

namespace occamy::net {

SwitchNode::SwitchNode(SwitchConfig config) : config_(std::move(config)) {
  OCCAMY_CHECK(config_.num_ports > 0);
  OCCAMY_CHECK(config_.ports_per_partition > 0);
  OCCAMY_CHECK(config_.scheme_factory != nullptr);
  // Broadcast single-entry rate/propagation vectors; default missing ones.
  if (config_.port_rates.empty()) config_.port_rates.push_back(Bandwidth::Gbps(10));
  if (config_.port_rates.size() == 1) {
    config_.port_rates.assign(static_cast<size_t>(config_.num_ports), config_.port_rates[0]);
  }
  if (config_.port_propagations.empty()) config_.port_propagations.push_back(Microseconds(1));
  if (config_.port_propagations.size() == 1) {
    config_.port_propagations.assign(static_cast<size_t>(config_.num_ports),
                                     config_.port_propagations[0]);
  }
  OCCAMY_CHECK_EQ(static_cast<int>(config_.port_rates.size()), config_.num_ports);
  OCCAMY_CHECK_EQ(static_cast<int>(config_.port_propagations.size()), config_.num_ports);

  ports_.resize(static_cast<size_t>(config_.num_ports));
  for (int p = 0; p < config_.num_ports; ++p) {
    ports_[static_cast<size_t>(p)].rate = config_.port_rates[static_cast<size_t>(p)];
    ports_[static_cast<size_t>(p)].propagation =
        config_.port_propagations[static_cast<size_t>(p)];
  }
}

void SwitchNode::Initialize() {
  OCCAMY_CHECK(!initialized_);
  OCCAMY_CHECK(network() != nullptr) << "AddNode before Initialize";
  const int num_partitions =
      (config_.num_ports + config_.ports_per_partition - 1) / config_.ports_per_partition;
  // Partitions are this node's lanes: each binds to one shard (intra-switch
  // sharding for single-switch topologies; all on the node's own shard in
  // node-sharded fabrics) and everything the partition owns is built on
  // that shard's simulator.
  network()->BindNodeLanes(id(), num_partitions);
  port_partition_.resize(static_cast<size_t>(config_.num_ports));
  port_local_.resize(static_cast<size_t>(config_.num_ports));
  lane_state_ = std::vector<LaneState>(static_cast<size_t>(num_partitions));
  for (int base = 0; base < config_.num_ports; base += config_.ports_per_partition) {
    const int count = std::min(config_.ports_per_partition, config_.num_ports - base);
    const int lane = static_cast<int>(partitions_.size());
    sim::Simulator* lane_sim = &network()->LaneSim(id(), lane);
    tm::TmConfig cfg = config_.tm;
    cfg.port_rates.clear();
    for (int i = 0; i < count; ++i) {
      cfg.port_rates.push_back(config_.port_rates[static_cast<size_t>(base + i)]);
      port_partition_[static_cast<size_t>(base + i)] = lane;
      port_local_[static_cast<size_t>(base + i)] = i;
      ports_[static_cast<size_t>(base + i)].sim = lane_sim;
      ports_[static_cast<size_t>(base + i)].lane = lane;
    }
    partitions_.push_back(
        std::make_unique<tm::TmPartition>(lane_sim, cfg, config_.scheme_factory()));
  }
  initialized_ = true;
}

void SwitchNode::ConnectPort(int port, LinkEnd peer) {
  OCCAMY_CHECK(port >= 0 && port < config_.num_ports);
  ports_[static_cast<size_t>(port)].peer = peer;
  ports_[static_cast<size_t>(port)].connected = true;
}

void SwitchNode::SetRoute(NodeId dst, std::vector<int> ports) {
  OCCAMY_CHECK(!ports.empty());
  routes_[dst] = std::move(ports);
}

void SwitchNode::SetRouteOutages(std::vector<RouteEpoch> epochs) {
  for (size_t i = 0; i < epochs.size(); ++i) {
    OCCAMY_CHECK_EQ(static_cast<int>(epochs[i].excluded.size()), config_.num_ports);
    if (i > 0) {
      OCCAMY_CHECK(epochs[i - 1].start < epochs[i].start) << "unsorted route epochs";
    }
  }
  route_epochs_ = std::move(epochs);
}

void SwitchNode::OnRouteEpochPublished() {
  OCCAMY_CHECK(initialized_);
  // The publication path is pinned to lane 0's shard; running it anywhere
  // else would mean the injector armed the marker on the wrong simulator.
  OCCAMY_ASSERT_SHARD(network()->LaneSim(id(), 0));
  ++route_epochs_published_;
}

int SwitchNode::RoutePort(const Packet& pkt, Time at) const {
  const auto it = routes_.find(pkt.dst);
  if (it == routes_.end()) return -1;
  const std::vector<int>& candidates = it->second;
  // Per-flow ECMP; mix in the switch id so hashing does not polarize
  // across tiers.
  if (route_epochs_.empty() || route_epochs_.front().start > at) {
    if (candidates.size() == 1) return candidates[0];
    const uint64_t h = SplitMix64(pkt.flow_id ^ SplitMix64(id() + 0x9e37));
    return candidates[h % candidates.size()];
  }
  // Active epoch: the last one whose start <= at. The table is immutable
  // during the run and the lookup is a pure function of the arrival time,
  // so every shard (sender-side RxLane routing and the receiving lane's
  // ReceivePacket) agrees on the egress port.
  size_t lo = 0, hi = route_epochs_.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (route_epochs_[mid].start <= at) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const std::vector<uint8_t>& excluded = route_epochs_[lo].excluded;
  size_t survivors = 0;
  for (const int c : candidates) {
    if (!excluded[static_cast<size_t>(c)]) ++survivors;
  }
  if (survivors == 0 || survivors == candidates.size()) {
    // Total outage keeps the base set (drops then count at the dead wire);
    // no exclusions in this group means the base hash applies unchanged.
    if (candidates.size() == 1) return candidates[0];
    const uint64_t h = SplitMix64(pkt.flow_id ^ SplitMix64(id() + 0x9e37));
    return candidates[h % candidates.size()];
  }
  // Re-hash the flow across the surviving candidates.
  const uint64_t h = SplitMix64(pkt.flow_id ^ SplitMix64(id() + 0x9e37));
  size_t pick = h % survivors;
  for (const int c : candidates) {
    if (excluded[static_cast<size_t>(c)]) continue;
    if (pick == 0) return c;
    --pick;
  }
  return candidates[0];  // unreachable; survivors > 0
}

int SwitchNode::RxLane(int in_port, const Packet& pkt, Time at) const {
  OCCAMY_CHECK(initialized_);
  const int egress = RoutePort(pkt, at);
  return port_partition_[static_cast<size_t>(egress >= 0 ? egress : in_port)];
}

void SwitchNode::DropRouteless(int lane, const Packet& pkt) {
  int64_t& drops = lane_state_[static_cast<size_t>(lane)].routeless_drops;
  ++drops;
  // A missing route drops every packet of the flow; log the first few
  // occurrences per lane and leave the rest to the counter.
  constexpr int64_t kMaxRouteMissLogs = 3;
  if (drops <= kMaxRouteMissLogs) {
    OCCAMY_LOG(Warn) << "switch " << id() << ": no route to " << pkt.dst << ", dropping"
                     << (drops == kMaxRouteMissLogs
                             ? " (further route misses counted in routeless_drops)"
                             : "");
  } else {
    OCCAMY_LOG(Debug) << "switch " << id() << ": no route to " << pkt.dst << ", dropping";
  }
}

void SwitchNode::ReceivePacket(int in_port, Packet pkt) {
  OCCAMY_CHECK(initialized_);
  // The executing shard's clock is the packet's arrival time on both
  // engines (arrival closures run at exactly the deliver time), matching
  // the `at` that RxShardOf routed this arrival with.
  const int egress = RoutePort(pkt, network()->CurrentSimNow());
  if (egress < 0) {
    // The RxLane contract routes a routeless arrival to the ingress port's
    // lane; its drop counter belongs to that lane's shard.
    OCCAMY_ASSERT_SHARD(*ports_[static_cast<size_t>(in_port)].sim);
    DropRouteless(port_partition_[static_cast<size_t>(in_port)], pkt);
    return;
  }
  // RxLane routed this arrival to the egress partition's lane; executing it
  // anywhere else would race that partition's buffer.
  OCCAMY_ASSERT_SHARD(*ports_[static_cast<size_t>(egress)].sim);
  auto& part = partition_for_port(egress);
  const auto result = part.Enqueue(local_port(egress), std::move(pkt));
  if (result.accepted) KickTx(egress);
}

void SwitchNode::SetLaneFrozen(int lane, bool frozen) {
  OCCAMY_CHECK(initialized_);
  OCCAMY_CHECK(lane >= 0 && lane < num_partitions());
  OCCAMY_ASSERT_SHARD(network()->LaneSim(id(), lane));
  LaneState& state = lane_state_[static_cast<size_t>(lane)];
  if (state.frozen == frozen) return;
  state.frozen = frozen;
  if (frozen) return;
  // Thawed: restart the egress machinery of every port the partition owns
  // (an in-flight TX kept its busy flag, so re-kicking is idempotent).
  for (int port = 0; port < config_.num_ports; ++port) {
    if (port_partition_[static_cast<size_t>(port)] == lane &&
        ports_[static_cast<size_t>(port)].connected) {
      KickTx(port);
    }
  }
}

int64_t SwitchNode::RestartLane(int lane) {
  OCCAMY_CHECK(initialized_);
  OCCAMY_CHECK(lane >= 0 && lane < num_partitions());
  OCCAMY_ASSERT_SHARD(network()->LaneSim(id(), lane));
  return partitions_[static_cast<size_t>(lane)]->RestartFlush();
}

void SwitchNode::KickTx(int port) {
  PortState& state = ports_[static_cast<size_t>(port)];
  OCCAMY_ASSERT_SHARD(*state.sim);  // egress machinery is lane-confined
  // A frozen lane serves nothing: in-flight serialization completes, but
  // its completion's re-kick lands here and parks until SetLaneFrozen
  // thaws the partition.
  if (state.busy || lane_state_[static_cast<size_t>(state.lane)].frozen) return;
  OCCAMY_CHECK(state.connected) << "switch " << id() << " port " << port << " unwired";
  auto& part = partition_for_port(port);
  auto pkt = part.DequeueForPort(local_port(port));
  if (!pkt.has_value()) return;
  state.busy = true;
  state.tx_pkt = std::move(*pkt);
  // All of this port's egress machinery lives on its partition's shard:
  // the TX-complete event runs there and the delivery is stamped with the
  // partition index as its source lane.
  state.sim->After(state.rate.TxTime(state.tx_pkt.size_bytes), [this, port] {
    PortState& s = ports_[static_cast<size_t>(port)];
    network()->DeliverAfter(id(), s.propagation, s.peer, std::move(s.tx_pkt), s.lane);
    s.busy = false;
    KickTx(port);
  });
}

int64_t SwitchNode::TotalDrops() {
  int64_t total = 0;
  for (auto& p : partitions_) total += p->stats().TotalDrops();
  return total;
}

int64_t SwitchNode::TotalEnqueued() {
  int64_t total = 0;
  for (auto& p : partitions_) total += p->stats().enqueued_packets;
  return total;
}

void SwitchNode::set_drop_hook(std::function<void(const Packet&, tm::DropReason)> hook) {
  for (auto& p : partitions_) p->set_drop_hook(hook);
}

}  // namespace occamy::net

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/bm/dynamic_threshold.h"
#include "src/net/topology.h"
#include "src/workload/open_loop.h"
#include "tests/one_shard.h"

namespace occamy::net {
namespace {

SwitchConfig SmallSwitchConfig(int64_t buffer = 1000000) {
  SwitchConfig cfg;
  cfg.tm.buffer_bytes = buffer;
  cfg.scheme_factory = [] { return std::make_unique<bm::DynamicThreshold>(); };
  return cfg;
}

StarTopology MakeStar(Network& net, int hosts = 4, Bandwidth rate = Bandwidth::Gbps(10)) {
  StarConfig cfg;
  cfg.num_hosts = hosts;
  cfg.host_rate = rate;
  cfg.link_propagation = Microseconds(1);
  cfg.switch_config = SmallSwitchConfig();
  return BuildStar(net, cfg);
}

TEST(StarTest, PacketDeliveredEndToEnd) {
  testing::OneShardSim sim;
  Network& net = sim.net;
  auto topo = MakeStar(net);
  int received = 0;
  topo.host(net, 1).set_receiver([&](const Packet& p) {
    ++received;
    EXPECT_EQ(p.size_bytes, 1500u);
  });
  Packet pkt;
  pkt.src = topo.hosts[0];
  pkt.dst = topo.hosts[1];
  pkt.size_bytes = 1500;
  topo.host(net, 0).Send(pkt);
  sim.Run();
  EXPECT_EQ(received, 1);
}

TEST(StarTest, EndToEndLatencyIsSerializationPlusPropagation) {
  testing::OneShardSim sim;
  Network& net = sim.net;
  auto topo = MakeStar(net, 4, Bandwidth::Gbps(10));
  Time arrival = -1;
  topo.host(net, 1).set_receiver([&](const Packet&) { arrival = sim.now(); });
  Packet pkt;
  pkt.src = topo.hosts[0];
  pkt.dst = topo.hosts[1];
  pkt.size_bytes = 1250;  // 1us at 10G
  topo.host(net, 0).Send(pkt);
  sim.Run();
  // host tx (1us) + prop (1us) + switch tx (1us) + prop (1us) = 4us.
  EXPECT_EQ(arrival, Microseconds(4));
}

TEST(StarTest, NicSerializesBackToBack) {
  testing::OneShardSim sim;
  Network& net = sim.net;
  auto topo = MakeStar(net);
  std::vector<Time> arrivals;
  topo.host(net, 1).set_receiver([&](const Packet&) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 3; ++i) {
    Packet pkt;
    pkt.src = topo.hosts[0];
    pkt.dst = topo.hosts[1];
    pkt.size_bytes = 1250;
    topo.host(net, 0).Send(pkt);
  }
  sim.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Pipelined: spaced by one serialization time (1us).
  EXPECT_EQ(arrivals[1] - arrivals[0], Microseconds(1));
  EXPECT_EQ(arrivals[2] - arrivals[1], Microseconds(1));
}

TEST(StarTest, SwitchQueuesWhenReceiverSlower) {
  // 100G sender into a 10G receiver port: packets pile up in the switch.
  testing::OneShardSim sim;
  Network& net = sim.net;
  StarConfig cfg;
  cfg.num_hosts = 2;
  cfg.host_rates = {Bandwidth::Gbps(100), Bandwidth::Gbps(10)};
  cfg.link_propagation = Microseconds(1);
  cfg.switch_config = SmallSwitchConfig();
  auto topo = BuildStar(net, cfg);

  workload::OpenLoopConfig ol;
  ol.src = topo.hosts[0];
  ol.dst = topo.hosts[1];
  ol.rate = Bandwidth::Gbps(100);
  ol.packet_bytes = 1500;
  ol.total_bytes = 150000;  // 100 packets
  workload::OpenLoopSender sender(&net, ol);
  sender.Start();
  sim.RunUntil(Microseconds(13));
  auto& sw = topo.sw(net);
  EXPECT_GT(sw.QueueLengthBytes(1, 0), 50000);  // backlog on the 10G port
  sim.Run();
  EXPECT_EQ(topo.host(net, 1).rx_packets(), 100);  // all eventually delivered
}

TEST(StarTest, PartitioningSplitsPorts) {
  testing::OneShardSim sim;
  Network& net = sim.net;
  StarConfig cfg;
  cfg.num_hosts = 16;
  cfg.host_rate = Bandwidth::Gbps(10);
  cfg.switch_config = SmallSwitchConfig();
  cfg.switch_config.ports_per_partition = 8;
  auto topo = BuildStar(net, cfg);
  auto& sw = topo.sw(net);
  EXPECT_EQ(sw.num_partitions(), 2);
  // Ports 0-7 -> partition 0, ports 8-15 -> partition 1.
  EXPECT_EQ(&sw.partition_for_port(0), &sw.partition(0));
  EXPECT_EQ(&sw.partition_for_port(7), &sw.partition(0));
  EXPECT_EQ(&sw.partition_for_port(8), &sw.partition(1));
  EXPECT_EQ(sw.local_port(8), 0);
}

TEST(StarTest, DropHookFiresOnOverload) {
  testing::OneShardSim sim;
  Network& net = sim.net;
  StarConfig cfg;
  cfg.num_hosts = 2;
  cfg.host_rates = {Bandwidth::Gbps(100), Bandwidth::Gbps(10)};
  cfg.link_propagation = Microseconds(1);
  cfg.switch_config = SmallSwitchConfig(/*buffer=*/50000);
  auto topo = BuildStar(net, cfg);
  int64_t drops = 0;
  topo.sw(net).set_drop_hook([&](const Packet&, tm::DropReason) { ++drops; });

  workload::OpenLoopConfig ol;
  ol.src = topo.hosts[0];
  ol.dst = topo.hosts[1];
  ol.rate = Bandwidth::Gbps(100);
  ol.total_bytes = 1500 * 500;
  workload::OpenLoopSender sender(&net, ol);
  sender.Start();
  sim.Run();
  EXPECT_GT(drops, 0);
  EXPECT_EQ(drops, topo.sw(net).TotalDrops());
  // Conservation: sent = delivered + dropped.
  EXPECT_EQ(sender.packets_sent(), topo.host(net, 1).rx_packets() + drops);
}

// ---------- Leaf-spine ----------

LeafSpineConfig SmallFabric() {
  LeafSpineConfig cfg;
  cfg.num_spines = 2;
  cfg.num_leaves = 2;
  cfg.hosts_per_leaf = 4;
  cfg.host_rate = Bandwidth::Gbps(10);
  cfg.uplink_rate = Bandwidth::Gbps(10);
  cfg.link_propagation = Microseconds(1);
  cfg.tm.buffer_bytes = 1000000;
  cfg.scheme_factory = [] { return std::make_unique<bm::DynamicThreshold>(); };
  return cfg;
}

TEST(LeafSpineTest, TopologyShape) {
  testing::OneShardSim sim;
  Network& net = sim.net;
  auto topo = BuildLeafSpine(net, SmallFabric());
  EXPECT_EQ(topo.num_hosts(), 8);
  EXPECT_EQ(topo.leaves.size(), 2u);
  EXPECT_EQ(topo.spines.size(), 2u);
  EXPECT_EQ(topo.rack_of(0), 0);
  EXPECT_EQ(topo.rack_of(4), 1);
  EXPECT_EQ(topo.BaseRtt(0, 1), Microseconds(4));  // intra-rack: 2 links each way
  EXPECT_EQ(topo.BaseRtt(0, 4), Microseconds(8));  // cross-rack: 4 links each way
}

TEST(LeafSpineTest, IntraRackDelivery) {
  testing::OneShardSim sim;
  Network& net = sim.net;
  auto topo = BuildLeafSpine(net, SmallFabric());
  int received = 0;
  topo.host(net, 1).set_receiver([&](const Packet&) { ++received; });
  Packet pkt;
  pkt.src = topo.hosts[0];
  pkt.dst = topo.hosts[1];
  pkt.size_bytes = 1000;
  topo.host(net, 0).Send(pkt);
  sim.Run();
  EXPECT_EQ(received, 1);
}

TEST(LeafSpineTest, CrossRackDelivery) {
  testing::OneShardSim sim;
  Network& net = sim.net;
  auto topo = BuildLeafSpine(net, SmallFabric());
  int received = 0;
  topo.host(net, 5).set_receiver([&](const Packet&) { ++received; });
  Packet pkt;
  pkt.src = topo.hosts[0];
  pkt.dst = topo.hosts[5];
  pkt.size_bytes = 1000;
  pkt.flow_id = 42;
  topo.host(net, 0).Send(pkt);
  sim.Run();
  EXPECT_EQ(received, 1);
}

TEST(LeafSpineTest, EcmpSpreadsFlowsAcrossSpines) {
  testing::OneShardSim sim;
  Network& net = sim.net;
  LeafSpineConfig cfg = SmallFabric();
  cfg.num_spines = 4;
  auto topo = BuildLeafSpine(net, cfg);
  // Count arrivals at each spine by instrumenting spine enqueues.
  std::map<NodeId, int64_t> spine_packets;
  // Send many single-packet flows cross-rack; spine utilization should be
  // roughly uniform.
  int received = 0;
  topo.host(net, 4).set_receiver([&](const Packet&) { ++received; });
  const int kFlows = 2000;
  for (int f = 0; f < kFlows; ++f) {
    Packet pkt;
    pkt.src = topo.hosts[0];
    pkt.dst = topo.hosts[4];
    pkt.flow_id = static_cast<uint64_t>(f + 1);
    pkt.size_bytes = 100;
    topo.host(net, 0).Send(pkt);
  }
  sim.Run();
  EXPECT_EQ(received, kFlows);
  for (size_t s = 0; s < topo.spines.size(); ++s) {
    const int64_t enq = topo.spine(net, static_cast<int>(s)).TotalEnqueued();
    EXPECT_NEAR(static_cast<double>(enq), kFlows / 4.0, kFlows / 4.0 * 0.35)
        << "spine " << s;
  }
}

TEST(LeafSpineTest, SameFlowStaysOnOnePath) {
  testing::OneShardSim sim;
  Network& net = sim.net;
  auto topo = BuildLeafSpine(net, SmallFabric());
  // All packets of one flow must traverse exactly one spine.
  for (int f = 1; f <= 20; ++f) {
    for (int i = 0; i < 5; ++i) {
      Packet pkt;
      pkt.src = topo.hosts[0];
      pkt.dst = topo.hosts[4];
      pkt.flow_id = static_cast<uint64_t>(f);
      pkt.size_bytes = 100;
      topo.host(net, 0).Send(pkt);
    }
  }
  sim.Run();
  // Each flow's 5 packets landed on a single spine: counts are multiples of 5.
  for (size_t s = 0; s < topo.spines.size(); ++s) {
    const int64_t enq = topo.spine(net, static_cast<int>(s)).TotalEnqueued();
    EXPECT_EQ(enq % 5, 0) << "spine " << s;
  }
}

}  // namespace
}  // namespace occamy::net

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/bm/dynamic_threshold.h"
#include "src/exp/platform_runs.h"
#include "src/net/topology.h"
#include "src/transport/flow_manager.h"
#include "src/workload/collective.h"
#include "src/workload/flow_size_dist.h"
#include "src/workload/incast.h"
#include "src/workload/poisson_flows.h"
#include "src/workload/pregen.h"
#include "tests/one_shard.h"

namespace occamy::workload {
namespace {

TEST(WebSearchDistTest, MeanAndShape) {
  const auto dist = WebSearchDistribution();
  // Heavy-tailed DCTCP web-search distribution: mean ~1.7 MB.
  EXPECT_NEAR(dist.Mean(), 1.7e6, 0.2e6);
  Rng rng(3);
  int small = 0, large = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = dist.Sample(rng);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 30e6);
    if (v < 100e3) ++small;
    if (v > 1e6) ++large;
  }
  // >50% of flows are small, ~30% of flows are over 1MB.
  EXPECT_GT(static_cast<double>(small) / n, 0.5);
  EXPECT_NEAR(static_cast<double>(large) / n, 0.30, 0.03);
}

TEST(FixedSizeDistTest, Degenerate) {
  const auto dist = FixedSizeDistribution(4096);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(dist.Sample(rng), 4096.0);
  EXPECT_DOUBLE_EQ(dist.Mean(), 4096.0);
}

// ---------- Double binary tree ----------

TEST(TreeTest, InOrderTreeIsValid) {
  for (int n : {1, 2, 3, 7, 8, 16, 37, 128}) {
    const Tree t = BuildInOrderBinaryTree(n);
    ASSERT_EQ(t.size(), n);
    // Exactly one root; every other node has a valid parent.
    int roots = 0;
    std::vector<int> child_count(static_cast<size_t>(n), 0);
    for (int r = 0; r < n; ++r) {
      const int p = t.parent[static_cast<size_t>(r)];
      if (p < 0) {
        ++roots;
      } else {
        ASSERT_LT(p, n);
        ASSERT_NE(p, r);
        child_count[static_cast<size_t>(p)]++;
      }
    }
    EXPECT_EQ(roots, 1) << "n=" << n;
    // Binary: at most 2 children.
    for (int c : child_count) EXPECT_LE(c, 2);
    // Connected: walking up from any node reaches the root within n steps.
    for (int r = 0; r < n; ++r) {
      int cur = r, steps = 0;
      while (t.parent[static_cast<size_t>(cur)] >= 0 && steps++ <= n) {
        cur = t.parent[static_cast<size_t>(cur)];
      }
      EXPECT_EQ(cur, t.root()) << "n=" << n << " r=" << r;
    }
  }
}

TEST(TreeTest, DepthIsLogarithmic) {
  const Tree t = BuildInOrderBinaryTree(128);
  int max_depth = 0;
  for (int r = 0; r < 128; ++r) {
    int cur = r, depth = 0;
    while (t.parent[static_cast<size_t>(cur)] >= 0) {
      cur = t.parent[static_cast<size_t>(cur)];
      ++depth;
    }
    max_depth = std::max(max_depth, depth);
  }
  EXPECT_LE(max_depth, 8);  // ceil(log2(128)) + 1
}

TEST(TreeTest, DoubleTreeMirrorsRanks) {
  const auto [t1, t2] = BuildDoubleBinaryTree(16);
  for (int r = 0; r < 16; ++r) {
    const int p1 = t1.parent[static_cast<size_t>(15 - r)];
    const int p2 = t2.parent[static_cast<size_t>(r)];
    EXPECT_EQ(p2, p1 < 0 ? -1 : 15 - p1);
  }
}

TEST(TreeTest, InteriorInAtMostOneTree) {
  // The load-balancing property of double binary trees (even n): a rank with
  // children in T1 is a leaf in T2 and vice versa.
  for (int n : {8, 16, 64, 128}) {
    const auto [t1, t2] = BuildDoubleBinaryTree(n);
    std::vector<int> children1(static_cast<size_t>(n), 0), children2(children1);
    for (int r = 0; r < n; ++r) {
      if (t1.parent[static_cast<size_t>(r)] >= 0) {
        children1[static_cast<size_t>(t1.parent[static_cast<size_t>(r)])]++;
      }
      if (t2.parent[static_cast<size_t>(r)] >= 0) {
        children2[static_cast<size_t>(t2.parent[static_cast<size_t>(r)])]++;
      }
    }
    int both_interior = 0;
    for (int r = 0; r < n; ++r) {
      if (children1[static_cast<size_t>(r)] > 0 && children2[static_cast<size_t>(r)] > 0) {
        ++both_interior;
      }
    }
    // Allow a small number of exceptions (roots/odd middles).
    EXPECT_LE(both_interior, 2) << "n=" << n;
  }
}

TEST(TreeTest, AllReduceEdgeCount) {
  // 2 trees x (n-1) edges x 2 directions.
  EXPECT_EQ(AllReduceEdges(16).size(), 4u * 15u);
  EXPECT_EQ(AllReduceEdges(8).size(), 4u * 7u);
}

TEST(TreeTest, AllReduceEdgesAreValidPairs) {
  const auto edges = AllReduceEdges(32);
  for (const auto& [s, d] : edges) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 32);
    EXPECT_GE(d, 0);
    EXPECT_LT(d, 32);
    EXPECT_NE(s, d);
  }
}

// ---------- Pre-generated schedules ----------

// The documented draw order per arrival — endpoint pair, then size, then
// the gap to the next arrival — replayed by hand against the generator.
TEST(PregenTest, PoissonDrawOrderIsPinned) {
  PoissonFlowConfig cfg;
  cfg.hosts = {10, 11, 12, 13};
  cfg.load = 0.3;
  cfg.host_rate = Bandwidth::Gbps(10);
  cfg.size_dist = WebSearchDistribution();
  cfg.start = Microseconds(7);
  cfg.stop = Milliseconds(3);
  cfg.seed = 41;
  const auto flows = PregeneratePoissonFlows(cfg);
  ASSERT_GT(flows.size(), 3u);

  Rng rng(cfg.seed);
  const PairSampler pairs = DefaultPairSampler(cfg.hosts);
  const double mean_gap = static_cast<double>(MeanInterarrivalOf(cfg));
  Time t = cfg.start;
  for (const auto& f : flows) {
    const auto [src, dst] = pairs(rng);
    EXPECT_EQ(f.src, src);
    EXPECT_EQ(f.dst, dst);
    EXPECT_EQ(f.size_bytes,
              std::max<int64_t>(1, static_cast<int64_t>(cfg.size_dist.Sample(rng))));
    EXPECT_EQ(f.start_time, t);
    EXPECT_EQ(f.id, 0u);  // assigned by FlowManager::StartFlow
    t += static_cast<Time>(rng.Exponential(mean_gap)) + 1;
  }
  EXPECT_GT(t, cfg.stop);  // the schedule ends at the first arrival past stop
}

// Per query: client draw, then the fanin partial shuffle of the servers
// (client excluded), then the gap to the next query.
TEST(PregenTest, IncastDrawOrderIsPinned) {
  IncastConfig cfg;
  cfg.clients = {0, 1};
  cfg.servers = {0, 1, 2, 3, 4, 5};
  cfg.fanin = 3;
  cfg.query_size_bytes = 30000;
  cfg.queries_per_second = 5000;
  cfg.start = Microseconds(3);
  cfg.stop = Milliseconds(2);
  cfg.seed = 17;
  const PregeneratedIncast incast = PregenerateIncast(cfg);
  ASSERT_GT(incast.queries.size(), 2u);
  EXPECT_EQ(incast.flows.size(), incast.queries.size() * 3);

  Rng rng(cfg.seed);
  Time t = cfg.start;
  uint64_t id = 1;
  for (const auto& q : incast.queries) {
    const net::NodeId client = cfg.clients[rng.UniformInt(cfg.clients.size())];
    std::vector<net::NodeId> candidates;
    for (net::NodeId s : cfg.servers) {
      if (s != client) candidates.push_back(s);
    }
    for (size_t i = 0; i < 3; ++i) {
      std::swap(candidates[i], candidates[i + rng.UniformInt(candidates.size() - i)]);
    }
    EXPECT_EQ(q.id, id++);
    EXPECT_EQ(q.client, client);
    EXPECT_EQ(q.issue_time, t);
    ASSERT_EQ(q.flow_indices.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      const auto& f = incast.flows[q.flow_indices[i]];
      EXPECT_EQ(f.src, candidates[i]);
      EXPECT_EQ(f.dst, client);
      EXPECT_EQ(f.size_bytes, 10000);
      EXPECT_EQ(f.start_time, t);
    }
    t += FromSeconds(rng.Exponential(1.0 / cfg.queries_per_second)) + 1;
  }
  EXPECT_GT(t, cfg.stop);
}

TEST(PregenTest, IncastHonorsMaxQueriesAndStart) {
  IncastConfig cfg;
  cfg.clients = {0};
  cfg.servers = {1, 2, 3};
  cfg.fanin = 2;
  cfg.queries_per_second = 1e6;
  cfg.max_queries = 4;
  cfg.start = Milliseconds(1);
  cfg.stop = Milliseconds(100);
  const PregeneratedIncast incast = PregenerateIncast(cfg);
  ASSERT_EQ(incast.queries.size(), 4u);
  EXPECT_EQ(incast.queries[0].issue_time, Milliseconds(1));
}

// ---------- Schedules on a one-shard network ----------

struct WorkloadHarness {
  WorkloadHarness() : sim(Microseconds(1), /*seed=*/11), net(sim.net) {
    net::StarConfig cfg;
    cfg.num_hosts = 8;
    cfg.host_rate = Bandwidth::Gbps(10);
    cfg.link_propagation = Microseconds(1);
    cfg.switch_config.tm.buffer_bytes = 1000000;
    cfg.switch_config.tm.ecn_threshold_bytes = 65 * 1500;
    cfg.switch_config.scheme_factory = [] {
      return std::make_unique<bm::DynamicThreshold>();
    };
    topo = net::BuildStar(net, cfg);
    manager = std::make_unique<transport::FlowManager>(&net);
    for (auto h : topo.hosts) manager->AttachHost(h);
  }

  // Starts every flow of `incast`, runs until every queue drains, and
  // returns the per-query completion records.
  stats::CompletionCollector RunIncast(const PregeneratedIncast& incast) {
    std::vector<uint64_t> ids;
    for (const auto& params : incast.flows) ids.push_back(manager->StartFlow(params));
    sim.Run();
    manager->MergeShardCompletions();
    return exp::DeriveIncastQct(incast, ids, manager->completions(), nullptr);
  }

  testing::OneShardSim sim;
  net::Network& net;
  net::StarTopology topo;
  std::unique_ptr<transport::FlowManager> manager;
};

TEST(PoissonFlowsTest, GeneratesExpectedFlowCount) {
  WorkloadHarness h;
  PoissonFlowConfig cfg;
  cfg.hosts = h.topo.hosts;
  cfg.load = 0.4;
  cfg.host_rate = Bandwidth::Gbps(10);
  cfg.size_dist = FixedSizeDistribution(100000);
  cfg.stop = Milliseconds(20);
  cfg.seed = 5;
  const auto flows = PregeneratePoissonFlows(cfg);
  for (const auto& params : flows) h.manager->StartFlow(params);
  h.sim.Run();
  // Expected: load * rate * hosts / size * time
  //         = 0.4 * 1.25e9 * 8 / 1e5 * 0.02 = 800 flows.
  const auto generated = static_cast<int64_t>(flows.size());
  EXPECT_NEAR(static_cast<double>(generated), 800.0, 120.0);
  EXPECT_EQ(h.manager->counters().flows_started, generated);
  // All flows eventually complete.
  EXPECT_EQ(h.manager->counters().flows_completed, generated);
}

TEST(IncastTest, SingleQueryQctRecorded) {
  WorkloadHarness h;
  IncastConfig cfg;
  cfg.clients = {h.topo.hosts[0]};
  cfg.servers = {h.topo.hosts.begin() + 1, h.topo.hosts.end()};
  cfg.fanin = 7;
  cfg.query_size_bytes = 700000;
  cfg.max_queries = 1;
  cfg.stop = Milliseconds(50);
  const PregeneratedIncast incast = PregenerateIncast(cfg);
  ASSERT_EQ(incast.queries.size(), 1u);
  const stats::CompletionCollector qct = h.RunIncast(incast);
  ASSERT_EQ(qct.Count(), 1u);
  const auto& rec = qct.records()[0];
  EXPECT_EQ(rec.bytes, 700000);
  // 700KB into a 10G port takes >= 560us.
  EXPECT_GT(ToMilliseconds(rec.Duration()), 0.5);
}

TEST(IncastTest, PoissonQueriesComplete) {
  WorkloadHarness h;
  IncastConfig cfg;
  cfg.clients = {h.topo.hosts[0], h.topo.hosts[1]};
  cfg.servers = h.topo.hosts;
  cfg.fanin = 4;
  cfg.query_size_bytes = 100000;
  cfg.queries_per_second = 2000;
  cfg.stop = Milliseconds(10);
  const PregeneratedIncast incast = PregenerateIncast(cfg);
  EXPECT_GT(incast.queries.size(), 5u);
  EXPECT_EQ(h.RunIncast(incast).Count(), incast.queries.size());
}

TEST(IncastTest, ServersExcludeClient) {
  WorkloadHarness h;
  IncastConfig cfg;
  cfg.clients = {h.topo.hosts[0]};
  cfg.servers = h.topo.hosts;  // includes the client; must be excluded
  cfg.fanin = 7;
  cfg.query_size_bytes = 70000;
  cfg.queries_per_second = 10000;
  cfg.max_queries = 3;
  const PregeneratedIncast incast = PregenerateIncast(cfg);
  ASSERT_EQ(incast.queries.size(), 3u);
  for (const auto& f : incast.flows) EXPECT_NE(f.src, h.topo.hosts[0]);
  EXPECT_EQ(h.RunIncast(incast).Count(), 3u);
}

TEST(CollectiveTest, AllReduceFlowsFollowTreeEdges) {
  WorkloadHarness h;
  auto cfg = MakeAllReduceConfig(h.topo.hosts, 0.3, Bandwidth::Gbps(10), 50000,
                                 0, Milliseconds(5), 9);
  // Validate the sampler output against the edge set.
  const auto edges = AllReduceEdges(static_cast<int>(h.topo.hosts.size()));
  std::set<std::pair<net::NodeId, net::NodeId>> valid;
  for (const auto& [s, d] : edges) {
    valid.insert({h.topo.hosts[static_cast<size_t>(s)], h.topo.hosts[static_cast<size_t>(d)]});
  }
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(valid.count(cfg.pair_sampler(rng)) > 0);
  }
  // And the traffic runs to completion.
  const auto flows = PregeneratePoissonFlows(cfg);
  ASSERT_GT(flows.size(), 0u);
  for (const auto& params : flows) {
    EXPECT_TRUE(valid.count({params.src, params.dst}) > 0);
    h.manager->StartFlow(params);
  }
  h.sim.Run();
  EXPECT_EQ(h.manager->counters().flows_completed, static_cast<int64_t>(flows.size()));
}

}  // namespace
}  // namespace occamy::workload

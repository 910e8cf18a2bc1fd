// The runners' shared post-run path (src/exp/platform_runs.h) on all three
// paper platforms: RunStats must repeat what the engine and network report
// about themselves, and the delivered-bytes buckets that feed the
// --degradation report must add up to the delivered total.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <vector>

#include "src/exp/platform_runs.h"
#include "src/exp/scenario_runner.h"

namespace occamy::exp {
namespace {

// Collects a finished scenario through the runners' post-run path and checks
// every field against the engine's or the network's own reading.
template <typename Scenario>
void ExpectStatsMatchEngine(Scenario& s, const std::vector<net::NodeId>& switches) {
  RunStats st;
  CollectSwitchStats(s.net, switches, switches.size(), st);
  CollectRunStats(s.ssim, std::nullopt, st);
  EXPECT_GT(st.sim_events, 0);
  EXPECT_EQ(st.sim_events, static_cast<int64_t>(s.ssim.processed_events()));
  EXPECT_EQ(st.shards, s.ssim.num_shards());
  EXPECT_EQ(st.parallel_efficiency, s.ssim.parallel_efficiency());
  EXPECT_EQ(st.windows_run, s.ssim.windows_run());
  EXPECT_EQ(st.windows_executed, s.ssim.windows_executed());
  EXPECT_EQ(st.max_window_batch, s.ssim.max_window_batch());
  EXPECT_EQ(st.mailbox_staged, s.net.mailbox_staged());
  EXPECT_EQ(st.mailbox_drained, s.net.mailbox_drained());
  EXPECT_GT(st.mailbox_staged, 0u);
  EXPECT_EQ(st.mailbox_staged, st.mailbox_drained);
  int64_t drops = 0;
  for (const net::NodeId id : switches) {
    drops += static_cast<net::SwitchNode&>(s.net.node(id)).TotalDrops();
  }
  EXPECT_EQ(st.drops, drops);
}

TEST(RunStatsTest, BurstLabStatsMatchEngine) {
  StarSpec spec;
  spec.num_hosts = 4;
  spec.host_rates = {Bandwidth::Gbps(100), Bandwidth::Gbps(100), Bandwidth::Gbps(10),
                     Bandwidth::Gbps(10)};
  spec.link_propagation = Microseconds(1);
  spec.buffer_bytes = 200 * 1000;
  spec.ecn_threshold_bytes = 0;
  spec.scheme = Scheme::kOccamy;
  StarScenario s(spec, 2);
  workload::OpenLoopConfig cfg;
  cfg.src = s.topo.hosts[0];
  cfg.dst = s.topo.hosts[2];
  cfg.rate = Bandwidth::Gbps(100);
  cfg.stop = Microseconds(300);
  workload::OpenLoopSender sender(&s.net, cfg);
  sender.Start();
  s.ssim.RunUntil(Microseconds(500));
  ExpectStatsMatchEngine(s, {s.topo.switch_id});
}

TEST(RunStatsTest, StarStatsMatchEngine) {
  DpdkRunSpec run;
  run.scheme = Scheme::kOccamy;
  const StarSpec star = MakeDpdkStarSpec(run);
  StarScenario s(star, 2);
  for (const auto& params : workload::PregeneratePoissonFlows(MakeDpdkBgConfig(
           run, s.topo.hosts, star.host_rate, Milliseconds(2), s.IdealFn()))) {
    s.manager->StartFlow(params);
  }
  s.ssim.RunUntil(Milliseconds(4));
  ExpectStatsMatchEngine(s, {s.topo.switch_id});
}

TEST(RunStatsTest, FabricStatsMatchEngine) {
  FabricRunSpec run;
  run.scheme = Scheme::kOccamy;
  FabricSpec spec;
  spec.scheme = run.scheme;
  FabricScenario s(spec, BenchScale::kSmoke, 2);
  for (const auto& params : workload::PregeneratePoissonFlows(
           MakeFabricBgConfig(run, s.topo.hosts, s.topo.config.host_rate, Milliseconds(2),
                              s.IdealFn()))) {
    s.manager->StartFlow(params);
  }
  s.ssim.RunUntil(Milliseconds(4));
  ExpectStatsMatchEngine(s, FabricFaultTopology(s.topo).switches);
}

// Every runner fills the engine fields through the shared path.
TEST(RunStatsTest, RunnersReportEngineFields) {
  const auto expect_engine = [](const RunStats& r, const char* what) {
    EXPECT_GT(r.sim_events, 0) << what;
    EXPECT_EQ(r.shards, 2) << what;
    EXPECT_GT(r.windows_run, 0u) << what;
    EXPECT_GE(r.windows_executed, r.windows_run) << what;
    EXPECT_GT(r.mailbox_staged, 0u) << what;
    EXPECT_EQ(r.mailbox_staged, r.mailbox_drained) << what;
  };
  BurstLabSpec lab;
  lab.scheme = Scheme::kOccamy;
  lab.horizon = Milliseconds(1);
  lab.shards = 2;
  expect_engine(RunBurstLab(lab), "burst lab");

  DpdkRunSpec star;
  star.scheme = Scheme::kOccamy;
  star.scale = BenchScale::kSmoke;
  star.duration = star.max_duration = Milliseconds(2);
  star.min_queries = 0;
  star.shards = 2;
  expect_engine(RunDpdk(star), "star");

  FabricRunSpec fabric;
  fabric.scheme = Scheme::kOccamy;
  fabric.scale = BenchScale::kSmoke;
  fabric.duration = Milliseconds(2);
  fabric.shards = 2;
  expect_engine(RunFabric(fabric), "fabric");
}

// The per-millisecond buckets partition the delivered bytes exactly.
TEST(RunStatsTest, DeliveredBucketsSumToDeliveredBytes) {
  for (const char* scenario : {"burst_absorption", "websearch"}) {
    PointSpec spec;
    spec.scenario = scenario;
    spec.scale = BenchScale::kSmoke;
    const PointResult r = RunPoint(spec);
    ASSERT_TRUE(r.ok) << r.error;
    const int64_t bucketed =
        std::accumulate(r.delivered_by_ms.begin(), r.delivered_by_ms.end(), int64_t{0});
    EXPECT_GT(bucketed, 0) << scenario;
    EXPECT_EQ(static_cast<double>(bucketed), r.metrics.Number("delivered_bytes"))
        << scenario;
  }
}

}  // namespace
}  // namespace occamy::exp

// Differential-oracle suite for the intra-switch partition-parallel star/P4
// engines (and a fabric cross-check): every scenario must produce
// byte-identical JSON metrics at --shards=1/2/4. shards=1 runs the
// identical windowed algorithm single-threaded, so it is the oracle; see
// tests/differential.h for the comparison machinery.
//
// The CI seed-matrix step reruns this suite with OCCAMY_TEST_SEED=1..3 so
// seed-dependent nondeterminism surfaces before merge.
#include "tests/differential.h"

#include <tuple>
#include <utility>
#include <vector>

#include "src/exp/platform_runs.h"

namespace occamy {
namespace {

exp::PointSpec SmokePoint(const std::string& scenario, const std::string& bm,
                          double duration_ms, uint64_t seed = 1) {
  exp::PointSpec spec;
  spec.scenario = scenario;
  spec.bm = bm;
  spec.scale = exp::BenchScale::kSmoke;
  spec.duration_ms = duration_ms;
  spec.seed = testing::ShiftedSeed(seed);
  return spec;
}

// ---- P4 testbed (§6.1): open-loop burst lab ----

TEST(DifferentialTest, BurstShardCountInvariant) {
  testing::ExpectShardCountInvariant(SmokePoint("burst", "occamy", 1), {2, 4});
}

TEST(DifferentialTest, BurstDtShardCountInvariant) {
  testing::ExpectShardCountInvariant(SmokePoint("burst", "dt", 1), {2});
}

// ---- DPDK star testbed (§6.2/§6.3): DCTCP incast + backgrounds ----

TEST(DifferentialTest, IncastShardCountInvariant) {
  testing::ExpectShardCountInvariant(SmokePoint("incast", "occamy", 2), {2, 4});
}

TEST(DifferentialTest, BurstAbsorptionShardCountInvariant) {
  // The headline star scenario: web-search DCTCP background + incast.
  testing::ExpectShardCountInvariant(SmokePoint("burst_absorption", "occamy", 2),
                                     {2, 4});
}

TEST(DifferentialTest, BurstAbsorptionDtShardCountInvariant) {
  testing::ExpectShardCountInvariant(SmokePoint("burst_absorption", "dt", 2), {2});
}

TEST(DifferentialTest, IsolationShardCountInvariant) {
  // Two DRR queues, CUBIC background: exercises multi-class scheduling
  // under the sharded engine.
  testing::ExpectShardCountInvariant(SmokePoint("isolation", "occamy", 2), {2});
}

TEST(DifferentialTest, ChokingShardCountInvariant) {
  // Saturating-LP background: live (shard-confined) open-loop senders
  // alongside pre-generated incast queries.
  testing::ExpectShardCountInvariant(SmokePoint("choking", "occamy", 2), {2, 4});
}

// ---- fabric (§6.4) cross-check through the same harness ----

TEST(DifferentialTest, WebSearchFabricShardCountInvariant) {
  testing::ExpectShardCountInvariant(SmokePoint("websearch", "occamy", 2), {2, 4});
}

// Different seeds must each satisfy the invariant independently (the
// windowed algorithm has no seed-specific paths).
TEST(DifferentialTest, SeedSweepShardCountInvariant) {
  for (const uint64_t seed : {7u, 23u}) {
    testing::ExpectShardCountInvariant(SmokePoint("burst_absorption", "occamy", 2, seed),
                                       {2});
  }
}

// ---- runner-level knobs the PointSpec harness cannot reach ----

// Every deterministic field of a star result, as one comparable tuple. The
// engine fields that vary with shards / window batch by design (shards,
// windows_*, parallel_efficiency) are left out.
auto DeterministicFields(const exp::DpdkRunResult& r) {
  const fault::FaultCounters& f = r.faults;
  const obs::DelayHistogram& d = r.obs.all_delays;
  return std::tuple(r.sim_events, r.mailbox_staged, r.mailbox_drained, r.drops, r.expelled,
                    r.peak_occupancy_bytes, r.delivered_bytes, r.delivered_by_ms, d.count(),
                    d.Quantile(0.5), d.Quantile(0.99), d.max(), r.obs.worst_queue_p99_ps,
                    r.obs.queue_drops_max, r.obs.queues_with_drops, f.faults_injected,
                    f.packets_lost, f.packets_corrupted, f.blackhole_drops, f.link_down_drops,
                    f.reroutes, f.flushed_bytes_restart, f.burst_loss_packets,
                    f.cp_stalled_steps, r.qct_avg_ms, r.qct_p99_ms, r.fct_avg_ms,
                    r.fct_small_p99_ms, r.queries, r.rtos, r.buffer_bytes, r.duration_ms,
                    r.drain_ms);
}

void ExpectSameDpdkResult(const exp::DpdkRunResult& a, const exp::DpdkRunResult& b) {
  EXPECT_GT(a.sim_events, 0);
  EXPECT_EQ(DeterministicFields(a), DeterministicFields(b));
}

// A multi-partition star (16 hosts, 4 ports per partition = 4 lanes) under
// closed-loop DCTCP background plus incast: lane sharding at 4 shards must
// match one shard field for field, and the adaptive window schedule must
// take strictly fewer barrier rounds than batch=1 on the same run.
TEST(DifferentialTest, MultiPartitionStarShardAndBatchInvariant) {
  exp::DpdkRunSpec run;
  run.scheme = exp::Scheme::kOccamy;
  run.num_hosts = 16;
  run.ports_per_partition = 4;
  run.scale = exp::BenchScale::kSmoke;
  run.duration = run.max_duration = Milliseconds(2);
  run.min_queries = 0;
  run.seed = testing::ShiftedSeed(1);
  const exp::DpdkRunResult oracle = exp::RunDpdk(run);
  run.shards = 4;
  const exp::DpdkRunResult adaptive = exp::RunDpdk(run);
  run.window_batch = 1;
  const exp::DpdkRunResult batch1 = exp::RunDpdk(run);
  ExpectSameDpdkResult(oracle, adaptive);
  ExpectSameDpdkResult(oracle, batch1);
  EXPECT_GT(oracle.queries, 0);
  EXPECT_GT(oracle.delivered_bytes, 0);
  EXPECT_LT(adaptive.windows_run, batch1.windows_run);
}

// Worker threads on/off run the identical windowed algorithm: star engine.
TEST(DifferentialTest, StarThreadedAndInlineExecutionMatch) {
  exp::DpdkRunSpec run;
  run.scheme = exp::Scheme::kOccamy;
  run.scale = exp::BenchScale::kSmoke;
  run.duration = run.max_duration = Milliseconds(2);
  run.min_queries = 0;
  run.seed = testing::ShiftedSeed(1);
  run.shards = 4;
  run.shard_threads = true;
  const exp::DpdkRunResult threaded = exp::RunDpdk(run);
  run.shard_threads = false;
  const exp::DpdkRunResult inline_run = exp::RunDpdk(run);
  ExpectSameDpdkResult(threaded, inline_run);
}

// ---- window batching (adaptive drain scheduling) ----

// Star: every window-batch setting maps onto the batch=1 fingerprint.
TEST(DifferentialTest, StarWindowBatchInvariant) {
  exp::PointSpec spec = SmokePoint("burst_absorption", "occamy", 2);
  spec.shards = 4;
  testing::ExpectWindowBatchInvariant(spec, {0, 4, 16});
}

// P4 burst lab: open-loop senders, single partition.
TEST(DifferentialTest, BurstWindowBatchInvariant) {
  exp::PointSpec spec = SmokePoint("burst", "occamy", 1);
  spec.shards = 2;
  testing::ExpectWindowBatchInvariant(spec, {0, 4});
}

// Fabric: node-affinity sharding, 10us lookahead.
TEST(DifferentialTest, FabricWindowBatchInvariant) {
  exp::PointSpec spec = SmokePoint("websearch", "occamy", 2);
  spec.shards = 2;
  testing::ExpectWindowBatchInvariant(spec, {0, 4});
}

// Batching must also hold with faults armed: reroute/loss toggles are
// ordinary shard events, and every inner batch boundary drains and hops
// exactly like a plan round, so the faulted fingerprints stay
// byte-identical to the batch=1 schedule.
TEST(DifferentialTest, FaultedWindowBatchInvariant) {
  exp::PointSpec spec = SmokePoint("burst_absorption", "occamy", 2);
  spec.shards = 2;
  spec.faults =
      "link_down:t=500us,dur=300us,node=sw0,port=1;"
      "gilbert:p_gb=0.05,p_bg=0.3,loss_bad=0.3,slot=50us,seed=5";
  testing::ExpectWindowBatchInvariant(spec, {0, 4, 16});
}

// And across shard counts at a fixed non-trivial batch: the staged-mail
// signal is shard-count invariant, so the batched schedule is too.
TEST(DifferentialTest, ShardCountInvariantAtFixedBatch) {
  exp::PointSpec spec = SmokePoint("burst_absorption", "occamy", 2);
  spec.window_batch = 4;
  testing::ExpectShardCountInvariant(spec, {2, 4});
}

// Threads on/off at a fixed batch > 1 run the identical batched protocol
// (the inline path calls the same PlanBatch/StepBatch at the same points).
TEST(DifferentialTest, StarThreadedAndInlineBatchedExecutionMatch) {
  exp::DpdkRunSpec run;
  run.scheme = exp::Scheme::kOccamy;
  run.scale = exp::BenchScale::kSmoke;
  run.duration = run.max_duration = Milliseconds(2);
  run.min_queries = 0;
  run.seed = testing::ShiftedSeed(1);
  run.shards = 4;
  run.window_batch = 4;
  run.shard_threads = true;
  const exp::DpdkRunResult threaded = exp::RunDpdk(run);
  run.shard_threads = false;
  const exp::DpdkRunResult inline_run = exp::RunDpdk(run);
  ExpectSameDpdkResult(threaded, inline_run);
  // The batch schedule itself is part of the determinism contract: both
  // paths must plan the same barrier rounds, not just the same metrics.
  EXPECT_EQ(threaded.windows_run, inline_run.windows_run);
  EXPECT_EQ(threaded.windows_executed, inline_run.windows_executed);
  EXPECT_EQ(threaded.max_window_batch, inline_run.max_window_batch);
}

// Fabric twin of the above, at the adaptive setting.
TEST(DifferentialTest, FabricThreadedAndInlineBatchedExecutionMatch) {
  exp::FabricRunSpec run;
  run.scheme = exp::Scheme::kOccamy;
  run.scale = exp::BenchScale::kSmoke;
  run.duration = Milliseconds(2);
  run.seed = testing::ShiftedSeed(1);
  run.shards = 2;
  run.window_batch = 0;  // adaptive
  run.shard_threads = true;
  const exp::FabricRunResult threaded = exp::RunFabric(run);
  run.shard_threads = false;
  const exp::FabricRunResult inline_run = exp::RunFabric(run);
  EXPECT_EQ(threaded.delivered_bytes, inline_run.delivered_bytes);
  EXPECT_EQ(threaded.drops, inline_run.drops);
  EXPECT_EQ(threaded.sim_events, inline_run.sim_events);
  EXPECT_GT(threaded.sim_events, 0);
  EXPECT_EQ(threaded.windows_run, inline_run.windows_run);
  EXPECT_EQ(threaded.windows_executed, inline_run.windows_executed);
  EXPECT_EQ(threaded.max_window_batch, inline_run.max_window_batch);
}

// Property: with faults armed (reroute via link_down + gilbert loss), the
// batched fingerprint is byte-identical to batch=1 for several seeds — and
// the adaptive run never does *more* barrier rounds than legacy.
TEST(DifferentialProperty, BatchedFingerprintsMatchUnderFaults) {
  for (const uint64_t seed : {3u, 11u}) {
    exp::PointSpec spec = SmokePoint("burst_absorption", "occamy", 2, seed);
    spec.shards = 2;
    spec.faults =
        "link_down:t=400us,dur=200us,node=sw0,port=2;"
        "gilbert:p_gb=0.1,p_bg=0.2,loss_bad=0.5,slot=50us,seed=7";
    spec.window_batch = 1;
    const exp::Metrics legacy = testing::RunPointOrFail(spec);
    const std::string oracle = testing::DeterministicFingerprint(legacy);
    for (const int batch : {0, 8}) {
      spec.window_batch = batch;
      const exp::Metrics batched = testing::RunPointOrFail(spec);
      EXPECT_EQ(oracle, testing::DeterministicFingerprint(batched))
          << "seed=" << seed << " window_batch=" << batch;
      EXPECT_LE(batched.Number("windows_run"), legacy.Number("windows_run"))
          << "seed=" << seed << " window_batch=" << batch;
    }
  }
}

// ---- schema-v6 observability counters (src/obs/counters.h) ----

// The counter-registry fields ride inside the deterministic fingerprint, so
// every invariance test above already covers them; this asserts they are
// actually *present* (a silently-missing field would make that coverage
// vacuous) and sane on a run that queues and drops.
TEST(DifferentialTest, ObsCountersEmittedInMetrics) {
  exp::PointSpec spec = SmokePoint("burst_absorption", "occamy", 2);
  spec.shards = 2;
  const exp::Metrics m = testing::RunPointOrFail(spec);
  EXPECT_EQ(m.Number("schema_version"), 8);
  for (const char* key :
       {"mailbox_drained_events", "mailbox_staged_events", "queue_delay_max_ns",
        "queue_delay_p50_ns", "queue_delay_p99_ns", "queue_delay_samples",
        "queue_drops_max", "queues_with_drops", "worst_queue_delay_p99_ns"}) {
    EXPECT_NE(m.Find(key), nullptr) << key;
  }
  EXPECT_GT(m.Number("queue_delay_samples"), 0);
  EXPECT_GE(m.Number("queue_delay_p99_ns"), m.Number("queue_delay_p50_ns"));
  EXPECT_GE(m.Number("queue_delay_max_ns"), m.Number("queue_delay_p99_ns"));
}

// The mailbox counters are deterministic per engine: DeliverAfter always
// stages cross-shard records in sharded mode, so staged == drained and both
// are invariant across shard counts >= 1 (the fingerprint tests enforce
// that); here the conservation law itself.
TEST(DifferentialTest, MailboxStagedEqualsDrained) {
  exp::PointSpec spec = SmokePoint("burst_absorption", "occamy", 2);
  spec.shards = 4;
  const exp::Metrics m = testing::RunPointOrFail(spec);
  EXPECT_EQ(m.Number("mailbox_staged_events"), m.Number("mailbox_drained_events"));
}

// Same for the P4 burst lab, plus the engine-id fields.
TEST(DifferentialTest, BurstLabThreadedAndInlineExecutionMatch) {
  exp::BurstLabSpec spec;
  spec.scheme = exp::Scheme::kOccamy;
  spec.horizon = Milliseconds(1);
  spec.seed = testing::ShiftedSeed(1);
  spec.shards = 2;
  spec.shard_threads = true;
  const exp::BurstLabResult threaded = exp::RunBurstLab(spec);
  spec.shard_threads = false;
  const exp::BurstLabResult inline_run = exp::RunBurstLab(spec);
  EXPECT_EQ(threaded.burst_packets, inline_run.burst_packets);
  EXPECT_EQ(threaded.burst_drops, inline_run.burst_drops);
  EXPECT_EQ(threaded.long_lived_drops, inline_run.long_lived_drops);
  EXPECT_EQ(threaded.expelled, inline_run.expelled);
  EXPECT_EQ(threaded.sim_events, inline_run.sim_events);
  EXPECT_GT(threaded.sim_events, 0);
  EXPECT_EQ(threaded.shards, 2);
  EXPECT_GT(threaded.parallel_efficiency, 0.0);
  EXPECT_EQ(exp::RunBurstLab(exp::BurstLabSpec{}).shards, 1)
      << "the default spec runs one shard";
}

// Queue-length traces are sampled on partition 0's lane simulator, so the
// q_long / q_burst / threshold series are part of the determinism contract:
// identical at any shard count and window batch.
TEST(DifferentialTest, BurstLabQueueTracesShardAndBatchInvariant) {
  const auto traces = [](int shards, int window_batch) {
    exp::BurstLabSpec spec;
    spec.scheme = exp::Scheme::kOccamy;
    spec.alpha = 4.0;
    spec.horizon = Microseconds(900);
    spec.sample_every = Microseconds(25);
    spec.seed = testing::ShiftedSeed(1);
    spec.shards = shards;
    spec.window_batch = window_batch;
    const exp::BurstLabResult r = exp::RunBurstLab(spec);
    std::vector<std::pair<Time, double>> out;
    for (const auto* series : {&r.q_long, &r.q_burst, &r.threshold}) {
      for (const auto& sample : series->samples()) out.emplace_back(sample.t, sample.value);
    }
    return out;
  };
  const auto reference = traces(1, 1);
  // One sample per 25us over [0, 900us], for each of the three series.
  ASSERT_EQ(reference.size(), 3u * 37u);
  EXPECT_EQ(reference, traces(2, 1)) << "shards 1 vs 2";
  EXPECT_EQ(reference, traces(1, 0)) << "window_batch 1 vs auto";
  EXPECT_EQ(reference, traces(2, 0)) << "shards 2, window_batch auto";
}

}  // namespace
}  // namespace occamy

// Micro-benchmarks (google-benchmark): per-operation cost of the hot-path
// primitives — the head-drop selector, the round-robin arbiter, the event
// queue, the TM datapath, and the comparator-tree MaxFinder that Occamy
// avoids. BM admission is timed per scheme against a live TmPartition by
// perfbench's replay rows (bm.<scheme>.admit_ns.q{8,64,512}).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/core/head_drop_selector.h"
#include "src/core/occamy_bm.h"
#include "src/hw/circuits.h"
#include "src/sim/simulator.h"
#include "src/tm/traffic_manager.h"

namespace occamy {
namespace {

void BM_SelectorRefreshAndSelect(benchmark::State& state) {
  const int queues = static_cast<int>(state.range(0));
  core::HeadDropSelector selector(queues);
  Rng rng(1);
  std::vector<int64_t> qlens(static_cast<size_t>(queues));
  for (auto& v : qlens) v = static_cast<int64_t>(rng.UniformInt(1 << 20));
  const auto qlen = [&](int q) { return qlens[static_cast<size_t>(q)]; };
  const auto threshold = [](int) { return int64_t{500000}; };
  for (auto _ : state) {
    selector.Refresh(qlen, threshold);
    benchmark::DoNotOptimize(selector.SelectVictim(qlen));
  }
}
BENCHMARK(BM_SelectorRefreshAndSelect)->Arg(8)->Arg(64)->Arg(512);

void BM_RoundRobinArbiter(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::Bitmap bitmap(n);
  Rng rng(1);
  for (int i = 0; i < n; ++i) bitmap.Set(i, rng.Bernoulli(0.3));
  core::RoundRobinArbiter arb(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arb.Grant(bitmap));
  }
}
BENCHMARK(BM_RoundRobinArbiter)->Arg(64)->Arg(512)->Arg(4096);

void BM_MaxFinder(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  hw::MaximumFinder mf(n, 20);
  Rng rng(1);
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<int64_t>(rng.UniformInt(1 << 20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mf.FindMax(v));
  }
}
BENCHMARK(BM_MaxFinder)->Arg(64)->Arg(512);

void BM_EventQueueSchedule(benchmark::State& state) {
  sim::Simulator sim;
  Rng rng(1);
  int64_t t = 0;
  for (auto _ : state) {
    sim.At(t + static_cast<Time>(rng.UniformInt(1000)), [] {});
    ++t;
    if (sim.processed_events() == 0 && t % 1024 == 0) sim.RunUntil(t);
  }
}
BENCHMARK(BM_EventQueueSchedule);

void BM_SimulatorChurn(benchmark::State& state) {
  // Schedule + run in a steady-state pattern (the simulator hot loop).
  sim::Simulator sim;
  Rng rng(1);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sim.After(static_cast<Time>(rng.UniformInt(1000) + 1), [] {});
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SimulatorChurn);

// The queue shape of a star run: ~1,250 far timers (retransmit timers
// re-armed by every new ACK, so about a third of the queued entries are
// cancelled ones awaiting compaction), ~20 near packet-path events, and
// ~28% of all pushes at zero delay. BM_EventQueueSchedule/Churn have no far
// timers, so they miss what the tiered queue keeps out of the near heap.
// One item = one pop plus the pushes and cancels it triggers.
void BM_EventQueueTimerMix(benchmark::State& state) {
  constexpr int kTimers = 1250;
  constexpr int kNearEvents = 20;
  constexpr Time kRto = Milliseconds(5);
  constexpr uint64_t kPathSpread = 12 * kMicrosecond;  // longest packet-path delay
  sim::EventQueue q;
  Rng rng(7);
  Time now = 0;
  int fired = -1;  // set by the popped callback: a timer index, or -1 for a near event
  std::vector<sim::EventHandle> timers(kTimers);
  const auto arm = [&](int i) {
    timers[static_cast<size_t>(i)] = q.Push(
        now + kRto + static_cast<Time>(rng.UniformInt(kPathSpread)), [&fired, i] { fired = i; });
  };
  const auto schedule_near = [&](Time delay) { q.Push(now + delay, [&fired] { fired = -1; }); };
  for (int i = 0; i < kTimers; ++i) arm(i);
  for (int i = 0; i < kNearEvents; ++i) {
    schedule_near(1 + static_cast<Time>(rng.UniformInt(kPathSpread)));
  }
  sim::Callback cb;
  for (auto _ : state) {
    now = q.PopLive(cb);
    cb();
    if (fired >= 0) {  // a timer expired: re-arm it
      arm(fired);
      continue;
    }
    // The packet path schedules its successor; 37% of these at zero delay
    // make ~28% of all pushes once the re-arms below are counted.
    const bool zero_delay = rng.UniformInt(100) < 37;
    schedule_near(zero_delay ? 0 : 1 + static_cast<Time>(rng.UniformInt(kPathSpread)));
    if (rng.UniformInt(3) == 0) {  // a new ACK: cancel and re-arm one timer
      const int i = static_cast<int>(rng.UniformInt(kTimers));
      timers[static_cast<size_t>(i)].Cancel();
      arm(i);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueTimerMix);

void BM_TmEnqueueDequeue(benchmark::State& state) {
  sim::Simulator sim;
  tm::TmConfig cfg;
  cfg.buffer_bytes = 4 << 20;
  cfg.port_rates = {Bandwidth::Gbps(100), Bandwidth::Gbps(100)};
  tm::TmPartition part(&sim, cfg, std::make_unique<core::OccamyBm>());
  Packet p;
  p.size_bytes = 1500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(part.Enqueue(0, p));
    benchmark::DoNotOptimize(part.DequeueForPort(0));
  }
}
BENCHMARK(BM_TmEnqueueDequeue);

}  // namespace
}  // namespace occamy

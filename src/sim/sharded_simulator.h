// Conservative-time partition-parallel discrete-event engine — the engine
// every network simulation runs on (one shard by default).
//
// A ShardedSimulator runs N shards — each an ordinary single-threaded
// sim::Simulator with its own EventQueue and Rng — in lockstep over fixed
// time windows of length `lookahead`. Within a window every shard executes
// its own events in parallel; at the window barrier, work staged for other
// shards (packet deliveries, see net::Network) is handed over and the next
// window is planned. The scheme is conservative (Chandy–Misra style): it is
// only correct if every cross-shard interaction carries a delay of at least
// `lookahead`, so that anything produced inside window [W, W+L) cannot take
// effect before W+L and is guaranteed to be in the destination shard's queue
// before that shard starts the next window.
//
// Determinism contract. Results are byte-identical for any shard count
// (including 1) because
//  * every shard's own events run in the usual deterministic (time, seq)
//    order,
//  * all cross-shard influence flows through the barrier drain hook, whose
//    implementation (net::Network) inserts staged records in the canonical
//    (deliver_time, src_node, per-source sequence) order — an order that
//    does not depend on how nodes are partitioned or on thread timing, and
//  * the window grid is fixed (aligned multiples of `lookahead`), so the
//    barrier at which a record is handed over depends only on simulated
//    time, never on wall-clock interleaving.
// The single-shard configuration runs the identical windowed algorithm on
// one thread, which is what makes `--shards=1` a byte-exact oracle for
// `--shards=N`.
//
// Adaptive window batching. A full condvar drain + plan round per window
// is pure synchronization overhead, and short-lookahead scenarios (the
// star's 2us windows) pay for tens of thousands of them. The planner
// therefore plans a *batch* of up to k consecutive windows per condvar
// round: inside a batch, shards run window after window separated only by
// cheap spin-barrier rounds. Each inner boundary performs the SAME
// handover as an outer barrier — quiesce, drain every shard's mailboxes,
// then let the leader pick the next window — so a batched run executes
// the byte-identical sequence of (window, drain) steps as batch=1; the
// only things batching elides are the condvar parks and the per-window
// plan work (policy feedback, fence scan, horizon checks). The leader
// also hops windows with no events anywhere, which merges the empty and
// sparse stretches the profiler showed dominate the star. Batches
// truncate early only for Stop(); armed fault/route-epoch boundaries
// register drain fences (AddDrainFence), and batches never cross one, so
// every fault toggle still enters its window through a full plan round.
// `--window-batch` selects the policy: 1 = legacy, N = fixed bound,
// auto = the density- and mail-feedback policy described at
// Options::window_batch.
//
// Stop() semantics: the shard that calls Stop() halts immediately; every
// other shard finishes the current window, then the run returns — a Stop
// landing inside a window batch truncates the batch at the *current*
// window's barrier, it never runs on to the end of the batch. A stopped
// run therefore leaves different shards at slightly different local times —
// deterministic metrics are only promised for runs that end by reaching
// `until` or draining every queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace occamy::sim {

// Index of the shard executing on the current thread, or 0 outside any
// run (so setup and teardown code indexes per-shard state at slot 0).
int CurrentShard();

namespace internal {
// RAII: marks the current thread as executing `shard`. -1 restores "none".
class ShardScope {
 public:
  explicit ShardScope(int shard);
  ~ShardScope();
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  int saved_;
};
}  // namespace internal

class ShardedSimulator {
 public:
  struct Options {
    int shards = 1;                       // clamped to >= 1
    Time lookahead = Microseconds(2);     // conservative window length, > 0
    uint64_t seed = 1;                    // per-shard Rngs fork from this
    // Run shards on worker threads. Off = execute the identical windowed
    // algorithm round-robin on the calling thread (useful under sanitizers
    // and for debugging; results are byte-identical either way).
    bool use_threads = true;
    // Windows per condvar plan round ("window batching"); clamped to
    // [0, kMaxWindowBatch]. 1 = the legacy schedule (full drain + plan
    // barrier every window). N > 1 = plan a fixed bound of N windows per
    // plan round. 0 = auto: the leader widens the bound (doubling, up to
    // kMaxWindowBatch) while rounds are silent — no cross-shard mail
    // staged — or dense (execution dominates, so spin rounds are cheap
    // relative to the work they separate), jumps straight to the cap on
    // rounds that executed nothing, and halves the bound on sparse rounds
    // that staged mail, where each boundary is synchronization-dominated
    // and the condvar round's parked wait is the better primitive. Every
    // setting is byte-identical: see "Adaptive window batching" above.
    int window_batch = 0;
  };

  // Hard cap on windows per batch (and on Options::window_batch).
  static constexpr int kMaxWindowBatch = 16;

  explicit ShardedSimulator(const Options& options);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  Time lookahead() const { return lookahead_; }

  // The shard-local engine. Components owned by shard `i` schedule their
  // events here; outside RunUntil the caller (single-threaded setup /
  // teardown) may schedule into any shard.
  Simulator& shard(int i);

  // Hook run once per shard at every window barrier, on that shard's worker
  // thread, with all shards quiescent. net::Network registers its mailbox
  // drain here. Must be set before RunUntil if cross-shard traffic exists.
  // (Type-erasure is fine here: once per window barrier, not per event.)
  // occamy-lint: allow(hot-path-indirection) barrier hook, not per-event
  void set_barrier_drain(std::function<void(int shard)> hook) {
    barrier_drain_ = std::move(hook);
  }

  // Cumulative count of cross-shard records staged since construction
  // (monotonic; net::Network registers its mailbox `staged` counter sum).
  // Read by the plan leader with every shard quiescent; feeds the auto
  // policy's silence signal only — correctness never depends on it, since
  // every inner boundary drains unconditionally.
  // occamy-lint: allow(hot-path-indirection) barrier hook, not per-event
  void set_staged_probe(std::function<uint64_t()> probe) {
    staged_probe_ = std::move(probe);
  }

  // Registers a drain fence at the window containing sim-time `t`: no
  // window batch crosses it, so a mailbox drain is guaranteed at the
  // barrier entering that window. fault::FaultInjector::Arm fences every
  // armed fault toggle and quantum-aligned route-epoch boundary, keeping
  // the drain schedule around fault boundaries identical at every batch
  // setting. Must be called before RunUntil.
  void AddDrainFence(Time t);

  // Runs every shard up to and including `until` (conservative windows with
  // barrier drains between them), or until all queues drain, or Stop().
  // Returns the total number of events processed by this call.
  uint64_t RunUntil(Time until);

  // Requests a stop: the calling shard halts immediately (when called from
  // an event), all shards stop at the current window barrier.
  void Stop();

  bool stop_requested() const { return stop_requested_; }

  // True while RunUntil is executing (shards may be running on worker
  // threads). Guards against mid-run scheduling from outside the shards —
  // e.g. FlowManager::StartFlow refuses it (flows must be pre-generated).
  bool running() const { return running_.load(std::memory_order_relaxed); }

  // Sum of events processed by all shards, ever.
  uint64_t processed_events() const;

  // Of the last RunUntil: aggregate shard busy time divided by (wall time x
  // shards). 1.0 = perfectly balanced parallel execution; a single-shard
  // run reports ~1.0 by construction.
  double parallel_efficiency() const { return parallel_efficiency_; }

  // Barrier (drain + plan) rounds of the last RunUntil — the quantity the
  // adaptive planner minimizes; each round costs a full drain and a
  // condvar barrier. Equals windows_executed() at window_batch = 1.
  uint64_t windows_run() const { return windows_run_; }

  // Conservative windows actually executed by the last RunUntil (the
  // pre-batching meaning of windows_run()).
  uint64_t windows_executed() const { return windows_executed_; }

  // Of the last RunUntil: batches cut short by Stop(), and the largest
  // batch (in windows) the planner issued.
  uint64_t batch_truncations() const { return batch_truncations_; }
  uint64_t max_window_batch() const { return max_window_batch_; }

 private:
  struct Plan {
    bool done = false;
    Time bound = 0;      // shards run events with time <= bound this window
    Time batch_end = 0;  // bound of the batch's last planned window
    int windows = 0;     // planned batch width, for telemetry
  };
  struct BatchStep {
    bool done = false;  // batch over: back to the outer drain + plan round
    Time bound = 0;     // next inner window bound (when !done)
  };

  // Single-threaded plan step: drains are complete, queues are quiescent.
  // Plans the next batch (one window at window_batch = 1) and applies the
  // adaptive-policy feedback from the round that just drained.
  Plan PlanBatch(Time until);

  // Inner-boundary step, run by the batch leader with every shard
  // quiescent and this round's mailbox drains already complete: truncates
  // the batch on Stop(), otherwise hops to the next window inside the
  // batch holding any event (drained arrivals included).
  BatchStep StepBatch(const Plan& plan);

  std::vector<std::unique_ptr<Simulator>> shards_;
  Time lookahead_;
  bool use_threads_;
  int window_batch_;
  // occamy-lint: allow(hot-path-indirection) barrier hook, not per-event
  std::function<void(int)> barrier_drain_;
  // occamy-lint: allow(hot-path-indirection) barrier hook, not per-event
  std::function<uint64_t()> staged_probe_;

  // Window starts that batches must not cross, sorted; fence_cursor_
  // tracks the first fence not yet behind the planner.
  std::vector<Time> drain_fences_;
  size_t fence_cursor_ = 0;

  // Set by Stop(); read at barriers. Plain bool-behind-barrier would do for
  // the workers, but Stop() may also be called from outside the run loop.
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};

  // Leader-only state (written under the plan barrier / inner spin
  // barrier, published to workers by the barrier release).
  int batch_limit_ = 1;        // auto policy's current bound, in windows
  uint64_t staged_seen_ = 0;   // staged-probe value at the last plan round
  uint64_t events_seen_ = 0;   // processed_events() at the last plan round
  uint64_t windows_seen_ = 0;  // windows_executed_ at the last plan round

  double parallel_efficiency_ = 1.0;
  uint64_t windows_run_ = 0;
  uint64_t windows_executed_ = 0;
  uint64_t batch_truncations_ = 0;
  uint64_t max_window_batch_ = 0;
};

}  // namespace occamy::sim

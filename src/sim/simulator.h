// The discrete-event simulator driving every experiment in this repo.
//
// This replaces the paper's ns-3 / hardware testbeds: components schedule
// callbacks at absolute or relative simulated times and the simulator runs
// them in deterministic order. Single-threaded by design: in a network
// simulation each Simulator is one shard of a ShardedSimulator
// (src/sim/sharded_simulator.h), which drives it window-by-window through
// RunUntil and never touches it from two threads at once. Component-level
// code with no network (a lone TmPartition, the event-queue benches) may
// drive a bare Simulator directly.
#pragma once

#include <cstdint>
#include <limits>

#include "src/obs/trace.h"
#include "src/sim/event_queue.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace occamy::sim {

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }
  Rng& rng() { return rng_; }

  // Schedules `cb` at absolute time `t` (must not be in the past).
  EventHandle At(Time t, Callback cb) {
    OCCAMY_CHECK_GE(t, now_) << "scheduling into the past";
    return queue_.Push(t, std::move(cb));
  }

  // Schedules `cb` after `delay` (>= 0) from now.
  EventHandle After(Time delay, Callback cb) {
    OCCAMY_CHECK_GE(delay, 0);
    return queue_.Push(now_ + delay, std::move(cb));
  }

  // Runs until the queue is empty, `until` is reached, or Stop() is called.
  // Events with time <= until are processed; `now()` ends at `until` unless
  // stopped. Returns the number of events processed by the call.
  uint64_t RunUntil(Time until) {
    const uint64_t n = RunCore(until);
    if (!stopped_ && now_ < until) now_ = until;
    return n;
  }

  // Runs until no events remain (or Stop()); `now()` ends at the last
  // event's time.
  uint64_t Run() { return RunCore(std::numeric_limits<Time>::max()); }

  // Stops the current Run/RunUntil after the current event returns.
  void Stop() { stopped_ = true; }

  uint64_t processed_events() const { return processed_; }
  bool HasPendingEvents() const { return queue_.live_size() > 0; }

  // True if the last Run/RunUntil exited via Stop().
  bool stopped() const { return stopped_; }

  // Time of the earliest pending event, or kNoEvent when none are pending.
  // Used by the sharded engine to plan the next conservative window.
  static constexpr Time kNoEvent = std::numeric_limits<Time>::max();
  Time NextEventTime() { return queue_.Empty() ? kNoEvent : queue_.NextTime(); }

  // Shard-affinity record (see src/sim/shard_checks.h): the shard index
  // this simulator is bound to while a sharded RunUntil executes, -1
  // otherwise. ShardedSimulator binds/unbinds it; OCCAMY_ASSERT_SHARD call
  // sites read it through sim::internal::OnOwningShard.
  int bound_shard() const { return bound_shard_; }
  void BindShard(int shard) { bound_shard_ = shard; }

 private:
  uint64_t RunCore(Time until) {
    OCCAMY_TRACE_SPAN(core_span, "run.core");
    uint64_t n = 0;
    stopped_ = false;
    while (!stopped_ && !queue_.Empty() && queue_.NextTime() <= until) {
      Callback cb;
      const Time t = queue_.PopLive(cb);
      OCCAMY_DCHECK_GE(t, now_);  // At() rejects past times; debug-only here
      now_ = t;
      cb();
      ++n;
      ++processed_;
    }
    OCCAMY_TRACE_SPAN_ARG(core_span, "events", n);
    return n;
  }

  EventQueue queue_;
  Time now_ = 0;
  bool stopped_ = false;
  uint64_t processed_ = 0;
  int bound_shard_ = -1;
  Rng rng_;
};

}  // namespace occamy::sim

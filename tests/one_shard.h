// A one-shard network for component tests: the engine every scenario runs
// on (sim::ShardedSimulator), with every node on shard 0 and the windows
// executed inline on the calling thread. Exposes the Simulator-style calls
// the tests drive it with (now, RunUntil, Run), so a test reads like a plain
// event-loop test.
#pragma once

#include <cstdint>
#include <limits>

#include "src/net/network.h"
#include "src/sim/sharded_simulator.h"

namespace occamy::testing {

class OneShardSim {
 public:
  // `lookahead` must not exceed the shortest link propagation delay.
  explicit OneShardSim(Time lookahead = Microseconds(1), uint64_t seed = 1)
      : ssim(MakeOptions(lookahead, seed)), net(&ssim, [](net::NodeId) { return 0; }) {}

  Time now() { return ssim.shard(0).now(); }
  uint64_t RunUntil(Time until) { return ssim.RunUntil(until); }
  // Runs until every queue drains.
  uint64_t Run() { return ssim.RunUntil(std::numeric_limits<Time>::max() / 2); }

  sim::ShardedSimulator ssim;
  net::Network net;

 private:
  static sim::ShardedSimulator::Options MakeOptions(Time lookahead, uint64_t seed) {
    sim::ShardedSimulator::Options opts;
    opts.lookahead = lookahead;
    opts.seed = seed;
    opts.use_threads = false;
    return opts;
  }
};

}  // namespace occamy::testing

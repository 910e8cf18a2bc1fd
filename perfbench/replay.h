// Single-layer replays on production objects (see replay.cc).
#pragma once

#include "perfbench/rigs.h"

namespace occamy::perfbench {

// Prints one JSON object {"<layer row>": ns_per_op, ...} for workload `w`.
void PrintReplay(const WorkloadInfo& w);

// Prints {"spin_1t_s": ..., "spin_4t_speedup": ...}: a fixed integer spin
// kernel timed on one thread, and 4 threads' aggregate throughput relative
// to one (the parallel ceiling the host offers at the time).
void PrintSpin();

}  // namespace occamy::perfbench

// Forwarding header: the platform runners live in src/exp/platform_runs.h.
// Kept only for perfbench/rigs.h, which includes this path and names the
// runners through occamy::bench; new code includes src/exp directly.
#pragma once

#include "src/exp/platform_runs.h"

namespace occamy::bench { using namespace ::occamy::exp; }

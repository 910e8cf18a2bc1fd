// Fixture: code reaching up into the trees layered above it. Under src/
// (the self-test fakes the path) both repo includes below are flagged: src/
// must build without bench/, perfbench/, tools/ or tests/. Under bench/ or
// examples/ only the tests/ include is: those may use bench/common and src/.
#include <cstdint>

#include "bench/common/parallel_gate.h"
#include "src/util/time.h"
#include "tests/fakes.h"

namespace occamy::exp {

int64_t Answer() { return 42; }

}  // namespace occamy::exp

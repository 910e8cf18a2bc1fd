// Fixture: library code reaching up into the trees layered above it
// (scoped under src/ by the self-test). src/ must build without bench/,
// perfbench/, tools/ or tests/.
#include <cstdint>

#include "bench/common/table.h"
#include "src/util/time.h"
#include "tests/fakes.h"

namespace occamy::exp {

int64_t Answer() { return 42; }

}  // namespace occamy::exp

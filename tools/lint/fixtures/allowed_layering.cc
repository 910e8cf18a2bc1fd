// Fixture: an annotated upward include passes with the allow-annotation and
// must be flagged again once the annotation is stripped. An include inside
// a block comment is not an include and never counts:
/*
#include "tools/sim_cli.h"
*/
#include <cstdint>

// occamy-lint: allow(layering) fixture only: exercises the suppression path
#include "perfbench/rigs.h"

namespace occamy::exp {

int64_t Answer() { return 42; }

}  // namespace occamy::exp

// Flag parsing for the parallel-engine gate benches
// (bench/common/parallel_gate.h). The gate flag decides whether a perf
// regression fails CI, so a typo'd value must be a hard usage error — an
// atof parse would silently read garbage as 0 and turn the gate into
// "report only" (cert-err34-c).
#include "bench/common/parallel_gate.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace occamy::bench {
namespace {

TEST(ParseGateDouble, AcceptsFiniteNonNegativeNumbers) {
  double out = -1;
  EXPECT_TRUE(ParseGateDouble("0", out));
  EXPECT_EQ(out, 0.0);
  EXPECT_TRUE(ParseGateDouble("1.5", out));
  EXPECT_EQ(out, 1.5);
  EXPECT_TRUE(ParseGateDouble("2e-1", out));
  EXPECT_EQ(out, 0.2);
}

TEST(ParseGateDouble, RejectsGarbageWithoutClobberingOutput) {
  double out = 42.0;
  for (const char* bad :
       {"", "abc", "1.5x", "x1.5", "-1", "-0.25", "nan", "inf", "1.5 "}) {
    EXPECT_FALSE(ParseGateDouble(bad, out)) << "input: '" << bad << "'";
    EXPECT_EQ(out, 42.0) << "input: '" << bad << "'";
  }
}

// Runs ParseParallelGateArgs over a flag list. gtest owns argv[0].
bool Parse(std::vector<std::string> args, double& min_speedup_per_core) {
  args.insert(args.begin(), "gate_test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return ParseParallelGateArgs(static_cast<int>(argv.size()), argv.data(),
                               min_speedup_per_core, "gate_test");
}

TEST(ParseParallelGateArgs, ParsesEveryFlag) {
  double per_core = 0;
  ASSERT_TRUE(Parse({"--min-speedup-per-core=0.5"}, per_core));
  EXPECT_EQ(per_core, 0.5);
  EXPECT_TRUE(Parse({}, per_core));
}

// Any flag but --min-speedup-per-core is a usage error, so an invocation
// that names another knob fails instead of silently running the fixed
// configuration.
TEST(ParseParallelGateArgs, RejectsBadValues) {
  for (const char* bad :
       {"--min-speedup-per-core=inf", "--min-speedup-per-core=0.5x",
        "--min-speedup-per-core=", "--min-speedup-per-core=-1", "--shards=4",
        "--window-batch=auto", "--min-speedup=1", "--json=out.json", "--quick",
        "--scale=smoke", "--not-a-flag"}) {
    double per_core = 0;
    EXPECT_FALSE(Parse({bad}, per_core)) << "flag: " << bad;
  }
}

// The strict parse must not leave a half-applied gate behind: a rejected
// value keeps the previous (default, report-only) floor.
TEST(ParseParallelGateArgs, RejectedGateFlagLeavesOptionsUntouched) {
  double per_core = 0;
  EXPECT_FALSE(Parse({"--min-speedup-per-core=1.5oops"}, per_core));
  EXPECT_EQ(per_core, 0.0);
}

}  // namespace
}  // namespace occamy::bench

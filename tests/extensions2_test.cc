// Tests for the second extension batch: the §2.2 strawman max-register
// (reproducing the paper's counterexample) and multi-priority Pushout.
#include <gtest/gtest.h>

#include "src/bm/multi_priority_pushout.h"
#include "src/hw/strawman_max_tracker.h"
#include "tests/fakes.h"

namespace occamy {
namespace {

// ---------- Strawman max-register (§2.2) ----------

TEST(StrawmanTest, TracksMaxWhileGrowing) {
  hw::StrawmanMaxTracker tracker(4);
  tracker.OnQueueChange(0, 100);
  tracker.OnQueueChange(1, 300);
  tracker.OnQueueChange(2, 200);
  EXPECT_EQ(tracker.claimed_longest(), 1);
  EXPECT_EQ(tracker.claimed_longest(), tracker.TrueLongest());
}

TEST(StrawmanTest, PaperCounterexampleExposesStaleness) {
  // Paper §2.2: q1 = 80KB, q2 = 60KB -> longest is q1. q1 drains to 50KB
  // while q2 is unchanged; the true longest is now q2 but the register
  // still claims q1.
  hw::StrawmanMaxTracker tracker(2);
  tracker.OnQueueChange(0, 80 * 1000);  // q1
  tracker.OnQueueChange(1, 60 * 1000);  // q2
  ASSERT_EQ(tracker.claimed_longest(), 0);
  tracker.OnQueueChange(0, 50 * 1000);  // q1 drains (strict-priority service)
  EXPECT_EQ(tracker.TrueLongest(), 1);       // reality
  EXPECT_EQ(tracker.claimed_longest(), 0);   // the strawman's stale claim
  EXPECT_NE(tracker.claimed_longest(), tracker.TrueLongest());
}

TEST(StrawmanTest, RecoversWhenOtherQueueTouched) {
  hw::StrawmanMaxTracker tracker(2);
  tracker.OnQueueChange(0, 80);
  tracker.OnQueueChange(1, 60);
  tracker.OnQueueChange(0, 50);
  // Any change to q2 re-compares it against the (shrunk) register.
  tracker.OnQueueChange(1, 60);
  EXPECT_EQ(tracker.claimed_longest(), 1);
}

// ---------- Multi-priority Pushout ----------

TEST(MpPushoutTest, EvictsOnlyEqualOrLowerPriority) {
  test::FakeTmView tm(1000, 3);
  bm::MultiPriorityPushout mp;
  tm.set_priority(0, 0);  // most important
  tm.set_priority(1, 1);
  tm.set_priority(2, 1);
  tm.set_qlen(0, 600);  // longest, but high priority
  tm.set_qlen(1, 100);
  tm.set_qlen(2, 300);
  // Arrival for priority-1 queue 1: queue 0 is immune; evict queue 2.
  EXPECT_EQ(mp.EvictVictim(tm, 1), std::optional<int>(2));
}

TEST(MpPushoutTest, HighPriorityArrivalMayEvictAnyone) {
  test::FakeTmView tm(1000, 3);
  bm::MultiPriorityPushout mp;
  tm.set_priority(0, 0);
  tm.set_priority(1, 1);
  tm.set_priority(2, 1);
  tm.set_qlen(0, 100);
  tm.set_qlen(1, 500);
  tm.set_qlen(2, 300);
  EXPECT_EQ(mp.EvictVictim(tm, 0), std::optional<int>(1));
}

TEST(MpPushoutTest, NoEligibleVictimDropsArrival) {
  test::FakeTmView tm(1000, 2);
  bm::MultiPriorityPushout mp;
  tm.set_priority(0, 0);
  tm.set_priority(1, 1);
  tm.set_qlen(0, 900);  // all buffer held by the MORE important queue
  tm.set_qlen(1, 0);
  EXPECT_EQ(mp.EvictVictim(tm, 1), std::nullopt);
}

TEST(MpPushoutTest, SelfLongestDropsArrival) {
  test::FakeTmView tm(1000, 2);
  bm::MultiPriorityPushout mp;
  tm.set_priority(0, 1);
  tm.set_priority(1, 1);
  tm.set_qlen(0, 700);
  tm.set_qlen(1, 200);
  EXPECT_EQ(mp.EvictVictim(tm, 0), std::nullopt);
  EXPECT_TRUE(mp.IsPreemptive());
}

}  // namespace
}  // namespace occamy

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace occamy::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_FALSE(sim.HasPendingEvents());
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(Nanoseconds(30), [&] { order.push_back(3); });
  sim.At(Nanoseconds(10), [&] { order.push_back(1); });
  sim.At(Nanoseconds(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Nanoseconds(30));
}

TEST(SimulatorTest, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.At(Nanoseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  Simulator sim;
  Time seen = -1;
  sim.At(Nanoseconds(10), [&] {
    sim.After(Nanoseconds(5), [&] { seen = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(seen, Nanoseconds(15));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.At(Nanoseconds(10), [&] { ++fired; });
  sim.At(Nanoseconds(20), [&] { ++fired; });
  sim.At(Nanoseconds(30), [&] { ++fired; });
  sim.RunUntil(Nanoseconds(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), Nanoseconds(20));
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunUntilAdvancesTimeEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(Microseconds(7));
  EXPECT_EQ(sim.now(), Microseconds(7));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.At(Nanoseconds(10), [&] { ++fired; });
  EXPECT_TRUE(h.IsPending());
  EXPECT_TRUE(h.Cancel());
  EXPECT_FALSE(h.IsPending());
  EXPECT_FALSE(h.Cancel());  // second cancel is a no-op
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, CancelFromWithinEvent) {
  Simulator sim;
  int fired = 0;
  EventHandle victim = sim.At(Nanoseconds(20), [&] { ++fired; });
  sim.At(Nanoseconds(10), [&] { victim.Cancel(); });
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.At(Nanoseconds(10), [&] {
    ++fired;
    sim.Stop();
  });
  sim.At(Nanoseconds(20), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  // A later Run resumes.
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ProcessedEventCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.At(Nanoseconds(i), [] {});
  sim.Run();
  EXPECT_EQ(sim.processed_events(), 5u);
}

TEST(SimulatorTest, EventsCanScheduleCascades) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.After(Nanoseconds(1), recurse);
  };
  sim.After(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), Nanoseconds(99));
}

TEST(SimulatorTest, SchedulingIntoPastAborts) {
  Simulator sim;
  sim.At(Nanoseconds(10), [&] {
    EXPECT_DEATH(sim.At(Nanoseconds(5), [] {}), "scheduling into the past");
  });
  sim.Run();
}

TEST(EventQueueTest, SkipsCancelledHeads) {
  EventQueue q;
  auto h1 = q.Push(1, [] {});
  q.Push(2, [] {});
  h1.Cancel();
  EXPECT_FALSE(q.Empty());
  EXPECT_EQ(q.NextTime(), 2);
}

TEST(EventQueueTest, LiveSizeExcludesCancelled) {
  EventQueue q;
  auto h1 = q.Push(10, [] {});
  auto h2 = q.Push(20, [] {});
  q.Push(30, [] {});
  EXPECT_EQ(q.live_size(), 3u);
  h1.Cancel();
  h2.Cancel();
  // live_size/Empty are non-mutating: the dead events still occupy the heap.
  EXPECT_EQ(q.live_size(), 1u);
  EXPECT_EQ(q.SizeForTest(), 3u);
  EXPECT_FALSE(q.Empty());
  Callback cb;
  EXPECT_EQ(q.PopLive(cb), 30);
  EXPECT_EQ(q.live_size(), 0u);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, CancelHeavyWorkloadKeepsHeapBounded) {
  // Regression test for the cancelled-event leak: a long-lived simulation
  // that keeps cancelling far-future timers (the retransmit-timer pattern)
  // must not grow the heap unboundedly. Lazy compaction bounds the heap at
  // < 2x the live count (plus the small compaction floor).
  EventQueue q;
  std::vector<EventHandle> live;
  for (int round = 0; round < 10000; ++round) {
    // Re-arm a timer: cancel the oldest pending, schedule a new far-future
    // one, plus a near event that actually fires.
    live.push_back(q.Push(Nanoseconds(1000000 + round), [] {}));
    if (live.size() > 100) {
      live.front().Cancel();
      live.erase(live.begin());
    }
    q.Push(Nanoseconds(round), [] {});
    Callback cb;
    q.PopLive(cb);
    ASSERT_LE(q.SizeForTest(), 2 * q.live_size() + 64)
        << "heap must stay bounded under cancel churn (round " << round << ")";
  }
  EXPECT_LE(q.SizeForTest(), 2 * q.live_size() + 64);
}

TEST(EventQueueTest, StaleHandleAfterSlotReuseIsNoOp) {
  // Generation safety: once an event fires, its arena slot may be recycled
  // by a new event. The old handle must neither cancel nor report the new
  // occupant.
  EventQueue q;
  EventHandle stale = q.Push(1, [] {});
  Callback cb;
  q.PopLive(cb);  // fires the event; slot 0 goes back to the freelist
  cb();

  int fired = 0;
  q.Push(2, [&] { ++fired; });  // recycles slot 0 with a new generation
  EXPECT_FALSE(stale.IsPending());
  EXPECT_FALSE(stale.Cancel()) << "stale cancel must be a no-op";
  EXPECT_EQ(q.live_size(), 1u) << "the recycled slot's event must survive";
  q.PopLive(cb);
  cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelledHandleStaysCancelledAfterReuse) {
  EventQueue q;
  EventHandle h = q.Push(5, [] {});
  EXPECT_TRUE(h.Cancel());
  // Drain the dead head so the slot is recycled.
  q.Push(6, [] {});
  Callback cb;
  q.PopLive(cb);
  EXPECT_TRUE(q.Empty());
  q.Push(7, [] {});
  EXPECT_FALSE(h.Cancel()) << "handle from a previous slot life must stay inert";
  EXPECT_EQ(q.live_size(), 1u);
}

TEST(EventQueueTest, SameTimeFifoOrderSurvivesCancellationAndCompaction) {
  // Determinism: same-time events pop in scheduling order (the contract the
  // old binary heap provided via seq) even after heavy interleaved
  // cancellation has forced compactions.
  std::vector<int> expected_order;
  for (Time t = 100; t < 105; ++t) {
    for (int i = 0; i < 500; ++i) {
      if (i % 3 != 0 && 100 + (i % 5) == t) expected_order.push_back(i);
    }
  }

  EventQueue q;
  std::vector<EventHandle> to_cancel;
  std::vector<int> order;
  for (int i = 0; i < 500; ++i) {
    const Time t = 100 + (i % 5);  // many seq ties per time bucket
    if (i % 3 == 0) {
      to_cancel.push_back(q.Push(t, [] {}));
    } else {
      q.Push(t, [&order, i] { order.push_back(i); });
    }
  }
  for (auto& h : to_cancel) h.Cancel();
  while (!q.Empty()) {
    Callback cb;
    q.PopLive(cb);
    cb();
  }
  EXPECT_EQ(order, expected_order);
}

TEST(EventQueueTest, NullCallbackIsRejectedAtPush) {
  // The pop path invokes unconditionally, so a null callback must be caught
  // when scheduled, not crash when it fires.
  EventQueue q;
  EXPECT_DEATH(q.Push(1, nullptr), "null callback");
}

// Model check of the tiered queue: random interleavings of zero-delay,
// near, far and horizon-straddling pushes, pushes from inside popped
// callbacks, cancels of live, fired, cancelled and recycled handles, and
// NextTime/PopLive, against a reference ordered by (time, push order).
class EventQueueModel {
 public:
  static constexpr Time kHorizon = EventQueue::kFarHorizon;

  // A time relative to the last pop, from one of the tier-relevant classes.
  Time PickTime() {
    switch (rng_.UniformInt(6)) {
      case 0:
      case 1:
        return now_;  // same-time lane
      case 2:
        return now_ + 1 + static_cast<Time>(rng_.UniformInt(kHorizon - 1));  // near
      case 3:
        return now_ + kHorizon - 1 + static_cast<Time>(rng_.UniformInt(3));  // straddles
      case 4:
        return now_ + kHorizon + static_cast<Time>(rng_.UniformInt(10 * kHorizon));  // far
      default:
        return now_ + static_cast<Time>(rng_.UniformInt(4));  // ties across tiers
    }
  }

  void Push(Time t) {
    const int id = static_cast<int>(issued_.size());
    // Some events schedule a successor from inside their callback.
    const bool nested = rng_.UniformInt(4) == 0;
    EventHandle h = queue_.Push(t, [this, id, nested] {
      fired_ = id;
      if (nested) Push(PickTime());
    });
    issued_.push_back(Issued{h, t, pushes_});
    model_.emplace(std::make_pair(t, pushes_), id);
    ++pushes_;
  }

  // Cancels a pending event half the time (enough to force compactions);
  // otherwise any handle ever issued: live, fired, cancelled, or one whose
  // arena slot a later event has recycled.
  void Cancel() {
    if (issued_.empty()) return;
    int id = static_cast<int>(rng_.UniformInt(issued_.size()));
    if (!model_.empty() && rng_.UniformInt(2) == 0) {
      id = std::next(model_.begin(), static_cast<long>(rng_.UniformInt(model_.size())))->second;
    }
    Issued& pick = issued_[static_cast<size_t>(id)];
    const bool live = model_.count({pick.time, pick.order}) > 0;
    ASSERT_EQ(pick.handle.IsPending(), live);
    ASSERT_EQ(pick.handle.Cancel(), live);
    model_.erase({pick.time, pick.order});
  }

  void Pop() {
    if (model_.empty()) {
      ASSERT_TRUE(queue_.Empty());
      return;
    }
    const auto head = model_.begin();
    const Time want_time = head->first.first;
    const int want_id = head->second;
    model_.erase(head);
    ASSERT_EQ(queue_.NextTime(), want_time);
    Callback cb;
    now_ = queue_.PopLive(cb);
    ASSERT_EQ(now_, want_time);
    cb();
    ASSERT_EQ(fired_, want_id);
    ++popped_;
  }

  void CheckSizes() const {
    ASSERT_EQ(queue_.live_size(), model_.size());
    ASSERT_LE(queue_.SizeForTest(), 2 * queue_.live_size() + 64);
  }

  Rng& rng() { return rng_; }
  uint64_t popped() const { return popped_; }
  uint64_t pushes() const { return pushes_; }

 private:
  struct Issued {
    EventHandle handle;
    Time time;
    uint64_t order;
  };

  Rng rng_{20250917};
  EventQueue queue_;
  std::map<std::pair<Time, uint64_t>, int> model_;  // (time, push order) -> id
  std::vector<Issued> issued_;                       // indexed by id
  Time now_ = 0;
  uint64_t pushes_ = 0;
  uint64_t popped_ = 0;
  int fired_ = -1;
};

TEST(EventQueueTest, RandomizedInterleavingsMatchSortedModel) {
  EventQueueModel m;
  for (int op = 0; op < 40000; ++op) {
    // Alternate growing and shrinking phases so every tier both fills up
    // (and compacts) and drains.
    const bool grow = (op / 4000) % 2 == 0;
    const uint64_t r = m.rng().UniformInt(20);
    if (r < (grow ? 11u : 4u)) {
      m.Push(m.PickTime());
    } else if (r < (grow ? 16u : 8u)) {
      ASSERT_NO_FATAL_FAILURE(m.Cancel());
    } else {
      ASSERT_NO_FATAL_FAILURE(m.Pop());
    }
    ASSERT_NO_FATAL_FAILURE(m.CheckSizes()) << "op " << op;
  }
  for (int op = 0; op < 100000; ++op) ASSERT_NO_FATAL_FAILURE(m.Pop());
  ASSERT_NO_FATAL_FAILURE(m.CheckSizes());
  EXPECT_GT(m.popped(), 10000u);
  EXPECT_GT(m.pushes(), 15000u);
}

TEST(CallbackTest, InlineAndHeapStorage) {
  int hits = 0;
  Callback small([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(small));
  small();
  EXPECT_EQ(hits, 1);

  // There is no heap fallback: a capture larger than the inline buffer
  // does not compile.
  struct Oversized {
    int64_t payload[16];  // 128 bytes: exceeds the 48-byte inline buffer
    void operator()() {}
  };
  static_assert(!std::is_constructible_v<Callback, Oversized>);
}

TEST(CallbackTest, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  Callback a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  Callback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(counter.use_count(), 2) << "move must not duplicate the capture";
  b();
  EXPECT_EQ(*counter, 1);
  b = nullptr;
  EXPECT_EQ(counter.use_count(), 1) << "reset must release the capture";
}

TEST(CallbackTest, WrapsStdFunction) {
  int hits = 0;
  std::function<void()> fn = [&hits] { ++hits; };
  Callback cb(fn);  // copies the std::function into the callback
  cb();
  EXPECT_EQ(hits, 1);
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(EventQueueTest, DeterministicAcrossRuns) {
  // Two identical schedules must produce identical execution orders.
  auto run = [] {
    Simulator sim(123);
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      const Time t = Nanoseconds(static_cast<int64_t>(sim.rng().UniformInt(20)));
      sim.At(t, [&order, i] { order.push_back(i); });
    }
    sim.Run();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace occamy::sim

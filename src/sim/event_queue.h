// Event queue for the discrete-event engine.
//
// Events pop in (time, sequence) order, where the sequence is the push
// order: same-time events run FIFO in scheduling order. That order is the
// determinism contract, so everything below is about making each push/pop
// cheaper without ever changing it.
//
// Three tiers. Every entry lives in exactly one of:
//  - the same-time lane: a FIFO for pushes at the time of the last pop (the
//    zero-delay kicks, chiefly expulsion-engine steps, that make up over a
//    quarter of a star run's events). All of its entries share one time
//    and arrive in increasing sequence, so it is sorted by construction
//    and needs no heap.
//  - the near heap: a 4-ary min-heap for everything within kFarHorizon of
//    the last pop (the packet path: serialization, propagation, arrivals).
//  - the far heap: a 4-ary min-heap for events at least kFarHorizon ahead
//    (pre-scheduled flow starts, retransmit timers). The star keeps ~1,250
//    of them queued, cancelled ones included; out of the near heap, they no
//    longer add levels to every packet-path sift.
// NextTime/PopLive take the smallest of the three fronts under the full
// (time, sequence) key. Each tier is internally ordered by that key, so the
// minimum of the fronts is the global minimum: the merge is exact, and
// which tier an event lands in (hence kFarHorizon) changes speed only,
// never the pop sequence.
//
// Layout:
//  - Entries are 16 bytes: the time plus a packed (seq << 24 | slot) word.
//    The sort key (time, seq) is embedded, so sifting is pure
//    sequential-array work — comparisons never dereference into the arena —
//    and since seq occupies the high bits, comparing the packed word
//    compares seq. This caps the arena at 2^24 concurrent events and one
//    queue at 2^40 total events; both are checked.
//  - Event state (callback + liveness) lives in a contiguous freelist-
//    recycled arena: after warm-up, scheduling performs no allocation (the
//    arena and tier vectors are reused, and sim::Callback stores every
//    capture inline). EventHandle is a {slot, generation} pair instead of
//    a weak_ptr: cancelling a stale handle whose slot has been recycled is
//    a generation mismatch, hence a no-op.
//
// Cancelled events are skipped lazily when they surface at a tier's front.
// A pop re-checks only the front of the tier it popped from, and a cancel
// that hits a front raises a flag that makes the next NextTime/PopLive
// prune all three fronts; otherwise every front is known live and the
// merge reads three entries without touching the arena. Cancelled entries
// are compacted out of all three tiers once they outnumber live events, so
// a workload that cancels many far-future timers cannot grow the queue
// unboundedly.
//
// Handles are only valid while the owning EventQueue is alive; they are
// plain {queue, slot, generation} triples with no ownership.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/sim/callback.h"
#include "src/util/check.h"
#include "src/util/time.h"

// OCCAMY_ASAN builds poison the callback storage of freed arena slots, so
// any code that reaches into a recycled event's state (instead of going
// through the generation-checked EventHandle API) reports as a
// use-after-poison instead of silently reading the next tenant's callback.
// Only the callback region is poisoned: generation/cancelled stay readable,
// because stale-handle Cancel()/IsPending() legitimately read them to
// discover the slot was recycled.
#ifdef OCCAMY_ASAN
#include <sanitizer/asan_interface.h>
#define OCCAMY_POISON_SLOT(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define OCCAMY_UNPOISON_SLOT(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define OCCAMY_POISON_SLOT(addr, size) static_cast<void>(0)
#define OCCAMY_UNPOISON_SLOT(addr, size) static_cast<void>(0)
#endif

namespace occamy::sim {

class EventQueue;

// A handle to a scheduled event; default-constructed handles are inert.
// Cancelling an already-fired or already-cancelled event is a no-op.
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet. Returns true if it was live.
  inline bool Cancel();

  inline bool IsPending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, uint32_t slot, uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  uint32_t slot_ = 0;
  uint32_t generation_ = 0;
};

class EventQueue {
 public:
  // Pushes at least this far ahead of the last pop go to the far heap.
  // Measured at default scale: on the star every packet-path push lands at
  // most 2 us ahead (the link propagation) while the nearest timer or flow
  // start is 308 us out; on the leaf-spine fabric near pushes stay within
  // 43 us and far ones start at 78 us. 50 us splits both, leaving the
  // star's near heap ~22 entries deep and its far heap ~1,250 (5 ms
  // retransmit timers, flow starts). Speed only — the merge is exact for
  // any value.
  static constexpr Time kFarHorizon = 50 * kMicrosecond;

#ifdef OCCAMY_ASAN
  ~EventQueue() {
    // Unpoison recycled slots so the arena vector's destructor may run
    // the (trivial, but instrumented) Callback destructors.
    for (const uint32_t slot : free_) {
      OCCAMY_UNPOISON_SLOT(&slots_[slot].callback, sizeof(Callback));
    }
  }
#endif

  EventHandle Push(Time time, Callback cb) {
    // The pop path invokes unconditionally (the old queue silently skipped
    // null callbacks); reject the programming error at schedule time.
    OCCAMY_CHECK(static_cast<bool>(cb)) << "scheduling a null callback";
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      OCCAMY_UNPOISON_SLOT(&slots_[slot].callback, sizeof(Callback));
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      OCCAMY_CHECK(slot < (1u << kSlotBits)) << "too many concurrent events";
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.cancelled = false;
    s.callback = std::move(cb);
    OCCAMY_CHECK(next_seq_ >> (64 - kSlotBits) == 0) << "event sequence overflow";
    const Entry e{time, (next_seq_++ << kSlotBits) | slot};
    if (time == lane_time_) {
      lane_.push_back(e);
    } else if (time - lane_time_ >= kFarHorizon) {
      HeapPush(far_, e);
    } else {
      HeapPush(near_, e);
    }
    ++live_;
    return EventHandle(this, slot, s.generation);
  }

  bool Empty() const { return live_ == 0; }

  // Events that will still fire (excludes cancelled-but-not-yet-removed
  // entries). Non-mutating, unlike NextTime().
  size_t live_size() const { return live_; }

  // Total pushes so far, cancelled or not (the next sequence number).
  uint64_t pushes() const { return next_seq_; }

  // Raw occupancy of all three tiers including cancelled entries awaiting
  // removal; compaction keeps this below 2x live_size() (plus a small
  // floor).
  size_t SizeForTest() const { return LaneSize() + near_.size() + far_.size(); }

  // Time of the earliest live event. Undefined if Empty().
  Time NextTime() {
    if (dead_front_) PruneFronts();
    return Front(MinTier()).time;
  }

  // Pops the earliest live event, moving its callback into `cb` and
  // returning its time. The slot is recycled before the callback runs, so
  // the callback may freely schedule new events. Undefined if Empty().
  Time PopLive(Callback& cb) {
    if (dead_front_) PruneFronts();
    const Tier tier = MinTier();
    const Entry head = Front(tier);
    RemoveFront(tier);
    PruneFront(tier);
    // The lane only ever holds entries at one time, so it re-targets only
    // once it has drained; with a monotone clock it is empty whenever the
    // popped time moves on.
    if (LaneSize() == 0) lane_time_ = head.time;
    const uint32_t slot = SlotOf(head);
    cb = std::move(slots_[slot].callback);
    FreeSlot(slot);
    --live_;
    return head.time;
  }

 private:
  friend class EventHandle;

  // Arena slot index width inside Entry::seq_slot; the high 40 bits hold
  // the scheduling sequence number.
  static constexpr int kSlotBits = 24;

  // Tier entry: the (time, seq) sort key is embedded so comparisons stay in
  // contiguous arrays; the slot part points at callback/liveness state.
  struct Entry {
    Time time;
    uint64_t seq_slot;  // (seq << kSlotBits) | slot
  };

  // Stands in for an empty tier's front: after every real entry.
  static constexpr Entry kNoEntry{std::numeric_limits<Time>::max(),
                                  std::numeric_limits<uint64_t>::max()};

  enum Tier { kLane, kNear, kFar };

  static uint32_t SlotOf(const Entry& e) {
    return static_cast<uint32_t>(e.seq_slot & ((1u << kSlotBits) - 1));
  }

  struct Slot {
    uint32_t generation = 0;
    bool cancelled = false;
    Callback callback;
  };

  // Compaction kicks in only past this occupancy: tiny queues never pay the
  // rebuild, and the bound "dead <= max(live, floor)" still holds.
  static constexpr size_t kCompactMinSize = 64;

  bool CancelSlot(uint32_t slot, uint32_t generation) {
    if (slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    if (s.generation != generation || s.cancelled) return false;
    s.cancelled = true;
    s.callback = nullptr;  // release captured state eagerly
    --live_;
    for (const Tier tier : {kLane, kNear, kFar}) {
      const Entry& front = Front(tier);
      if (front.seq_slot != kNoEntry.seq_slot && SlotOf(front) == slot) dead_front_ = true;
    }
    const size_t size = SizeForTest();
    if (size >= kCompactMinSize && (size - live_) * 2 > size) Compact();
    return true;
  }

  bool IsPendingSlot(uint32_t slot, uint32_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation &&
           !slots_[slot].cancelled;
  }

  // (time, seq) order, branch-free. seq sits in the high bits of seq_slot,
  // so comparing the packed word compares seq (slot bits only separate
  // identical seqs, which cannot happen).
  static bool Before(const Entry& a, const Entry& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.seq_slot < b.seq_slot));
  }

  size_t LaneSize() const { return lane_.size() - lane_head_; }

  const Entry& Front(Tier tier) const {
    switch (tier) {
      case kLane:
        return LaneSize() == 0 ? kNoEntry : lane_[lane_head_];
      case kNear:
        return near_.empty() ? kNoEntry : near_.front();
      case kFar:
        return far_.empty() ? kNoEntry : far_.front();
    }
    return kNoEntry;
  }

  // The tier holding the earliest event: the exact three-way merge.
  Tier MinTier() const {
    const Entry& lane = Front(kLane);
    const Entry& near = Front(kNear);
    const Entry& far = Front(kFar);
    if (Before(far, near)) return Before(far, lane) ? kFar : kLane;
    return Before(near, lane) ? kNear : kLane;
  }

  void RemoveFront(Tier tier) {
    if (tier == kLane) {
      if (++lane_head_ == lane_.size()) {
        lane_.clear();
        lane_head_ = 0;
      }
    } else {
      RemoveRoot(tier == kNear ? near_ : far_);
    }
  }

  // Frees and removes cancelled entries until `tier`'s front is live.
  void PruneFront(Tier tier) {
    for (;;) {
      const Entry& front = Front(tier);
      if (front.seq_slot == kNoEntry.seq_slot || !slots_[SlotOf(front)].cancelled) return;
      FreeSlot(SlotOf(front));
      RemoveFront(tier);
    }
  }

  void PruneFronts() {
    for (const Tier tier : {kLane, kNear, kFar}) PruneFront(tier);
    dead_front_ = false;
  }

  static void HeapPush(std::vector<Entry>& heap, const Entry& e) {
    heap.push_back(e);
    SiftUp(heap, heap.size() - 1);
  }

  static void SiftUp(std::vector<Entry>& heap, size_t i) {
    const Entry v = heap[i];
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!Before(v, heap[parent])) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = v;
  }

  static void SiftDown(std::vector<Entry>& heap, size_t i) {
    const Entry v = heap[i];
    const size_t n = heap.size();
    for (;;) {
      const size_t first = 4 * i + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t last = std::min(first + 4, n);
      for (size_t c = first + 1; c < last; ++c) {
        if (Before(heap[c], heap[best])) best = c;
      }
      if (!Before(heap[best], v)) break;
      heap[i] = heap[best];
      i = best;
    }
    heap[i] = v;
  }

  static void RemoveRoot(std::vector<Entry>& heap) {
    heap.front() = heap.back();
    heap.pop_back();
    if (!heap.empty()) SiftDown(heap, 0);
  }

  void FreeSlot(uint32_t slot) {
    Slot& s = slots_[slot];
    ++s.generation;  // invalidates every outstanding handle to this slot
    s.callback = nullptr;
    // Freed slots only leave free_ through Push (which unpoisons), and the
    // arena vector only grows when free_ is empty, so a poisoned region is
    // never relocated.
    OCCAMY_POISON_SLOT(&s.callback, sizeof(Callback));
    free_.push_back(slot);
  }

  // Frees the cancelled entries of tier[first..] and moves the live ones,
  // in order, to the front of `tier`.
  void DropCancelled(std::vector<Entry>& tier, size_t first) {
    size_t kept = 0;
    for (size_t i = first; i < tier.size(); ++i) {
      const Entry e = tier[i];
      if (slots_[SlotOf(e)].cancelled) {
        FreeSlot(SlotOf(e));
      } else {
        tier[kept++] = e;
      }
    }
    tier.resize(kept);
  }

  // Removes every cancelled entry from all tiers. The lane keeps its order
  // (it stays sorted); each heap is rebuilt in O(n). The pop order is
  // unchanged: (time, seq) is a total order, so any valid heap of the same
  // live set yields the identical extraction sequence.
  void Compact() {
    DropCancelled(lane_, lane_head_);
    lane_head_ = 0;
    for (std::vector<Entry>* heap : {&near_, &far_}) {
      DropCancelled(*heap, 0);
      const size_t kept = heap->size();
      if (kept > 1) {
        for (size_t i = (kept - 2) / 4 + 1; i-- > 0;) SiftDown(*heap, i);
      }
    }
    dead_front_ = false;
  }

  std::vector<Slot> slots_;     // arena; indexed by EventHandle::slot_
  std::vector<uint32_t> free_;  // recycled arena slots
  // Same-time FIFO; its live part is [lane_head_, end).
  std::vector<Entry> lane_;
  size_t lane_head_ = 0;
  // 4-ary min-heaps: entries pushed within kFarHorizon of lane_time_, and
  // those pushed further ahead.
  std::vector<Entry> near_;
  std::vector<Entry> far_;
  // The lane's time: the last pop's time once the lane has drained. With
  // a monotone clock it is always "now", so it also anchors kFarHorizon.
  Time lane_time_ = 0;
  // Entries not cancelled, over all tiers.
  size_t live_ = 0;
  // Set when a cancel hit some tier's front; cleared once fronts are pruned.
  bool dead_front_ = false;
  uint64_t next_seq_ = 0;
};

inline bool EventHandle::Cancel() {
  return queue_ != nullptr && queue_->CancelSlot(slot_, generation_);
}

inline bool EventHandle::IsPending() const {
  return queue_ != nullptr && queue_->IsPendingSlot(slot_, generation_);
}

}  // namespace occamy::sim

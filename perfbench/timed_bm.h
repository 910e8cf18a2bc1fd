// Timing decorator for bm::BmScheme, installed through
// SwitchConfig::scheme_factory. It forwards every virtual call to the
// wrapped scheme and accumulates call counts and host time per call kind.
//
// One tally per scheme instance: every TmPartition owns its scheme and runs
// on exactly one shard, so a tally is only ever written by one thread and
// needs no synchronization. Tallies are read after RunUntil returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>

#include "src/bm/bm_scheme.h"
#include "src/net/switch.h"

namespace occamy::perfbench {

struct alignas(64) BmTally {
  int64_t admit_calls = 0;
  int64_t admit_accepts = 0;
  int64_t admit_ns = 0;
  int64_t hook_calls = 0;  // OnEnqueue / OnDequeue / OnAdmissionDrop
  int64_t hook_ns = 0;
  int64_t evict_calls = 0;  // EvictVictim
  int64_t evict_ns = 0;
  int64_t threshold_calls = 0;  // Threshold (stats + expulsion engine)
  int64_t threshold_ns = 0;

  void Add(const BmTally& o) {
    admit_calls += o.admit_calls;
    admit_accepts += o.admit_accepts;
    admit_ns += o.admit_ns;
    hook_calls += o.hook_calls;
    hook_ns += o.hook_ns;
    evict_calls += o.evict_calls;
    evict_ns += o.evict_ns;
    threshold_calls += o.threshold_calls;
    threshold_ns += o.threshold_ns;
  }
  int64_t total_ns() const { return admit_ns + hook_ns + evict_ns + threshold_ns; }
};

class TimedBm final : public bm::BmScheme {
 public:
  TimedBm(std::unique_ptr<bm::BmScheme> inner, BmTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  std::string_view name() const override { return inner_->name(); }

  bool Admit(const bm::TmView& tm, int q, int64_t bytes) override {
    const auto t0 = Clock::now();
    const bool ok = inner_->Admit(tm, q, bytes);
    tally_->admit_ns += Since(t0);
    ++tally_->admit_calls;
    if (ok) ++tally_->admit_accepts;
    return ok;
  }

  int64_t Threshold(const bm::TmView& tm, int q) const override {
    const auto t0 = Clock::now();
    const int64_t t = inner_->Threshold(tm, q);
    tally_->threshold_ns += Since(t0);
    ++tally_->threshold_calls;
    return t;
  }

  void OnEnqueue(const bm::TmView& tm, int q, int64_t bytes) override {
    const auto t0 = Clock::now();
    inner_->OnEnqueue(tm, q, bytes);
    CountHook(t0);
  }
  void OnDequeue(const bm::TmView& tm, int q, int64_t bytes) override {
    const auto t0 = Clock::now();
    inner_->OnDequeue(tm, q, bytes);
    CountHook(t0);
  }
  void OnAdmissionDrop(const bm::TmView& tm, int q, int64_t bytes) override {
    const auto t0 = Clock::now();
    inner_->OnAdmissionDrop(tm, q, bytes);
    CountHook(t0);
  }

  std::optional<int> EvictVictim(const bm::TmView& tm, int arriving_q) override {
    const auto t0 = Clock::now();
    const std::optional<int> v = inner_->EvictVictim(tm, arriving_q);
    tally_->evict_ns += Since(t0);
    ++tally_->evict_calls;
    return v;
  }

  bool IsPreemptive() const override { return inner_->IsPreemptive(); }
  bool ThresholdIsFreeBytesMonotone() const override {
    return inner_->ThresholdIsFreeBytesMonotone();
  }
  void Reset() override { inner_->Reset(); }

 private:
  using Clock = std::chrono::steady_clock;
  static int64_t Since(Clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
  }
  void CountHook(Clock::time_point t0) {
    tally_->hook_ns += Since(t0);
    ++tally_->hook_calls;
  }

  std::unique_ptr<bm::BmScheme> inner_;
  BmTally* tally_;
};

// Owns one tally per scheme the wrapped factory creates. The factory runs
// during topology construction (single-threaded), so growing the deque is
// safe; deque growth never moves existing tallies.
class BmTallies {
 public:
  net::BmSchemeFactory Wrap(net::BmSchemeFactory inner) {
    return [this, inner = std::move(inner)]() -> std::unique_ptr<bm::BmScheme> {
      tallies_.emplace_back();
      return std::make_unique<TimedBm>(inner(), &tallies_.back());
    };
  }

  BmTally Total() const {
    BmTally sum;
    for (const auto& t : tallies_) sum.Add(t);
    return sum;
  }

 private:
  std::deque<BmTally> tallies_;
};

}  // namespace occamy::perfbench

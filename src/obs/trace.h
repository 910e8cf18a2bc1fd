// Zero-overhead tracing: per-shard ring-buffer span/instant recorder.
//
// Two gates keep this off the hot path:
//  - compile-time: the OCCAMY_TRACE_* macros expand to ((void)0) unless the
//    build defines OCCAMY_TRACE=1 (CMake option OCCAMY_TRACE, default ON) —
//    an OFF build carries no tracing code at all (kTraceCompiled below is
//    false, and `occamy_sim run --trace=...` refuses with exit 2; CI's
//    perf-smoke job checks that refusal on its OFF build);
//  - runtime: even when compiled in, every macro first reads one relaxed
//    atomic bool (TraceRecorder::Enabled()); nothing else happens until a
//    run is started with TraceRecorder::Get().Start(...).
//
// Hot-path code (src/sim, src/net, src/buffer) must use the macros, never
// the obs:: API directly — enforced statically by occamy_lint's
// trace-macro-only rule — so an OFF build stays zero-overhead by
// construction.
//
// Recording is lock-free: each shard appends to its own cache-line-aligned
// ring (writes only ever come from the shard's owning thread; the main
// thread records into shard 0's ring strictly before worker threads start
// and after they join, so thread start/join provides the happens-before).
// A full ring wraps and overwrites its oldest events — the tail of a long
// run survives, and TraceRecorder::dropped() reports how much was lost.
//
// Event names and arg names must be string literals (or otherwise outlive
// the recorder): only the pointer is stored, nothing is allocated per
// event.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

// Forward declaration (src/sim/sharded_simulator.h): the shard currently
// executing on this thread, 0 outside sharded runs. Declared here instead
// of included so tracing headers never pull simulator headers into the
// buffer/net layers.
namespace occamy::sim {
int CurrentShard();
}  // namespace occamy::sim

namespace occamy::obs {

// One recorded event, fixed-size POD (no ownership, no allocation).
struct TraceEvent {
  const char* name = nullptr;      // static string; Chrome "name"
  const char* arg_name = nullptr;  // static string or nullptr
  uint64_t ts_ns = 0;              // steady-clock ns (normalized on export)
  uint64_t dur_ns = 0;             // 0 for instants
  int64_t arg = 0;                 // meaningful iff arg_name != nullptr
  int32_t shard = 0;               // Chrome "tid"
  char phase = 'X';                // 'X' complete span, 'i' instant
};

inline uint64_t TraceNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process-wide recorder. Start() sizes one ring per shard; Record() routes
// by sim::CurrentShard(). Start/Stop/Clear/SortedEvents must not run
// concurrently with recording threads (the CLI brackets the whole run).
class TraceRecorder {
 public:
  static TraceRecorder& Get() {
    static TraceRecorder recorder;
    return recorder;
  }

  // True once Start() has run and Stop() has not. The one check the
  // compiled-in macros perform before doing any work.
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  // Arms recording with `shards` rings of `capacity` events each.
  void Start(int shards, size_t capacity = kDefaultCapacity) {
    rings_.clear();
    rings_.resize(shards > 0 ? static_cast<size_t>(shards) : 1);
    for (Ring& ring : rings_) {
      ring.events.resize(capacity > 0 ? capacity : 1);
      ring.count = 0;
    }
    enabled_.store(true, std::memory_order_release);
  }

  void Stop() { enabled_.store(false, std::memory_order_release); }

  void Clear() {
    Stop();
    rings_.clear();
  }

  // Appends to the calling shard's ring. Only meaningful while Enabled();
  // events from a shard index the recorder was not sized for are discarded.
  void Record(const TraceEvent& ev) {
    const auto shard = static_cast<size_t>(ev.shard);
    if (shard >= rings_.size()) return;
    Ring& ring = rings_[shard];
    ring.events[ring.count % ring.events.size()] = ev;
    ++ring.count;
  }

  // Events recorded so far across all rings (ring-evicted ones excluded),
  // sorted by (ts, shard) for export. Call after the run, never during.
  std::vector<TraceEvent> SortedEvents() const;

  // Events lost to ring wrap-around, across all rings.
  uint64_t dropped() const {
    uint64_t lost = 0;
    for (const Ring& ring : rings_) {
      if (ring.count > ring.events.size()) lost += ring.count - ring.events.size();
    }
    return lost;
  }

  int shards() const { return static_cast<int>(rings_.size()); }

  static constexpr size_t kDefaultCapacity = size_t{1} << 18;  // per shard

 private:
  struct alignas(64) Ring {
    std::vector<TraceEvent> events;  // preallocated at Start(); wraps
    uint64_t count = 0;              // total ever recorded into this ring
  };

  static std::atomic<bool> enabled_;
  std::vector<Ring> rings_;
};

// RAII span: stamps start on construction, records on destruction. Cheap
// when disabled: one relaxed load, no clock read.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (!TraceRecorder::Enabled()) return;
    name_ = name;
    start_ns_ = TraceNowNs();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Attaches one integer argument (shown in the trace viewer / used by the
  // profile aggregator, e.g. events executed in this window).
  void SetArg(const char* arg_name, int64_t value) {
    arg_name_ = arg_name;
    arg_ = value;
  }

  ~TraceSpan() {
    if (name_ == nullptr) return;
    TraceEvent ev;
    ev.name = name_;
    ev.arg_name = arg_name_;
    ev.ts_ns = start_ns_;
    ev.dur_ns = TraceNowNs() - start_ns_;
    ev.arg = arg_;
    ev.shard = sim::CurrentShard();
    ev.phase = 'X';
    TraceRecorder::Get().Record(ev);
  }

 private:
  const char* name_ = nullptr;  // nullptr = recorder was disabled at entry
  const char* arg_name_ = nullptr;
  uint64_t start_ns_ = 0;
  int64_t arg_ = 0;
};

inline void RecordInstant(const char* name, const char* arg_name, int64_t arg) {
  TraceEvent ev;
  ev.name = name;
  ev.arg_name = arg_name;
  ev.ts_ns = TraceNowNs();
  ev.arg = arg;
  ev.shard = sim::CurrentShard();
  ev.phase = 'i';
  TraceRecorder::Get().Record(ev);
}

// True when tracing is compiled into this build (the CLI uses this to
// reject --trace on an OCCAMY_TRACE=OFF binary with a clear message).
#if defined(OCCAMY_TRACE) && OCCAMY_TRACE
inline constexpr bool kTraceCompiled = true;
#else
inline constexpr bool kTraceCompiled = false;
#endif

}  // namespace occamy::obs

// The instrumentation macros. ON: declare a named RAII span / record an
// instant after one relaxed-atomic check. OFF: expand to ((void)0) — the
// argument expressions are never evaluated (or even compiled), so sites
// may pass accessor calls without taxing OFF builds.
#if defined(OCCAMY_TRACE) && OCCAMY_TRACE

#define OCCAMY_TRACE_SPAN(var, name) ::occamy::obs::TraceSpan var(name)
#define OCCAMY_TRACE_SPAN_ARG(var, arg_name, value) \
  (var).SetArg((arg_name), static_cast<int64_t>(value))
#define OCCAMY_TRACE_INSTANT(name)                                  \
  do {                                                              \
    if (::occamy::obs::TraceRecorder::Enabled()) {                  \
      ::occamy::obs::RecordInstant((name), nullptr, 0);             \
    }                                                               \
  } while (0)
#define OCCAMY_TRACE_INSTANT_ARG(name, arg_name, value)             \
  do {                                                              \
    if (::occamy::obs::TraceRecorder::Enabled()) {                  \
      ::occamy::obs::RecordInstant((name), (arg_name),              \
                                   static_cast<int64_t>(value));    \
    }                                                               \
  } while (0)

#else  // !OCCAMY_TRACE

#define OCCAMY_TRACE_SPAN(var, name) ((void)0)
#define OCCAMY_TRACE_SPAN_ARG(var, arg_name, value) ((void)0)
#define OCCAMY_TRACE_INSTANT(name) ((void)0)
#define OCCAMY_TRACE_INSTANT_ARG(name, arg_name, value) ((void)0)

#endif  // OCCAMY_TRACE

// perf_driver: the benchmark's own C++ driver.
//
//   perf_driver run --workload=<w> --seed=<n> [--scale=smoke|default]
//                   [--trace-bm] [--setup-only]
//       Builds the workload from the runner's public calls, runs it, and
//       prints {"outcome": {...}, "host": {...}}: the simulated outcomes
//       and engine counters (same keys and formatting as `occamy_sim run`),
//       then host-time spans around each phase and, with --trace-bm,
//       per-call BM tallies from the TimedBm decorator. --setup-only stops
//       before RunUntil.
//   perf_driver replay --workload=<w>
//       Replays single-layer public functions on production objects sized
//       to the workload's geometry; prints {"<row>": ns_per_op, ...}.
//   perf_driver spin
//       Machine calibration: a fixed spin kernel on 1 thread and on 4.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>

#include "perfbench/replay.h"
#include "perfbench/rigs.h"
#include "perfbench/timed_bm.h"
#include "src/exp/metrics.h"

namespace occamy::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Driver start: the reference point of setup_s.
const Clock::time_point kStart = Clock::now();

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Spans {
  double build_s = 0;   // scenario construction: sim, network, switches, manager
  double pregen_s = 0;  // workload::Pregenerate* (and open-loop sender setup)
  double start_s = 0;   // FlowManager::StartFlow of every pregenerated flow
  double setup_s = 0;   // driver start -> first RunUntil
  double run_s = 0;     // RunUntil
  double collect_s = 0; // completion merge + statistics after RunUntil
  int64_t flows = 0;    // flows handed to StartFlow
};

// Times `fn` into `acc`.
template <typename Fn>
auto Timed(double& acc, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    acc += SecondsBetween(t0, Clock::now());
  } else {
    auto r = fn();
    acc += SecondsBetween(t0, Clock::now());
    return r;
  }
}

// Queue-delay and mailbox fields exactly as the runner's AddObsFields.
void AddObs(exp::Metrics& m, const obs::BufferObs& o, uint64_t staged, uint64_t drained) {
  m.Set("mailbox_staged_events", static_cast<int64_t>(staged));
  m.Set("mailbox_drained_events", static_cast<int64_t>(drained));
  m.Set("queue_delay_samples", static_cast<int64_t>(o.all_delays.count()));
  m.Set("queue_delay_p50_ns", o.all_delays.Quantile(0.5) / kNanosecond);
  m.Set("queue_delay_p99_ns", o.all_delays.Quantile(0.99) / kNanosecond);
  m.Set("queue_delay_max_ns", o.all_delays.max() / kNanosecond);
  m.Set("worst_queue_delay_p99_ns", o.worst_queue_p99_ps / kNanosecond);
}

void AddEngine(exp::Metrics& m, const sim::ShardedSimulator& ssim) {
  m.Set("sim_events", static_cast<int64_t>(ssim.processed_events()));
  m.Set("windows_run", static_cast<int64_t>(ssim.windows_run()));
  m.Set("windows_executed", static_cast<int64_t>(ssim.windows_executed()));
  m.Set("parallel_efficiency", ssim.parallel_efficiency());
}

// Mirrors bench::RunDpdkSharded step for step, with spans around phases.
void RunStar(const WorkloadInfo& w, const bench::DpdkRunSpec& run, bool setup_only,
             const FactoryWrap& wrap, Spans& sp, exp::Metrics& m) {
  const bench::BenchScale scale = *run.scale;
  const bench::StarSpec star = bench::MakeDpdkStarSpec(run);
  std::optional<StarRig> s;
  Timed(sp.build_s, [&] { s.emplace(star, w.shards, wrap); });
  const Time duration = bench::DpdkDuration(run, star, scale);

  uint64_t bg_last_id = 0;
  std::vector<std::unique_ptr<workload::OpenLoopSender>> lp_senders;
  if (run.bg == bench::DpdkRunSpec::Bg::kWebSearchDctcp) {
    const auto bg_flows = Timed(sp.pregen_s, [&] {
      return workload::PregeneratePoissonFlows(bench::MakeDpdkBgConfig(
          run, s->topo.hosts, star.host_rate, duration, s->IdealFn()));
    });
    Timed(sp.start_s, [&] {
      for (const auto& params : bg_flows) bg_last_id = s->manager->StartFlow(params);
    });
    sp.flows += static_cast<int64_t>(bg_flows.size());
  } else if (run.bg == bench::DpdkRunSpec::Bg::kSaturatingLp) {
    Timed(sp.pregen_s, [&] {
      for (const auto& cfg : bench::MakeDpdkLpConfigs(run, s->topo.hosts, duration)) {
        lp_senders.push_back(std::make_unique<workload::OpenLoopSender>(&s->net, cfg));
        lp_senders.back()->Start();
      }
    });
  }

  const workload::IncastConfig q_cfg = bench::MakeDpdkQueryConfig(
      run, s->topo.hosts, star, duration, s->IdealFn(),
      [&star](net::NodeId, int64_t bytes) { return bench::StarIdealFct(star, bytes); });
  const workload::PregeneratedIncast incast =
      Timed(sp.pregen_s, [&] { return workload::PregenerateIncast(q_cfg); });
  std::vector<uint64_t> incast_flow_ids;
  Timed(sp.start_s, [&] {
    incast_flow_ids.reserve(incast.flows.size());
    for (const auto& params : incast.flows) {
      incast_flow_ids.push_back(s->manager->StartFlow(params));
    }
  });
  sp.flows += static_cast<int64_t>(incast.flows.size());
  sp.setup_s = SecondsBetween(kStart, Clock::now());
  if (setup_only) return;

  Timed(sp.run_s, [&] { s->ssim.RunUntil(duration + bench::DpdkDrain()); });

  bench::DpdkRunResult r;
  Timed(sp.collect_s, [&] {
    s->manager->MergeShardCompletions();
    const stats::CompletionCollector qct = bench::DeriveIncastQct(
        incast, incast_flow_ids, s->manager->completions(), q_cfg.query_ideal_fn);
    const bool have_bg = bg_last_id > 0;
    bench::FillDpdkCompletionMetrics(r, qct, s->manager->completions(), have_bg,
                                     [bg_last_id](const stats::CompletionRecord& rec) {
                                       return rec.id >= 1 && rec.id <= bg_last_id;
                                     });
    r.rtos = s->manager->counters().rtos;
    bench::FillDpdkSwitchStats(*s, r);
  });

  m.Set("delivered_bytes", r.delivered_bytes);
  m.Set("queries_completed", r.queries);
  m.Set("qct_avg_ms", r.qct_avg_ms);
  m.Set("qct_p99_ms", r.qct_p99_ms);
  m.Set("fct_avg_ms", r.fct_avg_ms);
  m.Set("fct_small_p99_ms", r.fct_small_p99_ms);
  m.Set("rtos", r.rtos);
  m.Set("drops", r.drops);
  m.Set("expelled", r.expelled);
  m.Set("peak_occupancy_bytes", r.peak_occupancy_bytes);
  AddObs(m, r.obs, r.mailbox_staged, r.mailbox_drained);
  AddEngine(m, s->ssim);
  m.Set("flows_completed", static_cast<int64_t>(s->manager->completions().records().size()));
}

// Mirrors bench::RunFabricSharded step for step, with spans around phases.
void RunFabric(const WorkloadInfo& w, const bench::FabricRunSpec& run, bool setup_only,
               const FactoryWrap& wrap, Spans& sp, exp::Metrics& m) {
  const bench::BenchScale scale = *run.scale;
  std::optional<FabricRig> s;
  Timed(sp.build_s, [&] { s.emplace(MakeFabricSpec(run), scale, w.shards, wrap); });
  const Time duration =
      run.duration > 0 ? run.duration : bench::DefaultFabricDuration(scale);
  const Bandwidth host_rate = s->topo.config.host_rate;
  const int n_hosts = s->topo.num_hosts();

  const auto bg_flows = Timed(sp.pregen_s, [&] {
    return workload::PregeneratePoissonFlows(
        bench::MakeFabricBgConfig(run, s->topo.hosts, host_rate, duration, s->IdealFn()));
  });
  const workload::IncastConfig q_cfg = bench::MakeFabricQueryConfig(
      run, s->topo.hosts, n_hosts, host_rate, s->buffer_per_partition, duration,
      s->IdealFn(), s->QueryIdealFn());
  const workload::PregeneratedIncast incast =
      Timed(sp.pregen_s, [&] { return workload::PregenerateIncast(q_cfg); });

  uint64_t bg_last_id = 0;
  std::vector<uint64_t> incast_flow_ids;
  Timed(sp.start_s, [&] {
    for (const auto& params : bg_flows) bg_last_id = s->manager->StartFlow(params);
    incast_flow_ids.reserve(incast.flows.size());
    for (const auto& params : incast.flows) {
      incast_flow_ids.push_back(s->manager->StartFlow(params));
    }
  });
  sp.flows = static_cast<int64_t>(bg_flows.size() + incast.flows.size());
  sp.setup_s = SecondsBetween(kStart, Clock::now());
  if (setup_only) return;

  Timed(sp.run_s, [&] { s->ssim.RunUntil(duration + run.drain); });

  bench::FabricRunResult r;
  Timed(sp.collect_s, [&] {
    s->manager->MergeShardCompletions();
    const stats::CompletionCollector qct = bench::DeriveIncastQct(
        incast, incast_flow_ids, s->manager->completions(), q_cfg.query_ideal_fn);
    bench::FillFabricCompletionMetrics(r, qct, s->manager->completions(),
                                       [bg_last_id](const stats::CompletionRecord& rec) {
                                         return rec.id >= 1 && rec.id <= bg_last_id;
                                       });
    bench::CollectFabricSwitchStats(*s, r);
  });

  m.Set("delivered_bytes", r.delivered_bytes);
  m.Set("queries_completed", r.queries_completed);
  m.Set("bg_flows_completed", r.bg_flows_completed);
  m.Set("qct_avg_ms", r.qct_avg_ms);
  m.Set("qct_p99_ms", r.qct_p99_ms);
  m.Set("qct_avg_slowdown", r.qct_avg_slow);
  m.Set("qct_p99_slowdown", r.qct_p99_slow);
  m.Set("fct_avg_slowdown", r.fct_avg_slow);
  m.Set("fct_p99_slowdown", r.fct_p99_slow);
  m.Set("fct_small_p99_slowdown", r.fct_small_p99_slow);
  m.Set("rtos", s->manager->counters().rtos);
  m.Set("drops", r.drops);
  m.Set("expelled", r.expelled);
  m.Set("peak_occupancy_bytes", r.peak_occupancy_bytes);
  AddObs(m, r.obs, r.mailbox_staged, r.mailbox_drained);
  AddEngine(m, s->ssim);
  m.Set("flows_completed", static_cast<int64_t>(s->manager->completions().records().size()));
}

struct Args {
  std::string cmd;
  std::map<std::string, std::string> kv;
  bool trace_bm = false;
  bool setup_only = false;
};

std::optional<Args> Parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace-bm") {
      a.trace_bm = true;
    } else if (arg == "--setup-only") {
      a.setup_only = true;
    } else if (arg.rfind("--", 0) == 0 && arg.find('=') != std::string::npos) {
      const size_t eq = arg.find('=');
      a.kv[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else {
      std::fprintf(stderr, "perf_driver: unrecognized argument %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  return a;
}

int Usage() {
  std::fputs(
      "usage: perf_driver run --workload=<w> --seed=<n> [--scale=smoke|default]\n"
      "                       [--trace-bm] [--setup-only]\n"
      "       perf_driver replay --workload=<w>\n"
      "       perf_driver spin\n",
      stderr);
  return 2;
}

int RunMain(const Args& a) {
  const auto wit = a.kv.find("workload");
  const WorkloadInfo* w = wit == a.kv.end() ? nullptr : WorkloadByName(wit->second);
  if (w == nullptr) return Usage();
  const uint64_t seed =
      a.kv.count("seed") ? std::strtoull(a.kv.at("seed").c_str(), nullptr, 10) : 1;
  bench::BenchScale scale = bench::BenchScale::kDefault;
  if (a.kv.count("scale")) {
    const std::string s = a.kv.at("scale");
    if (s == "smoke") {
      scale = bench::BenchScale::kSmoke;
    } else if (s != "default") {
      return Usage();
    }
  }

  BmTallies tallies;
  FactoryWrap wrap;
  if (a.trace_bm) {
    wrap = [&tallies](net::BmSchemeFactory f) { return tallies.Wrap(std::move(f)); };
  }
  Spans sp;
  exp::Metrics m;
  if (w->platform == Platform::kStar) {
    RunStar(*w, StarRunSpec(*w, seed, scale), a.setup_only, wrap, sp, m);
  } else {
    RunFabric(*w, FabricRunSpec(*w, seed, scale), a.setup_only, wrap, sp, m);
  }

  m.Set("workload", w->name);
  m.Set("seed", static_cast<int64_t>(seed));
  m.Set("shards", w->shards);
  m.Set("flows", sp.flows);
  // Host-time spans and BM tallies are printed at full precision; the
  // outcome object keeps Metrics::ToJson's formatting so it compares
  // textually equal to the runner's JSON.
  std::string host = "{";
  const auto add = [&host](const char* key, double v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.9g", host.size() > 1 ? ", " : "", key, v);
    host += buf;
  };
  add("build_s", sp.build_s);
  add("pregen_s", sp.pregen_s);
  add("start_s", sp.start_s);
  add("setup_s", sp.setup_s);
  add("run_s", sp.run_s);
  add("collect_s", sp.collect_s);
  if (a.trace_bm && !a.setup_only) {
    const BmTally t = tallies.Total();
    add("bm_admit_calls", static_cast<double>(t.admit_calls));
    add("bm_admit_accepts", static_cast<double>(t.admit_accepts));
    add("bm_admit_ns", static_cast<double>(t.admit_ns));
    add("bm_hook_calls", static_cast<double>(t.hook_calls));
    add("bm_hook_ns", static_cast<double>(t.hook_ns));
    add("bm_evict_calls", static_cast<double>(t.evict_calls));
    add("bm_evict_ns", static_cast<double>(t.evict_ns));
    add("bm_threshold_calls", static_cast<double>(t.threshold_calls));
    add("bm_threshold_ns", static_cast<double>(t.threshold_ns));
    add("bm_total_ns", static_cast<double>(t.total_ns()));
  }
  host += "}";
  std::printf("{\"outcome\": %s, \"host\": %s}\n", m.ToJson().c_str(), host.c_str());
  return 0;
}

}  // namespace
}  // namespace occamy::perfbench

int main(int argc, char** argv) {
  using namespace occamy::perfbench;
  const std::optional<Args> a = Parse(argc, argv);
  if (!a.has_value()) return Usage();
  if (a->cmd == "run") return RunMain(*a);
  if (a->cmd == "replay") {
    const auto it = a->kv.find("workload");
    const WorkloadInfo* w = it == a->kv.end() ? nullptr : WorkloadByName(it->second);
    if (w == nullptr) return Usage();
    PrintReplay(*w);
    return 0;
  }
  if (a->cmd == "spin") {
    PrintSpin();
    return 0;
  }
  return Usage();
}

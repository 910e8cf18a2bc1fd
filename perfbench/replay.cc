// Layer replays: each row times one public function of one layer on the
// production object (never tests/fakes.h), sized to the workload's switch
// geometry where the layer has one. A row is the median ns/op of several
// timed batches, each long enough to swamp clock overhead.
#include "perfbench/replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/buffer/shared_buffer.h"
#include "src/core/head_drop_selector.h"
#include "src/sim/simulator.h"
#include "src/tm/traffic_manager.h"
#include "src/transport/connection.h"
#include "src/util/rng.h"

namespace occamy::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// `batch()` runs some operations and returns (ops done, ns spent on them).
// Batches repeat until ~kRowBudgetNs has been measured (at least 5); the
// row is the median per-batch ns/op.
using Batch = std::function<std::pair<int64_t, double>()>;
constexpr double kRowBudgetNs = 60e6;

double MedianNsPerOp(const Batch& batch) {
  std::vector<double> per_op;
  double spent = 0;
  while (per_op.size() < 5 || (spent < kRowBudgetNs && per_op.size() < 200)) {
    const auto [ops, ns] = batch();
    per_op.push_back(ns / static_cast<double>(std::max<int64_t>(ops, 1)));
    spent += ns;
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

// Times `n` calls of `op` as one batch.
template <typename Op>
Batch Loop(int64_t n, Op op) {
  return [n, op]() mutable {
    const Clock::time_point t0 = Clock::now();
    for (int64_t i = 0; i < n; ++i) op(i);
    return std::make_pair(n, NsSince(t0));
  };
}

// Advances a stand-alone simulator's clock by `dt` (running due events).
void Advance(sim::Simulator& sim, Time dt) { sim.RunUntil(sim.now() + dt); }

Packet DataPacket(uint32_t bytes, uint8_t cls) {
  Packet p;
  p.size_bytes = bytes;
  p.traffic_class = cls;
  return p;
}

// ---------------- geometry ----------------

// The TM configuration of one buffer partition of the workload's switch
// (star: the testbed switch; fabric: a leaf partition), port rates filled
// in as the switch would.
tm::TmConfig WorkloadTm(const WorkloadInfo& w) {
  if (w.platform == Platform::kStar) {
    const bench::DpdkRunSpec run = StarRunSpec(w, 1, bench::BenchScale::kDefault);
    const bench::StarSpec star = bench::MakeDpdkStarSpec(run);
    tm::TmConfig cfg = bench::MakeStarConfig(star).switch_config.tm;
    cfg.port_rates.assign(static_cast<size_t>(star.num_hosts), star.host_rate);
    return cfg;
  }
  const bench::FabricRunSpec run = FabricRunSpec(w, 1, bench::BenchScale::kDefault);
  int64_t bpp = 0;
  const net::LeafSpineConfig ls = bench::MakeFabricLeafSpineConfig(
      MakeFabricSpec(run), bench::BenchScale::kDefault, bpp);
  tm::TmConfig cfg = ls.tm;
  cfg.port_rates.assign(static_cast<size_t>(ls.ports_per_partition), ls.host_rate);
  return cfg;
}

// Partition of `queues` queues (8 ports x queues/8 classes) under `scheme`,
// 16 MB buffer, expulsion as the scheme wants it unless `expulsion` is off.
std::unique_ptr<tm::TmPartition> MakePartition(sim::Simulator& sim, bench::Scheme scheme,
                                               int queues, bool expulsion) {
  tm::TmConfig cfg;
  cfg.buffer_bytes = 16 << 20;
  cfg.queues_per_port = queues / 8;
  cfg.port_rates.assign(8, Bandwidth::Gbps(100));
  bench::ApplyScheme(cfg, scheme);
  if (!expulsion) cfg.enable_expulsion = false;
  return std::make_unique<tm::TmPartition>(&sim, cfg, bench::MakeFactory(scheme)());
}

// Random occupancy: each queue gets 0..k packets, ~half the buffer overall.
void FillRandom(tm::TmPartition& part, Rng& rng) {
  const int queues = part.num_queues();
  const int64_t per_queue = part.buffer_bytes() / 2 / queues / 1500;
  for (int q = 0; q < queues; ++q) {
    const int64_t n = static_cast<int64_t>(rng.UniformInt(
        static_cast<uint64_t>(2 * std::max<int64_t>(per_queue, 1))));
    const int port = q / part.queues_per_port();
    const auto cls = static_cast<uint8_t>(q % part.queues_per_port());
    for (int64_t i = 0; i < n; ++i) part.Enqueue(port, DataPacket(1500, cls));
  }
}

// ---------------- rows ----------------

// Event queue: a pending set of ~4K events; each op schedules one event at
// a serialization-like delay and advances the clock 1 ps, running what is
// due (about one event per op in steady state).
double EventQueueNs() {
  sim::Simulator sim;
  Rng rng(7);
  int64_t fired = 0;
  for (int i = 0; i < 4096; ++i) {
    sim.After(static_cast<Time>(rng.UniformInt(1200)), [&fired] { ++fired; });
  }
  return MedianNsPerOp([&] {
    constexpr int64_t kOps = 200000;
    const Clock::time_point t0 = Clock::now();
    for (int64_t i = 0; i < kOps; ++i) {
      sim.After(static_cast<Time>(1 + rng.UniformInt(1200)), [&fired] { ++fired; });
      sim.RunUntil(sim.now() + 1);
    }
    return std::make_pair(kOps, NsSince(t0));
  });
}

// SharedBuffer/CellMemory: enqueue + head dequeue, round robin over the
// workload partition's queues with a standing backlog of 4 packets each.
double BufferNs(const tm::TmConfig& cfg) {
  const int queues = static_cast<int>(cfg.port_rates.size()) * cfg.queues_per_port;
  buffer::SharedBuffer buf(cfg.buffer_bytes, queues, cfg.cell_bytes);
  const Packet pkt = DataPacket(1500, 0);
  for (int q = 0; q < queues; ++q) {
    for (int i = 0; i < 4; ++i) buf.Enqueue(q, pkt, 0);
  }
  return MedianNsPerOp(Loop(100000, [&buf, &pkt, queues](int64_t i) {
    const int q = static_cast<int>(i % queues);
    buf.Enqueue(q, pkt, i);
    buffer::PacketDescriptor pd = buf.DequeueHead(q);
    (void)pd;
  }));
}

// TmPartition Enqueue + DequeueForPort under `kind`, workload geometry and
// the workload's scheme; the clock advances one packet time per pair.
double TmNs(tm::TmConfig cfg, tm::SchedulerKind kind) {
  cfg.scheduler = kind;
  sim::Simulator sim;
  tm::TmPartition part(&sim, cfg, bench::MakeFactory(bench::Scheme::kOccamy)());
  const int ports = part.num_ports();
  const int qpp = part.queues_per_port();
  for (int p = 0; p < ports; ++p) {
    for (int c = 0; c < qpp; ++c) part.Enqueue(p, DataPacket(1500, static_cast<uint8_t>(c)));
  }
  const Time pkt_time = cfg.port_rates.front().TxTime(1500);
  return MedianNsPerOp(Loop(50000, [&](int64_t i) {
    const int port = static_cast<int>(i % ports);
    part.Enqueue(port, DataPacket(1500, static_cast<uint8_t>((i / ports) % qpp)));
    auto out = part.DequeueForPort(port);
    (void)out;
    if (port == ports - 1) Advance(sim, pkt_time);
  }));
}

// BmScheme::Admit through a live TmPartition (its TmView) with random
// occupancy; expulsion is off so the state stays fixed while timing.
double AdmitNs(bench::Scheme scheme, int queues) {
  sim::Simulator sim;
  auto part = MakePartition(sim, scheme, queues, /*expulsion=*/false);
  Rng rng(11);
  FillRandom(*part, rng);
  bm::BmScheme& bm = part->scheme();
  int64_t admitted = 0;
  const double ns = MedianNsPerOp(Loop(100000, [&](int64_t i) {
    admitted += bm.Admit(*part, static_cast<int>(i % queues), 1600) ? 1 : 0;
  }));
  if (admitted < 0) std::printf("!");  // keep the calls observable
  return ns;
}

// Occamy's expulsion engine: fill queues one after another (so earlier
// queues end far above the shrinking DT threshold), then let the engine
// head-drop until no queue is over-allocated. ns per expelled packet,
// fill excluded.
double ExpulsionStepNs(int queues) {
  sim::Simulator sim;
  auto part = MakePartition(sim, bench::Scheme::kOccamy, queues, /*expulsion=*/true);
  const int qpp = part->queues_per_port();
  return MedianNsPerOp([&]() {
    for (int q = 0; q < queues; ++q) {
      const auto cls = static_cast<uint8_t>(q % qpp);
      while (part->Enqueue(q / qpp, DataPacket(1500, cls)).accepted) {
      }
    }
    const int64_t before = part->stats().expelled_packets;
    const Clock::time_point t0 = Clock::now();
    sim.Run();
    const double ns = NsSince(t0);
    const int64_t expelled = part->stats().expelled_packets - before;
    part->RestartFlush();  // the next batch starts from an empty buffer
    return std::make_pair(expelled, ns);
  });
}

// HeadDropSelector full refresh + victim selection over a live partition's
// queue lengths and DT thresholds.
double SelectorRefreshNs(int queues) {
  sim::Simulator sim;
  auto part = MakePartition(sim, bench::Scheme::kOccamy, queues, /*expulsion=*/false);
  Rng rng(13);
  FillRandom(*part, rng);
  core::HeadDropSelector selector(queues);
  const auto qlen = [&part](int q) { return part->qlen_bytes(q); };
  const auto threshold = [&part](int q) { return part->expulsion_threshold(q); };
  int64_t victims = 0;
  const double ns = MedianNsPerOp(Loop(20000, [&](int64_t) {
    selector.MarkAllDirty();
    selector.Refresh(qlen, threshold);
    victims += selector.SelectVictim(qlen);
  }));
  if (victims == -42) std::printf("!");
  return ns;
}

// SwitchNode routing (reached through the public RxLane) on the workload's
// own switch: the star switch, or leaf 0 of the fabric (ECMP over spines).
// With `epochs`, a route-outage schedule excluding one candidate port is
// installed and arrival times sweep across its epochs.
double RouteNs(const WorkloadInfo& w, bool epochs) {
  const auto measure = [epochs](net::SwitchNode& sw, const std::vector<net::NodeId>& dsts,
                                int excluded_port) {
    if (epochs) {
      net::SwitchNode::RouteEpoch healthy{0, std::vector<uint8_t>(
                                                 static_cast<size_t>(sw.num_ports()), 0)};
      net::SwitchNode::RouteEpoch outage = healthy;
      outage.start = Milliseconds(1);
      outage.excluded[static_cast<size_t>(excluded_port)] = 1;
      net::SwitchNode::RouteEpoch healed = healthy;
      healed.start = Milliseconds(2);
      sw.SetRouteOutages({healthy, outage, healed});
    }
    Packet pkt = DataPacket(1500, 0);
    int64_t lanes = 0;
    const double ns = MedianNsPerOp(Loop(200000, [&](int64_t i) {
      pkt.dst = dsts[static_cast<size_t>(i) % dsts.size()];
      pkt.flow_id = static_cast<uint64_t>(i * 2654435761);
      lanes += sw.RxLane(0, pkt, (i % 3000) * Microseconds(1));
    }));
    if (lanes < 0) std::printf("!");
    return ns;
  };
  if (w.platform == Platform::kStar) {
    const bench::DpdkRunSpec run = StarRunSpec(w, 1, bench::BenchScale::kDefault);
    StarRig rig(bench::MakeDpdkStarSpec(run), 1, {});
    return measure(rig.sw(), rig.topo.hosts, 1);
  }
  const bench::FabricRunSpec run = FabricRunSpec(w, 1, bench::BenchScale::kDefault);
  FabricRig rig(MakeFabricSpec(run), bench::BenchScale::kDefault, 1, {});
  auto& leaf = static_cast<net::SwitchNode&>(rig.net.node(rig.topo.leaves[0]));
  // Remote hosts only, so every lookup is an ECMP choice among uplinks;
  // the outage removes the first uplink (ports after the host ports).
  std::vector<net::NodeId> remote(
      rig.topo.hosts.begin() + rig.cfg.hosts_per_leaf, rig.topo.hosts.end());
  return measure(leaf, remote, rig.cfg.hosts_per_leaf);
}

// Cross-shard mail through net::Network: a node on shard 0 stages `per
// window` deliveries to a node on shard 1 each window; the barrier drains,
// sorts and schedules them and the sink receives them. Shards run inline
// (no worker threads) so the row is the mail path, not thread wake-ups.
double MailboxNs(int per_window) {
  struct Sink final : net::Node {
    void ReceivePacket(int, Packet) override { ++received; }
    int64_t received = 0;
  };
  sim::ShardedSimulator::Options opts;
  opts.shards = 2;
  opts.lookahead = Microseconds(2);
  opts.use_threads = false;
  sim::ShardedSimulator ssim(opts);
  net::Network net(&ssim, [](net::NodeId id) { return static_cast<int>(id % 2); });
  const net::NodeId src = net.AddNode(std::make_unique<Sink>());
  const net::NodeId dst = net.AddNode(std::make_unique<Sink>());
  constexpr int kWindows = 400;
  std::function<void()> pump;
  int windows_left = 0;
  pump = [&] {
    for (int i = 0; i < per_window; ++i) {
      Packet p = DataPacket(1500, 0);
      p.flow_id = static_cast<uint64_t>(i);
      net.DeliverAfter(src, opts.lookahead, net::LinkEnd{dst, 0}, std::move(p));
    }
    if (--windows_left > 0) ssim.shard(0).After(opts.lookahead, [&pump] { pump(); });
  };
  return MedianNsPerOp([&]() {
    windows_left = kWindows;
    const Time start = ssim.shard(0).now();
    ssim.shard(0).At(start, [&pump] { pump(); });
    const Clock::time_point t0 = Clock::now();
    ssim.RunUntil(start + (kWindows + 2) * opts.lookahead);
    return std::make_pair(int64_t{kWindows} * per_window, NsSince(t0));
  });
}

// Connection::HandleAck (plus the segments each ACK clocks out onto the
// NIC queue) on a production Connection in a 2-host star. Pattern per 64
// ACKs: new cumulative ACKs, every 8th ECN-echoing, then 3 duplicates that
// enter fast recovery, which also keeps cwnd bounded. A fresh rig per batch
// keeps the never-drained NIC queue short.
double AckNs(transport::CcAlgorithm cc) {
  return MedianNsPerOp([cc]() {
    bench::StarSpec spec;
    spec.num_hosts = 2;
    StarRig rig(spec, 1, {});
    transport::FlowParams params;
    params.id = 1;
    params.src = rig.topo.hosts[0];
    params.dst = rig.topo.hosts[1];
    params.size_bytes = int64_t{1} << 40;
    params.cc = cc;
    transport::Connection conn(rig.manager.get(), params);
    conn.Start();
    Packet ack;
    ack.kind = PacketKind::kAck;
    ack.flow_id = params.id;
    ack.src = params.dst;
    ack.dst = params.src;
    constexpr int64_t kOps = 4096;
    const Clock::time_point t0 = Clock::now();
    for (int64_t i = 0; i < kOps; ++i) {
      const int64_t phase = i % 64;
      const bool dup = phase >= 61;
      ack.ack_seq = static_cast<uint64_t>(conn.snd_una() + (dup ? 0 : 1460));
      ack.ece = (phase % 8) == 0;
      conn.HandleAck(ack);
    }
    return std::make_pair(kOps, NsSince(t0));
  });
}

// Mail staged per window in each workload at default scale (mailbox
// staged events / windows executed, seed 1): 2.0M/87k, 1.0M/250k,
// 3.1M/6000.
int MailPerWindow(const WorkloadInfo& w) {
  const std::string name = w.name;
  if (name == "star_burst_absorption") return 23;
  if (name == "star_choking") return 4;
  return 520;
}

struct SchemeRow {
  const char* name;
  bench::Scheme scheme;
};
constexpr SchemeRow kSchemes[] = {
    {"dt", bench::Scheme::kDt},           {"abm", bench::Scheme::kAbm},
    {"pushout", bench::Scheme::kPushout}, {"occamy", bench::Scheme::kOccamy},
    {"occamy_lqd", bench::Scheme::kOccamyLongestDrop},
    {"cs", bench::Scheme::kCompleteSharing},
    {"edt", bench::Scheme::kEdt},         {"tdt", bench::Scheme::kTdt},
    {"qpo", bench::Scheme::kQpo},
};
constexpr int kQueueCounts[] = {8, 64, 512};

}  // namespace

void PrintReplay(const WorkloadInfo& w) {
  std::vector<std::pair<std::string, double>> rows;
  const tm::TmConfig tm_cfg = WorkloadTm(w);
  rows.emplace_back("sim.event_queue_ns", EventQueueNs());
  rows.emplace_back("buffer.enqueue_dequeue_ns", BufferNs(tm_cfg));
  rows.emplace_back("tm.enqueue_dequeue_ns.fifo", TmNs(tm_cfg, tm::SchedulerKind::kFifo));
  rows.emplace_back("tm.enqueue_dequeue_ns.sp",
                    TmNs(tm_cfg, tm::SchedulerKind::kStrictPriority));
  for (const SchemeRow& s : kSchemes) {
    for (const int q : kQueueCounts) {
      rows.emplace_back("bm." + std::string(s.name) + ".admit_ns.q" + std::to_string(q),
                        AdmitNs(s.scheme, q));
    }
  }
  for (const int q : kQueueCounts) {
    rows.emplace_back("core.expulsion_step_ns.q" + std::to_string(q), ExpulsionStepNs(q));
    rows.emplace_back("core.selector_refresh_ns.q" + std::to_string(q),
                      SelectorRefreshNs(q));
  }
  rows.emplace_back("net.route_port_ns", RouteNs(w, false));
  rows.emplace_back("net.route_port_ns.epochs", RouteNs(w, true));
  rows.emplace_back("net.mailbox.stage_drain_ns", MailboxNs(MailPerWindow(w)));
  rows.emplace_back("transport.ack_ns.dctcp", AckNs(transport::CcAlgorithm::kDctcp));
  rows.emplace_back("transport.ack_ns.reno", AckNs(transport::CcAlgorithm::kReno));
  rows.emplace_back("transport.ack_ns.cubic", AckNs(transport::CcAlgorithm::kCubic));

  std::printf("{");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%s\"%s\": %.6f", i > 0 ? ", " : "", rows[i].first.c_str(), rows[i].second);
  }
  std::printf("}\n");
}

void PrintSpin() {
  // xorshift64 steps: no memory traffic, no shared state between threads.
  const auto spin = [](uint64_t seed) {
    uint64_t x = seed | 1;
    for (int i = 0; i < 100'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::atomic<uint64_t> sink{0};
  Clock::time_point t0 = Clock::now();
  sink += spin(1);
  const double one = NsSince(t0) / 1e9;
  t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&sink, &spin, t] { sink += spin(static_cast<uint64_t>(t + 2)); });
    }
    for (auto& th : threads) th.join();
  }
  const double four = NsSince(t0) / 1e9;
  std::printf("{\"spin_1t_s\": %.6f, \"spin_4t_speedup\": %.4f, \"sink\": %llu}\n", one,
              4 * one / four, static_cast<unsigned long long>(sink.load() & 1));
}

}  // namespace occamy::perfbench

// Container wiring nodes together and delivering packets between them.
//
// Links are modeled at their two halves: the *sender* (host NIC or switch
// egress port) owns serialization at the link rate; the network adds the
// propagation delay and hands the packet to the peer node. This keeps every
// queueing decision inside the explicit buffer models.
//
// Every network runs on a sim::ShardedSimulator (one shard or many): every
// node is owned by one shard and all of its events run on that shard's
// Simulator. DeliverAfter *stages* each arrival in a per-(src-shard,
// dst-shard) SPSC mailbox; the engine's window barrier drains each shard's
// inbound mailboxes and inserts the arrivals in canonical (deliver_time,
// src_node, src_lane, per-(source,lane) seq) order. That order is
// independent of the node->shard partition and of thread timing, which is
// what keeps runs byte-identical for any shard count. Conservative
// correctness requires every link's propagation delay to be >= the
// engine's lookahead (checked per delivery). Each drained packet waits in
// the destination shard's arrival slab until its arrival event fires; the
// event carries just the slab index, because a packet does not fit
// sim::Callback's inline buffer.
//
// Intra-node sharding (single-switch topologies). A node whose internal
// structure decomposes into independent *lanes* — a shared-memory switch
// whose buffer splits into TmPartitions, each owning a group of egress
// ports — may register those lanes with BindNodeLanes. Each lane is bound
// to one shard, all of the lane's events run on that shard's Simulator,
// and arrivals are routed to the shard of Node::RxLane(in_port, pkt) (for
// a switch: the partition owning the packet's egress port — a pure
// function of the packet, so the handoff stays deterministic). The merge
// key carries the source lane, and per-(source, lane) sequence counters
// are produced from exactly one shard each, so the canonical drain order
// remains a pure function of simulated execution.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/buffer/packet.h"
#include "src/net/node.h"
#include "src/sim/mailbox.h"
#include "src/sim/shard_checks.h"
#include "src/sim/sharded_simulator.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"

namespace occamy::net {

// One end of a link: a (node, port) pair.
struct LinkEnd {
  NodeId node = 0;
  int port = 0;
};

// Fault-injection hook (implemented by fault::FaultInjector, src/fault).
// Defined here rather than in src/fault so Network needs no dependency on
// the fault subsystem; runs on the per-delivery path only while installed.
class FaultHook {
 public:
  virtual ~FaultHook() = default;

  // Consulted once per DeliverAfter, on the sending lane's shard, with that
  // lane's per-delivery sequence number and the sender's clock. Returns
  // true to drop the packet on the wire; may mark `pkt` corrupted instead
  // (the packet is then delivered and dropped by the receiver's FCS check).
  virtual bool OnDeliver(NodeId from, int src_lane, LinkEnd to, uint64_t seq, Time send_time,
                         Packet& pkt) = 0;

  // A corrupted packet reached its arrival endpoint; runs on the
  // destination's shard, which then discards the packet.
  virtual void OnCorruptedArrival() = 0;
};

class Network {
 public:
  // Shard of a node's lane: pure function of (node id, lane index) so lane
  // bindings are reproducible for any shard count.
  using LaneShardFn = std::function<int(NodeId, int)>;

  // `shard_of(node_id)` assigns each node (at AddNode time) to
  // a shard of `ssim`; the result is clamped into range. The assignment must
  // be a pure function of the node id so that it is reproducible.
  // `lane_shard_of`, when given, assigns the lanes of lane-sharded nodes
  // (see BindNodeLanes); nullptr keeps every lane on the node's own shard.
  Network(sim::ShardedSimulator* ssim, std::function<int(NodeId)> shard_of,
          LaneShardFn lane_shard_of = nullptr)
      : ssim_(ssim),
        shard_assign_(std::move(shard_of)),
        lane_shard_assign_(std::move(lane_shard_of)) {
    OCCAMY_CHECK(ssim != nullptr);
    OCCAMY_CHECK(shard_assign_ != nullptr);
    const size_t n = static_cast<size_t>(ssim_->num_shards());
    shard_state_.resize(n);
    outboxes_.resize(n * n);
    ssim_->set_barrier_drain([this](int shard) { DrainInbound(shard); });
    // Mailbox `staged` counters double as the engine's silence signal: the
    // plan leader samples the sum at plan rounds (all shards quiescent)
    // and widens/narrows the adaptive window batch on the delta.
    ssim_->set_staged_probe([this] { return mailbox_staged(); });
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // The control simulator: shard 0. Setup code uses it; node code should
  // prefer Node::sim() (its owning shard).
  sim::Simulator& sim() { return ssim_->shard(0); }
  Time now() const { return ssim_->shard(0).now(); }

  // True while RunUntil is executing (shards may be on worker threads).
  bool sharded_run_active() const { return ssim_->running(); }
  int num_shards() const { return ssim_->num_shards(); }
  int shard_of(NodeId id) const {
    OCCAMY_CHECK(id < shard_of_.size());
    return shard_of_[id];
  }
  // The simulator that runs node `id`'s (lane 0) events.
  sim::Simulator& sim_of(NodeId id) { return ssim_->shard(shard_of(id)); }

  // Declares node `id` as lane-sharded with `lanes` independent lanes and
  // binds each lane to a shard (via the constructor's lane_shard_of, or the
  // node's own shard when none was given). Must be called before any
  // traffic reaches the node — a switch does it from Initialize(), before
  // creating its partitions on the lanes' simulators. Idempotent per node
  // only in the sense that re-binding is a bug; callers bind once.
  void BindNodeLanes(NodeId id, int lanes) {
    OCCAMY_CHECK(id < nodes_.size());
    OCCAMY_CHECK(lanes > 0);
    if (lane_shards_.size() <= id) {
      lane_shards_.resize(id + 1);
      uniform_lane_shard_.resize(id + 1, -1);
    }
    OCCAMY_CHECK(lane_shards_[id].empty()) << "node " << id << " lanes already bound";
    auto& shards = lane_shards_[id];
    shards.reserve(static_cast<size_t>(lanes));
    for (int lane = 0; lane < lanes; ++lane) {
      int shard = shard_of(id);
      if (lane_shard_assign_ != nullptr) {
        shard = std::clamp(lane_shard_assign_(id, lane), 0, ssim_->num_shards() - 1);
      }
      shards.push_back(shard);
    }
    // When every lane lands on one shard (node-sharded fabrics, or a star
    // with one shared buffer / shards=1), remember it: DeliverAfter can
    // then skip the per-packet RxLane route lookup entirely.
    bool uniform = true;
    for (const int s : shards) uniform = uniform && s == shards[0];
    uniform_lane_shard_[id] = uniform ? shards[0] : -1;
    nodes_[id]->lane_delivery_seq_.assign(static_cast<size_t>(lanes), 0);
  }

  bool lane_sharded(NodeId id) const {
    return id < lane_shards_.size() && !lane_shards_[id].empty();
  }

  // Shard of `id`'s lane `lane` (the node's shard when lanes are unbound).
  int lane_shard(NodeId id, int lane) const {
    if (!lane_sharded(id)) return shard_of(id);
    const auto& shards = lane_shards_[id];
    OCCAMY_CHECK(lane >= 0 && static_cast<size_t>(lane) < shards.size())
        << "bad lane " << lane << " for node " << id;
    return shards[static_cast<size_t>(lane)];
  }

  // The simulator that runs lane `lane` of node `id` — what a lane-sharded
  // switch builds each TmPartition on and drives its egress machinery with.
  sim::Simulator& LaneSim(NodeId id, int lane) { return ssim_->shard(lane_shard(id, lane)); }

  // Takes ownership; assigns and returns the node id.
  NodeId AddNode(std::unique_ptr<Node> node) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    node->id_ = id;
    node->network_ = this;
    shard_of_.push_back(std::clamp(shard_assign_(id), 0, ssim_->num_shards() - 1));
    node->sim_ = &sim_of(id);
    nodes_.push_back(std::move(node));
    return id;
  }

  Node& node(NodeId id) {
    OCCAMY_CHECK(id < nodes_.size());
    return *nodes_[id];
  }

  size_t num_nodes() const { return nodes_.size(); }

  // Schedules arrival of `pkt` at `to` after `delay` (the propagation time;
  // serialization already elapsed at the sender). `from` is the sending
  // node; it keys the canonical cross-shard merge order and must be the
  // node whose event is executing. `src_lane` is the sending
  // lane of a lane-sharded source (a switch passes the egress partition
  // index); plain nodes send from lane 0.
  void DeliverAfter(NodeId from, Time delay, LinkEnd to, Packet pkt, int src_lane = 0) {
    OCCAMY_CHECK_GE(delay, ssim_->lookahead())
        << "cross-node delay below the conservative lookahead";
    Node& src = node(from);
    const int src_shard = lane_shard(from, src_lane);
    // SPSC invariant: only the producing lane's worker may write this
    // outbox row (and only its clock is the right send time).
    OCCAMY_DCHECK_EQ(sim::CurrentShard(), src_shard);
    OCCAMY_ASSERT_SHARD(ssim_->shard(src_shard));
    // A lane > 0 requires the source to have bound its lanes (BindNodeLanes
    // sizes the per-lane sequence counters).
    OCCAMY_DCHECK(static_cast<size_t>(src_lane) < src.lane_delivery_seq_.size());
    // The sequence is consumed even when a fault drops the packet: gaps are
    // harmless to the canonical merge order, while keeping the numbering a
    // pure function of the lane's send history for any shard count.
    const uint64_t seq = src.lane_delivery_seq_[static_cast<size_t>(src_lane)]++;
    if (faults_ != nullptr &&
        faults_->OnDeliver(from, src_lane, to, seq, ssim_->shard(src_shard).now(), pkt)) {
      return;  // dropped on the wire; never staged
    }
    // The destination shard is the one that owns the arrival's lane: for a
    // lane-sharded switch, the partition owning the packet's egress port.
    // RxLane repeats the route lookup ReceivePacket will do on arrival
    // (same packet, same arrival time, so epoch-versioned routes agree), so
    // only nodes whose lanes genuinely straddle shards pay for it.
    const Time deliver_time = ssim_->shard(src_shard).now() + delay;
    const int dst_shard = RxShardOf(to, pkt, deliver_time);
    ++shard_state_[static_cast<size_t>(src_shard)].delivered_events;
    ++shard_state_[static_cast<size_t>(src_shard)].staged_mail;
    Mail mail;
    mail.time = deliver_time;
    mail.src_node = from;
    mail.src_lane = src_lane;
    mail.seq = seq;
    mail.to = to;
    mail.pkt = std::move(pkt);
    outboxes_[static_cast<size_t>(src_shard) * static_cast<size_t>(num_shards()) +
              static_cast<size_t>(dst_shard)]
        .Push(std::move(mail));
  }

  uint64_t delivered_events() const {
    uint64_t total = 0;
    for (const auto& s : shard_state_) total += s.delivered_events;
    return total;
  }

  // Mailbox telemetry (schema v6 counter registry). Staged = records
  // pushed by DeliverAfter; drained = records merged back in at window
  // barriers. Both count simulated deliveries only, so they are
  // byte-identical for any shard count. Read after the run.
  uint64_t mailbox_staged() const {
    uint64_t total = 0;
    for (const auto& s : shard_state_) total += s.staged_mail;
    return total;
  }
  uint64_t mailbox_drained() const {
    uint64_t total = 0;
    for (const auto& s : shard_state_) total += s.drained_mail;
    return total;
  }

  // Test hook: observes every drained mailbox record as (deliver_time,
  // destination shard's clock at the drain). Used by the conservative-window
  // property tests; never set in production runs. Drains for different
  // shards run concurrently on their workers, so a probe must either be
  // internally synchronized or be used with use_threads = false.
  using DrainProbe = std::function<void(Time deliver_time, Time dst_shard_now)>;
  void set_drain_probe(DrainProbe probe) { drain_probe_ = std::move(probe); }

  // Fresh unique ids for flows/queries created on this network.
  uint64_t NextFlowId() { return next_flow_id_++; }

  // Installs the fault hook (fault::FaultInjector::Arm). Must happen before
  // the run; the hook must outlive the network's last delivery.
  void set_fault_injector(FaultHook* hook) { faults_ = hook; }
  bool fault_injection_active() const { return faults_ != nullptr; }

  // Clock of the simulator executing the current event: the owning shard's
  // (threaded or inline — ShardScope binds it either way). Lane-sharded nodes use it from arrival
  // paths where the executing lane is not yet known (SwitchNode routes by
  // arrival time before it knows the egress lane); during an event this is
  // exactly the event's time, a pure function of simulated execution.
  Time CurrentSimNow() const {
    return ssim_->shard(sim::CurrentShard()).now();
  }

  // Quantum for fault-driven route-epoch activation times: the
  // conservative lookahead, so epoch flips land exactly on window
  // boundaries and stay byte-identical for any shard count.
  Time route_epoch_quantum() const { return ssim_->lookahead(); }

 private:
  // Shard that must execute the arrival of `pkt` at `to` at time `at`.
  int RxShardOf(LinkEnd to, const Packet& pkt, Time at) {
    if (to.node < uniform_lane_shard_.size()) {
      const int uniform = uniform_lane_shard_[to.node];
      if (uniform >= 0) return uniform;
      if (!lane_shards_[to.node].empty()) {
        return lane_shard(to.node, node(to.node).RxLane(to.port, pkt, at));
      }
    }
    return shard_of(to.node);
  }

  // One staged packet arrival. (time, src_node, src_lane, seq) is a total
  // order that depends only on simulated execution, never on sharding or
  // thread timing: each (src_node, src_lane) pair is produced by exactly
  // one shard, in that lane's deterministic event order.
  struct Mail {
    Time time = 0;
    NodeId src_node = 0;
    int src_lane = 0;
    uint64_t seq = 0;
    LinkEnd to;
    Packet pkt;
  };

  // Barrier hook: moves everything staged for `shard` into its event queue,
  // in canonical order. Runs on `shard`'s worker with all shards quiescent.
  void DrainInbound(int shard) {
    OCCAMY_ASSERT_SHARD(ssim_->shard(shard));
    auto& scratch = shard_state_[static_cast<size_t>(shard)].drain_scratch;
    scratch.clear();
    const size_t n = static_cast<size_t>(num_shards());
    for (size_t src = 0; src < n; ++src) {
      outboxes_[src * n + static_cast<size_t>(shard)].DrainInto(scratch);
    }
    if (scratch.empty()) return;
    shard_state_[static_cast<size_t>(shard)].drained_mail += scratch.size();
    std::sort(scratch.begin(), scratch.end(), [](const Mail& a, const Mail& b) {
      if (a.time != b.time) return a.time < b.time;
      if (a.src_node != b.src_node) return a.src_node < b.src_node;
      if (a.src_lane != b.src_lane) return a.src_lane < b.src_lane;
      return a.seq < b.seq;
    });
    sim::Simulator& sim = ssim_->shard(shard);
    ShardState& state = shard_state_[static_cast<size_t>(shard)];
    for (Mail& mail : scratch) {
      if (drain_probe_) drain_probe_(mail.time, sim.now());
      uint32_t index;
      if (state.free_arrivals.empty()) {
        index = static_cast<uint32_t>(state.arrivals.size());
        state.arrivals.emplace_back();
      } else {
        index = state.free_arrivals.back();
        state.free_arrivals.pop_back();
      }
      Arrival& arrival = state.arrivals[index];
      arrival.dst = &node(mail.to.node);
      arrival.port = mail.to.port;
      arrival.pkt = std::move(mail.pkt);
      sim.At(mail.time, [this, shard, index] { Arrive(shard, index); });
    }
    scratch.clear();
  }

  // Fires arrival `index` of `shard`'s slab: frees the slot, then hands the
  // packet to its node (which may schedule, and so stage new arrivals).
  void Arrive(int shard, uint32_t index) {
    ShardState& state = shard_state_[static_cast<size_t>(shard)];
    Arrival& arrival = state.arrivals[index];
    Node* dst = arrival.dst;
    const int port = arrival.port;
    Packet pkt = std::move(arrival.pkt);
    state.free_arrivals.push_back(index);
    if (pkt.corrupted) {
      // The receiver's FCS check discards the mangled packet, on the
      // destination lane's shard.
      if (faults_ != nullptr) faults_->OnCorruptedArrival();
      return;
    }
    dst->ReceivePacket(port, std::move(pkt));
  }

  // A drained arrival waiting for its event: the packet and its endpoint.
  struct Arrival {
    Node* dst = nullptr;
    int port = 0;
    Packet pkt;
  };

  // Per-shard mutable state, padded so shards never share a cache line.
  struct alignas(64) ShardState {
    uint64_t delivered_events = 0;
    uint64_t staged_mail = 0;
    uint64_t drained_mail = 0;
    std::vector<Mail> drain_scratch;
    // Arrival slab of the shard's inbound packets: DrainInbound parks each
    // packet here and schedules an event carrying only its index, which
    // Arrive recycles through free_arrivals. Lives on (and is only touched
    // by) the destination shard, like the events that reference it.
    std::vector<Arrival> arrivals;
    std::vector<uint32_t> free_arrivals;
  };

  sim::ShardedSimulator* ssim_ = nullptr;
  std::function<int(NodeId)> shard_assign_;
  LaneShardFn lane_shard_assign_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<int> shard_of_;
  // Per-node lane->shard bindings; empty vector = node not lane-sharded.
  std::vector<std::vector<int>> lane_shards_;
  // Per-node fast path: the single shard all lanes share, or -1 when lanes
  // straddle shards (only then does delivery need an RxLane route lookup).
  std::vector<int> uniform_lane_shard_;
  // Mailboxes indexed [src_shard * num_shards + dst_shard]; sized once at
  // construction, so the vector itself is never mutated concurrently.
  std::vector<sim::SpscMailbox<Mail>> outboxes_;
  std::vector<ShardState> shard_state_;
  DrainProbe drain_probe_;
  FaultHook* faults_ = nullptr;
  uint64_t next_flow_id_ = 1;
};

}  // namespace occamy::net

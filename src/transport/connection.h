// One reliable byte-stream flow: sender congestion control + receiver
// reassembly/ACK generation.
//
// Shard discipline: the sender half (everything under
// "Sender state" plus the RTO timer) is touched only by events at the
// source host, the receiver half (rcv_*) only by events at the destination
// host. The two halves are distinct memory locations, so the source and
// destination shards may run concurrently without ever racing on one
// Connection — which is why Complete() must not touch receiver state and
// all scheduling goes through the source host's shard simulator (sim_).
//
// Packet-level model: MSS-sized segments, per-packet cumulative ACKs that
// echo the CE bit of the acked segment (DCTCP-style exact feedback), slow
// start, AI congestion avoidance (Reno/DCTCP) or cubic growth (CUBIC),
// 3-dupACK fast retransmit, and go-back-N RTO recovery with a configurable
// minimum RTO (5 ms in the paper's simulations).
#pragma once

#include <cstdint>
#include <unordered_set>

#include "src/buffer/packet.h"
#include "src/sim/simulator.h"
#include "src/transport/flow.h"

namespace occamy::transport {

class FlowManager;

class Connection {
 public:
  Connection(FlowManager* manager, FlowParams params);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Sender side: begins transmission (called at params.start_time).
  void Start();

  // Demux entry points.
  void HandleAck(const Packet& ack);   // at the source host
  void HandleData(const Packet& pkt);  // at the destination host

  bool completed() const { return completed_; }
  const FlowParams& params() const { return params_; }

  // Introspection for tests.
  int64_t cwnd_bytes() const { return cwnd_; }
  int64_t snd_una() const { return snd_una_; }
  int64_t snd_nxt() const { return snd_nxt_; }
  double dctcp_alpha() const { return dctcp_alpha_; }
  int64_t rto_count() const { return rto_count_; }
  int64_t fast_retransmits() const { return fast_retx_count_; }
  Time rto() const { return rto_; }
  int rto_backoff() const { return rto_backoff_; }
  // The timeout ArmRtoTimer last armed (post-backoff, clamped at max_rto);
  // lets tests pin the exact clamp point under sustained blackholes.
  Time last_rto_timeout() const { return last_rto_timeout_; }
  // False once the flow completed: Complete() must have cancelled the timer
  // (a leaked handle here would fire into a dead flow).
  bool rto_timer_pending() const { return rto_timer_.IsPending(); }

 private:
  // ---- sender ----
  void SendAvailable();
  void SendSegment(int64_t seq);
  void ArmRtoTimer();
  void OnRtoTimeout();
  void EnterFastRecovery();
  void OnNewAck(int64_t newly_acked, const Packet& ack);
  void MaybeFinishDctcpWindow();
  void GrowWindow(int64_t newly_acked);
  void CubicOnLoss();
  void CubicGrow(int64_t newly_acked);
  void UpdateRtt(Time sample);
  void Complete();

  FlowManager* manager_;
  FlowParams params_;
  sim::Simulator* sim_;  // the source host's shard (sender-side clock/timers)

  // Sender state.
  int64_t snd_una_ = 0;
  int64_t snd_nxt_ = 0;
  int64_t max_sent_ = 0;  // highest byte ever transmitted (retx accounting)
  int64_t cwnd_ = 0;
  int64_t ssthresh_ = 0;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  int64_t recover_seq_ = 0;
  bool started_ = false;
  bool completed_ = false;

  // DCTCP.
  double dctcp_alpha_ = 1.0;
  int64_t dctcp_acked_bytes_ = 0;
  int64_t dctcp_marked_bytes_ = 0;
  int64_t dctcp_window_end_ = 0;
  bool dctcp_cut_this_window_ = false;

  // CUBIC.
  double cubic_wmax_segments_ = 0.0;
  Time cubic_epoch_start_ = 0;
  double cubic_k_ = 0.0;  // seconds

  // RTT / RTO.
  Time srtt_ = 0;
  Time rttvar_ = 0;
  Time rto_;
  int rto_backoff_ = 0;
  Time last_rto_timeout_ = 0;
  int64_t rto_count_ = 0;
  int64_t fast_retx_count_ = 0;
  sim::EventHandle rto_timer_;

  // Receiver state.
  int64_t rcv_next_ = 0;  // next expected byte
  std::unordered_set<int64_t> rcv_ooo_segments_;  // out-of-order segment idxs
};

}  // namespace occamy::transport

// session.hpp — one-call wiring of an SSTP session in the simulator.
//
// Builds a sender and N receivers, connects them through lossy forward and
// rate-limited reverse (feedback) paths, optionally installs the
// profile-driven allocator, and measures system consistency over the
// namespace trees (sampled; the trees' cached digests make each sample
// cheap). Examples, integration tests, and the SSTP benches all ride on
// this.
//
// Membership is dynamic: receivers may join mid-run (add_receiver — they
// converge purely from summaries and recursive-descent repair, with no
// catch-up protocol) and leave (detach_receiver); consistency averages only
// the currently-joined receivers. The sst::fault injector drives the
// crash/partition/extra-loss/bandwidth hooks.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/meanfield.hpp"
#include "net/channel.hpp"
#include "net/hostile.hpp"
#include "net/link.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "sstp/allocator.hpp"
#include "sstp/receiver.hpp"
#include "sstp/sender.hpp"
#include "stats/time_average.hpp"

namespace sst::sstp {

/// Session wiring parameters.
struct SessionConfig {
  SenderConfig sender;
  ReceiverConfig receiver;
  std::size_t num_receivers = 1;

  sim::Rate mu_fb = sim::kbps(15);  // feedback capacity per receiver
  double loss_rate = 0.1;           // forward loss
  double fb_loss_rate = -1.0;       // reverse loss; <0 copies loss_rate
  sim::Duration delay = 0.01;
  sim::Duration jitter = 0.0;
  sim::Duration fb_delay = -1.0;    // reverse delay; <0 copies delay
  sim::Duration fb_jitter = -1.0;   // reverse jitter; <0 copies jitter
  std::uint64_t seed = 1;

  // Hostile-channel behavior (reordering / duplication / scripted
  // partitions), applied to the forward path and, independently, to each
  // receiver's feedback path. Default-inactive configs add no stages, so
  // existing FIFO sessions are event-for-event unchanged.
  net::HostileConfig fwd_hostile;
  net::HostileConfig fb_hostile;

  bool use_allocator = false;
  BandwidthAllocator::Config allocator;

  sim::Duration sample_interval = 0.5;  // consistency sampling cadence
  double catch_up_threshold = 0.9;      // joiner counts as converged at this

  /// Mean-field cohort tier: when > 0, the session carries an aggregate
  /// fluid population of this many receivers alongside the num_receivers
  /// tracked discrete ones. The cohort is advanced in lockstep with
  /// simulated time and blended into (instantaneous and averaged)
  /// consistency and repair_traffic() with population weights. Workload and
  /// bandwidth rates for the cohort come from `fluid`; the session
  /// overrides its cohort size, loss rates, and delay to match the
  /// configured channels.
  double fluid_cohort = 0.0;
  analysis::FluidParams fluid;
};

/// A fully wired simulated SSTP session.
class Session {
 public:
  Session(sim::Simulator& sim, SessionConfig config);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] Sender& sender() { return *sender_; }
  [[nodiscard]] Receiver& receiver(std::size_t i = 0) {
    return *receivers_.at(i).receiver;
  }
  [[nodiscard]] std::size_t receiver_count() const {
    return receivers_.size();
  }

  /// Fraction of the sender's leaves that every currently-joined receiver
  /// holds complete at the current version, averaged over those receivers
  /// (1.0 for an empty store or an empty session).
  [[nodiscard]] double instantaneous_consistency() const;

  /// Receiver i's own such fraction.
  [[nodiscard]] double receiver_consistency(std::size_t i) const;

  /// Time average of the sampled consistency since construction (or the last
  /// reset).
  [[nodiscard]] double average_consistency();
  void reset_consistency_stats();

  // ------------------------------------------------ membership and faults

  /// Late join: adds a brand-new receiver (empty tree) mid-run; returns its
  /// index. It converges from summaries alone; its catch-up latency — time
  /// from joining until its consistency first samples at-or-above
  /// catch_up_threshold — is recorded (resolution: sample_interval).
  std::size_t add_receiver();

  /// Receiver leave: receiver `i` stops receiving, repairing, and counting
  /// toward consistency. Irreversible (a rejoin is a new receiver).
  void detach_receiver(std::size_t i);

  [[nodiscard]] bool receiver_active(std::size_t i) const {
    return receivers_.at(i).active;
  }

  /// Catch-up latency of receiver `i` (negative while still converging).
  [[nodiscard]] double catch_up_latency(std::size_t i) const {
    return receivers_.at(i).catch_up_latency;
  }

  /// Sender crash/restart (Sender::pause/resume plus nothing else — the
  /// whole point is that recovery needs no special code).
  void crash_sender() { sender_->pause(); }
  void restart_sender() { sender_->resume(); }
  [[nodiscard]] bool sender_crashed() const { return sender_->paused(); }

  /// Partitions receiver `i` (both directions) or heals it.
  void set_partition(std::size_t i, bool down);
  void set_partition_all(bool down);

  /// Layers transient extra loss on receiver i's forward path (0 restores).
  void set_extra_loss(std::size_t i, double p);
  void set_extra_loss_all(double p);

  /// Scales the sender's bandwidth to factor * configured mu_data.
  void set_bandwidth_factor(double factor);

  /// Cumulative protocol repair effort — repairs + signature replies sent
  /// plus queries + NACKs received-side — a RecoveryTracker traffic counter.
  [[nodiscard]] double repair_traffic() const;

  // ----------------------------------------------------------- statistics

  /// Observed forward-channel loss rate (ground truth, for comparison with
  /// the receivers' estimates).
  [[nodiscard]] double observed_loss() const {
    return data_channel_->stats().observed_loss_rate();
  }

  /// The mean-field cohort tier, or nullptr when fluid_cohort == 0.
  [[nodiscard]] const analysis::FluidIntegrator* fluid_cohort() const {
    return fluid_.get();
  }

  /// Forward bytes offered to the channel (data + summaries + signatures).
  [[nodiscard]] double forward_bytes() const {
    return data_channel_->stats().bytes_sent;
  }
  /// Feedback bytes offered across all reverse paths.
  [[nodiscard]] double feedback_bytes() const;

 private:
  struct ReceiverRig {
    std::unique_ptr<Receiver> receiver;
    std::unique_ptr<net::Link<WireBytes>> fb_link;
    std::unique_ptr<net::Channel<WireBytes>> fb_channel;
    std::unique_ptr<net::HostileChannel<WireBytes>> fb_hostile;
    net::SwitchableLoss* fwd_switch = nullptr;
    net::SwitchableLoss* rev_switch = nullptr;
    bool active = true;
    double joined_at = 0.0;
    bool catching_up = true;
    double catch_up_latency = -1.0;
  };

  void sample();
  void settle_catch_ups();

  sim::Simulator* sim_;
  SessionConfig config_;
  sim::Rng root_;
  double fb_loss_ = 0.0;
  std::unique_ptr<net::Channel<WireBytes>> data_channel_;
  std::unique_ptr<net::HostileChannel<WireBytes>> fwd_hostile_;
  std::unique_ptr<Sender> sender_;
  std::vector<ReceiverRig> receivers_;
  sim::PeriodicTimer sampler_;
  stats::TimeAverage consistency_;
  std::unique_ptr<analysis::FluidIntegrator> fluid_;  // cohort tier
};

}  // namespace sst::sstp

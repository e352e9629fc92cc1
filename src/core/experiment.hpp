// experiment.hpp — one-call experiment harness for the paper's simulations.
//
// Wires together a publisher, workload, protocol sender, lossy data channel,
// one or more receivers, an optional rate-limited feedback path, and the
// consistency monitor; runs for a configured duration with a warm-up cutoff;
// and returns every metric the paper's figures report. All of the bench
// binaries, most integration tests, and the SSTP profile generator are thin
// sweeps over this harness.
//
// Two entry points: run_experiment() runs a fixed configuration start to
// finish, and the Experiment class exposes the same rig incrementally — run
// to a time, mutate the live system (crash/restart the sender, partition or
// degrade a receiver's path, add/remove receivers, change bandwidth), run
// on. The fault-injection layer (sst::fault) is built on the latter.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/meanfield.hpp"
#include "core/monitor.hpp"
#include "core/open_loop.hpp"
#include "core/receiver.hpp"
#include "core/two_queue.hpp"
#include "core/workload.hpp"
#include "net/channel.hpp"
#include "net/hostile.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "sim/units.hpp"

namespace sst::core {

/// Which protocol variant to run.
enum class Variant : std::uint8_t {
  kOpenLoop,  // Section 3: single FIFO announcement cycle
  kTwoQueue,  // Section 4: hot/cold queues, no feedback
  kFeedback,  // Section 5: hot/cold queues + receiver NACKs
};

/// Which population backend evaluates the experiment.
enum class Backend : std::uint8_t {
  kDiscrete,  // every receiver an event-driven object (the default)
  kFluid,     // pure mean-field ODE cohort (analysis::FluidIntegrator)
  kHybrid,    // N discrete receivers + an aggregate fluid cohort of M
};

/// Which proportional-share discipline splits hot/cold bandwidth.
enum class SchedulerKind : std::uint8_t {
  kStride,
  kLottery,
  kWfq,
  kDrr,
  kHierarchical,
};

/// Full experiment specification. Defaults reproduce the paper's common
/// operating point (45 kbps data bandwidth, 1000-byte announcements).
struct ExperimentConfig {
  WorkloadParams workload;

  Variant variant = Variant::kOpenLoop;
  SchedulerKind scheduler = SchedulerKind::kStride;

  sim::Rate mu_data = sim::kbps(45);  // sender data bandwidth (the paper's
                                      // mu_ch for open loop, mu_data else)
  double hot_share = 0.5;             // hot fraction of mu_data
  sim::Rate mu_fb = 0.0;              // feedback-path bandwidth
  ReceiverConfig receiver;            // NACK behaviour (feedback variant)

  double loss_rate = 0.1;        // forward-channel mean loss (per receiver)
  /// Loss on a shared upstream stage (backbone): one draw per transmission
  /// drops the packet for EVERY receiver. Correlated loss is what makes
  /// multicast NACK damping effective — all receivers share the gap, one
  /// overheard request serves them all.
  double shared_loss_rate = 0.0;
  double nack_loss_rate = -1.0;  // reverse-channel loss; <0 copies loss_rate
  bool bursty_loss = false;      // Gilbert-Elliott instead of Bernoulli
  double mean_burst_len = 4.0;   // packets, bursty mode
  /// Failure injection: total network outage (both directions) during these
  /// [start, end) windows — the paper's network partition scenario.
  std::vector<std::pair<double, double>> outages;
  sim::Duration delay = 0.01;    // one-way propagation delay
  sim::Duration jitter = 0.0;    // uniform extra delay (enables reordering)

  /// Hostile-channel behavior (reordering / duplication / scripted
  /// partitions) on the shared forward path and on each receiver's feedback
  /// path. Default-inactive configs build no pipeline stages at all, so
  /// existing FIFO configurations stay event-for-event identical.
  net::HostileConfig fwd_hostile;
  net::HostileConfig fb_hostile;

  std::size_t num_receivers = 1;
  /// Heterogeneous receivers: per-receiver forward loss rates. When shorter
  /// than num_receivers (or empty), remaining receivers use `loss_rate`.
  std::vector<double> receiver_loss_rates;
  /// Multicast feedback: all receivers share one feedback multicast group —
  /// every NACK reaches the sender AND every other receiver, enabling
  /// SRM-style slotting and damping (set receiver.nack_slot_max > 0).
  /// Feedback then bypasses the per-receiver rate-limited uplink.
  bool multicast_feedback = false;
  sim::Duration receiver_ttl = 0.0;  // 0 = no receiver-side expiry
  /// Propagate publisher removals to receiver tables (the paper's idealized
  /// "eliminated from both the sender's and receivers' tables"). Turn off to
  /// study stale-entry behaviour with real TTL expiry.
  bool oracle_remove = true;

  /// Population backend. kFluid replaces the event-driven receivers with a
  /// mean-field cohort (deterministic, seed-independent); kHybrid keeps the
  /// num_receivers discrete receivers and adds an aggregate fluid cohort of
  /// fluid_cohort receivers advanced in lockstep with simulated time,
  /// blended into avg_consistency with population weights.
  Backend backend = Backend::kDiscrete;
  double fluid_cohort = 1e6;  // cohort size M (kFluid / kHybrid)

  /// Event-engine shards for ONE replication (kDiscrete/kHybrid backends).
  /// 1 = the classic single-queue engine. K > 1 partitions the receivers
  /// into K contiguous blocks, each advanced on its own event queue in
  /// conservative-lookahead epochs (src/core/sharded.*). Results are
  /// bit-identical across shard counts for any supported configuration;
  /// under run_experiment(), unsupported combinations (see
  /// sharded_supported()) fall back to the single-queue engine and print a
  /// notice to stderr, once per process for each distinct reason.
  std::size_t shards = 1;

  sim::Duration duration = 2000.0;  // measured simulation time
  sim::Duration warmup = 200.0;     // discarded transient
  std::uint64_t seed = 1;

  sim::Duration sample_interval = 0.0;  // >0 records a c(t) timeline
};

/// One point of the c(t) timeline (windowed average over the last interval).
struct TimelinePoint {
  double time = 0.0;
  double consistency = 0.0;
};

/// Everything a run measures (over the post-warm-up window).
struct ExperimentResult {
  double avg_consistency = 0.0;  // E[c(t)]
  double mean_latency = 0.0;     // T_recv mean over successful receipts
  double p50_latency = 0.0;
  double p95_latency = 0.0;

  std::uint64_t data_tx = 0;
  std::uint64_t hot_tx = 0;
  std::uint64_t cold_tx = 0;
  std::uint64_t repair_tx = 0;
  std::uint64_t redundant_tx = 0;  // receiver(s) already had the version
  std::uint64_t nacks_sent = 0;
  std::uint64_t nacks_received = 0;
  std::uint64_t nacks_suppressed = 0;  // damped by overheard duplicates

  double redundant_fraction = 0.0;  // redundant_tx / data_tx
  double observed_loss = 0.0;       // measured forward loss rate
  double offered_data_kbps = 0.0;   // sender data rate actually used
  double offered_fb_kbps = 0.0;     // feedback rate actually used

  std::uint64_t inserts = 0;
  std::uint64_t updates = 0;
  std::uint64_t versions_introduced = 0;
  std::uint64_t versions_received = 0;

  std::size_t final_live = 0;
  std::size_t final_hot_depth = 0;
  std::size_t final_cold_depth = 0;

  // Fluid-tier outputs (backend kFluid/kHybrid; zeros otherwise).
  double fluid_cohort = 0.0;       // cohort size M that contributed
  double fluid_consistency = 0.0;  // the fluid tier's own E[c(t)]
  double fluid_live = 0.0;         // fluid live-record estimate at end
  analysis::FluidOccupancy fluid_occupancy;  // time-averaged occupancy

  std::vector<TimelinePoint> timeline;
};

// ------------------------------------------------- parts both engines share
// The single-queue Experiment below and the sharded engine (sharded.cpp)
// schedule events differently but build and read the receiver population,
// the sender side, and the result the same way, through the types here and
// the factories in core/rig_build.hpp.

/// One receiver's protocol state plus the switches the fault surface flips.
struct ReceiverRig {
  std::unique_ptr<ReceiverTable> table;
  std::unique_ptr<ReceiverAgent> agent;
  std::unique_ptr<net::Channel<NackMsg>> fb_channel;  // unicast feedback
  std::unique_ptr<net::Link<NackMsg>> fb_link;
  std::unique_ptr<net::HostileChannel<NackMsg>> fb_hostile;
  net::SwitchableLoss* fwd_switch = nullptr;      // forward data path
  net::SwitchableLoss* rev_switch = nullptr;      // unicast feedback path
  net::SwitchableLoss* observe_switch = nullptr;  // multicast overhearing
  std::size_t mcast_ep = 0;   // endpoint on the shared feedback group
  bool has_mcast_ep = false;
  bool partitioned = false;
  bool active = true;
};

/// The sender and its forward path up to the data channel: the open-loop
/// or two-queue sender, the shared (backbone) loss stage, and the optional
/// hostile forward stage.
class SenderSide {
 public:
  using Sink = std::function<void(const DataMsg&, sim::Bytes)>;
  using Probe = std::function<void(const DataMsg&)>;

  /// Builds the sender on `sim`. Transmissions that survive the shared
  /// loss stage (and the hostile stage, when configured) enter `sink`;
  /// `probe` observes every transmission (the redundancy oracle).
  SenderSide(const ExperimentConfig& cfg, const sim::Rng& root,
             sim::Simulator& sim, PublisherTable& pub, Workload& workload,
             Sink sink, Probe probe);

  SenderSide(const SenderSide&) = delete;
  SenderSide& operator=(const SenderSide&) = delete;

  [[nodiscard]] const SenderStats& stats() const;
  /// The NACK consumer; null for the open-loop variant.
  [[nodiscard]] TwoQueueSender* two_queue() { return two_queue_.get(); }

  void pause() { open_loop_ ? open_loop_->pause() : two_queue_->pause(); }
  void resume() { open_loop_ ? open_loop_->resume() : two_queue_->resume(); }

  /// Scales the announcement bandwidth to factor * configured mu_data.
  void set_bandwidth_factor(double factor);

  [[nodiscard]] std::size_t hot_depth() const;  // open loop: its one queue
  [[nodiscard]] std::size_t cold_depth() const;
  /// Transmissions the shared loss stage dropped for every receiver.
  [[nodiscard]] std::uint64_t shared_drops() const { return shared_drops_; }

 private:
  void transmit(const DataMsg& msg);

  sim::Rate mu_data_;
  double shared_loss_;
  sim::Rng shared_rng_;
  std::uint64_t shared_drops_ = 0;
  Sink sink_;
  std::unique_ptr<net::HostileChannel<DataMsg>> hostile_;
  std::unique_ptr<OpenLoopSender> open_loop_;
  std::unique_ptr<TwoQueueSender> two_queue_;
};

/// Cumulative counters over the sender and the whole receiver population,
/// read at the warm-up cutoff (the baseline) and at the end of the run.
struct Tally {
  SenderStats sender;
  std::uint64_t nacks_sent = 0;
  std::uint64_t nacks_suppressed = 0;
  std::uint64_t delivered = 0;  // forward-channel deliveries
  std::uint64_t dropped = 0;    // forward-channel (leaf) drops
  double fb_bytes = 0.0;        // feedback offered: unicast, then the group
  double data_bytes = 0.0;      // data offered
  std::uint64_t versions_introduced = 0;
  std::uint64_t versions_received = 0;

  /// Adds one block of receivers with the data channel and monitor they
  /// attach to. Blocks must come in global receiver order (fb_bytes is a
  /// plain floating-point sum).
  void add(const std::vector<ReceiverRig>& rigs,
           const net::Channel<DataMsg>& data,
           const ConsistencyMonitor& monitor);
  /// Adds the shared feedback group's bytes (null: no group).
  void add_group(const net::Channel<NackMsg>* group);
};

/// The warm-up baseline, the hybrid fluid cohort, the c(t) timeline, and
/// every result field both engines compute the same way. E[c], the timeline
/// and the latency statistics are read from the engine's one
/// ConsistencyIntegral.
class Collector {
 public:
  /// Attaches the fluid cohort when cfg.backend is kHybrid: an aggregate
  /// mean-field cohort of cfg.fluid_cohort receivers sharing the sender's
  /// announce stream, advanced in lockstep with simulated time.
  explicit Collector(const ExperimentConfig& cfg);

  /// At the warm-up cutoff: brings the cohort there, restarts its
  /// statistics, and records `baseline`.
  void warm(const Tally& baseline);
  void advance_cohort(double t);
  /// Appends the timeline point at `now`: c(t) averaged over the last
  /// sample interval, by differencing ∫c dt.
  void sample(ConsistencyIntegral& consistency, double now);
  /// NACK packets sent plus repair transmissions (plus the cohort's
  /// modeled repair flows): the RecoveryTracker traffic counter.
  [[nodiscard]] double repair_traffic(const Tally& now) const;

  /// Every metric of the run ending at `now`, from the end-of-run tally and
  /// the engine's integral and redundancy count, blending the cohort into
  /// avg_consistency with population weights.
  ExperimentResult result(const Tally& end, const SenderSide& sender,
                          const Workload& workload, const PublisherTable& pub,
                          ConsistencyIntegral& consistency, double now,
                          std::uint64_t redundant_tx);

 private:
  const ExperimentConfig* cfg_;
  Tally warm_;
  std::unique_ptr<analysis::FluidIntegrator> fluid_;
  std::vector<TimelinePoint> timeline_;
  double last_integral_ = 0.0;
};

/// The experiment rig, held open between run steps so faults can be applied
/// to the live system. Usage:
///
///   Experiment exp(cfg);
///   exp.run_warmup();
///   exp.run_until(900.0); exp.crash_sender();
///   exp.run_until(1020.0); exp.restart_sender();
///   ExperimentResult result = exp.finish();
///
/// With no mutations between run_warmup() and finish(), the run is
/// event-for-event identical to run_experiment(cfg): every fault control
/// path draws from RNG streams of its own, so merely *constructing* the
/// hooks perturbs nothing. A kHybrid config attaches its fluid cohort at
/// construction.
class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Runs the warm-up window, then discards transient statistics. Must be
  /// called exactly once, before run_until()/finish().
  void run_warmup();

  /// Advances the simulation to absolute time `t` (warm-up included in the
  /// clock; a time in the past is a no-op).
  void run_until(double t);

  /// Runs to warmup + duration and collects every metric.
  ExperimentResult finish();

  [[nodiscard]] double now() const { return sim_.now(); }
  [[nodiscard]] double end_time() const { return cfg_.warmup + cfg_.duration; }
  [[nodiscard]] double instantaneous_consistency() const {
    return consistency_.instantaneous();
  }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  // --- live fault hooks (the sst::fault injector drives these) ---

  /// Sender crash: announcements stop, the packet in service is lost, and
  /// incoming NACKs fall on deaf ears until restart_sender().
  void crash_sender() { sender_->pause(); }
  void restart_sender() { sender_->resume(); }

  /// Partitions receiver `r` from the session (both directions: data in,
  /// feedback out) or heals it.
  void set_partition(std::size_t r, bool down);
  void set_partition_all(bool down);

  /// Layers transient extra loss probability `p` on receiver r's forward
  /// path (0 restores the base process).
  void set_extra_loss(std::size_t r, double p);
  void set_extra_loss_all(double p);

  /// Scales the sender's announcement bandwidth to factor * configured
  /// mu_data (bandwidth degradation; 1.0 restores).
  void set_bandwidth_factor(double factor) {
    sender_->set_bandwidth_factor(factor);
  }

  /// Late join: adds a brand-new receiver (empty table) mid-run. Returns its
  /// index. The monitor starts averaging it into c(t) immediately and
  /// records its catch-up latency.
  std::size_t add_receiver();

  /// Receiver leave: receiver `r` stops receiving, NACKing, and counting
  /// toward c(t). Irreversible (a rejoin is a new receiver).
  void detach_receiver(std::size_t r);

  [[nodiscard]] bool receiver_active(std::size_t r) const {
    return receivers_.at(r).active;
  }

  /// Seconds from receiver r's join until it first caught up (negative
  /// while still converging).
  [[nodiscard]] double catch_up_latency(std::size_t r) const {
    return monitor_.catch_up_latency(r);
  }

  /// Cumulative protocol repair effort — NACK packets sent plus repair
  /// transmissions — suitable as a RecoveryTracker traffic counter. With a
  /// fluid cohort attached, includes the cohort's modeled repair flows.
  [[nodiscard]] double repair_traffic() const {
    return collector_.repair_traffic(tally());
  }

 private:
  void deliver_nack(const NackMsg& nack);
  void count_redundant(const DataMsg& msg);
  /// Entry point into the shared feedback group. Same-instant sends are
  /// stashed and flushed at the end of the instant in canonical content
  /// order (nack_content_less), not event order: each observe endpoint
  /// consumes one loss/delay draw per NACK in group-entry order, so the
  /// order at an exact tie must be one the sharded engine's cross-shard
  /// drain can reproduce without the global event queue.
  void group_nack_send(const NackMsg& nack);
  [[nodiscard]] Tally tally() const;

  ExperimentConfig cfg_;
  sim::Simulator sim_;
  sim::Rng root_;

  PublisherTable pub_;
  // Construction order fixes listener order: monitor sees changes first, so
  // consistency bookkeeping is current when protocol hooks run.
  ConsistencyMonitor monitor_;
  ConsistencyIntegral consistency_;  // over monitor_
  Workload workload_;
  net::Channel<DataMsg> data_channel_;
  std::unique_ptr<net::Channel<NackMsg>> mcast_fb_;
  std::vector<NackMsg> pending_group_;  // see group_nack_send
  std::vector<ReceiverRig> receivers_;
  // Built after the receivers and the oracle-removal listener, whose
  // publisher-listener slots come first.
  std::optional<SenderSide> sender_;

  std::uint64_t redundant_tx_ = 0;
  Collector collector_;

  std::unique_ptr<sim::PeriodicTimer> sampler_;
};

/// Maps an experiment configuration onto the mean-field model's parameter
/// space: kbps bandwidths become announcement/NACK packet rates, the
/// workload's death mode picks the fluid death law (fixed/Pareto lifetimes
/// approximate as memoryless with the same mean), and shared + leaf loss
/// compose into one effective per-receiver loss probability.
analysis::FluidParams fluid_params_from(const ExperimentConfig& config);

/// Runs one experiment to completion with config.backend selecting the
/// population tier. Deterministic in `config.seed` (the pure-fluid backend
/// is seed-independent by construction).
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace sst::core

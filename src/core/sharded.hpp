// sharded.hpp — the sharded conservative-lookahead event engine.
//
// run_sharded() executes ONE replication of an ExperimentConfig across
// cfg.shards worker threads plus a root executor, and returns a result that
// is bit-identical to run_experiment() on the single-queue engine for every
// supported configuration (the determinism ctest gates enforce this).
//
// Decomposition. The receivers are split into contiguous index blocks
// (sim::shard_bounds); each shard owns its receivers' tables, agents,
// forward-channel endpoints, feedback pipelines, and a per-shard
// ConsistencyMonitor, all driven by the shard's own Simulator. The root
// executor owns everything single-instance: publisher table, workload,
// sender, shared-loss stage, hostile forward stage, and — under multicast
// feedback — the shared NACK group itself. Time advances in lock-step
// epochs bounded by the conservative lookahead W (the minimum cross-shard
// channel latency): per epoch the root runs first, appending its
// externally-visible actions (publisher changes, channel transmissions,
// redundancy probes, overheard group NACKs) to an epoch log, then every
// shard replays the log interleaved with its local events. Worker→root
// feedback (NACKs) crosses through per-shard mailboxes drained at the next
// barrier — safe because any NACK sent during epoch j influences no other
// party earlier than the end of epoch j+1.
//
// Barriers are placed dynamically (idle-epoch skipping): at each barrier the
// coordinator reduces min(next pending event) across the root and every
// shard and jumps straight to min(next special instant, that minimum + W),
// so quiescent stretches — fault-recovery tails, churn gaps — cost one epoch
// instead of span/W of them. See DESIGN.md, "Sharded engine" for the full
// protocol and the bit-identity argument.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace sst::core {

/// True when `cfg` falls inside the sharded engine's envelope. On false,
/// `why` explains the fallback (human-readable, used by CLI warnings and
/// run_experiment's once-per-reason notice): the pure-fluid backend has no
/// event engine, an empty receiver set has nothing to partition, and
/// feedback — unicast or multicast — needs a positive propagation delay,
/// which is the lookahead's irreducible term.
bool sharded_supported(const ExperimentConfig& cfg, std::string& why);

/// The conservative lookahead W for `cfg`: the minimum latency from any
/// worker-side action to its first effect on another party. Feedback runs
/// use the damping-aware bound
///     W = delay + nack_slot_floor(cfg.receiver)
/// — every NACK spends at least `delay` on its channel (the rate-limited
/// uplink, hostile stages, and jitter only add), and the SRM slotting
/// schedule delays its emission by at least the slot floor (0 today,
/// including the degenerate nack_slot_max == 0 immediate-NACK case; see
/// core/receiver.hpp). Multicast feedback obeys the same bound: an
/// overheard NACK reaches other receivers no earlier than `delay + slot
/// floor` after the triggering loss. Without feedback there is no
/// worker→root edge at all, so W is infinite and epochs stretch between
/// "special" instants (warm-up cutoff, sample points, fault instants, end
/// of run).
[[nodiscard]] sim::Duration sharded_lookahead(const ExperimentConfig& cfg);

/// Engine-side counters for one sharded run. A side channel on purpose:
/// ExperimentResult must stay byte-identical to the single-queue engine,
/// so scheduling telemetry cannot live there.
struct ShardedRunStats {
  /// Barriers actually executed.
  std::uint64_t epochs_executed = 0;
  /// W-spaced barriers the dynamic timetable jumped over (what the static
  /// schedule would have executed in the same spans, minus the executed
  /// ones; 0 for unbounded-lookahead runs, which always ran special to
  /// special).
  std::uint64_t epochs_skipped = 0;
  /// Coordinator wall-clock time spent inside ShardCrew::run_epoch(),
  /// i.e. waiting on + overlapping with the workers.
  double barrier_wait_seconds = 0.0;
};

/// Runs one replication of `cfg` on the sharded engine, using
/// min(cfg.shards, cfg.num_receivers) worker threads. Precondition:
/// sharded_supported(cfg). Bit-identical to the single-queue engine for any
/// shard count, up to ties at exactly equal event times (measure-zero for
/// the continuous-time workloads; the tie policy is documented in
/// DESIGN.md). Engine-side scheduling counters go to `stats` when given.
ExperimentResult run_sharded(const ExperimentConfig& cfg,
                             ShardedRunStats* stats = nullptr);

/// Sharded analogue of core::Experiment's fault-injection surface: a
/// constructed-but-not-yet-run sharded replication whose sender, receivers,
/// and channels can be manipulated mid-run by fault::FaultInjector.
///
/// Contract: every instant at which a hook may fire (fault starts and ends,
/// injector sampler ticks — all scheduled on simulator()) MUST be passed as
/// a `barrier_instants` entry, so the engine fence-snaps a barrier onto it.
/// A hook then runs at the start of the root phase that opens at its
/// instant t, where the coordinator holds both the root and shard roles and
/// every shard clock is parked exactly at t with all events before t
/// executed — the same state the single-queue engine exposes to the hook —
/// so reads and mutations (crash, partition switches, churn) land with
/// identical semantics. fault::run_experiment_with_faults() derives the
/// instants from the plan and drives all of this; construct directly only
/// in tests.
class ShardedExperiment {
 public:
  /// Precondition: sharded_supported(cfg). `barrier_instants` entries
  /// outside (0, warmup + duration] are ignored.
  explicit ShardedExperiment(const ExperimentConfig& cfg,
                             std::vector<double> barrier_instants = {});
  ~ShardedExperiment();

  ShardedExperiment(const ShardedExperiment&) = delete;
  ShardedExperiment& operator=(const ShardedExperiment&) = delete;

  /// The root executor's simulator — where the injector arms its timeline.
  [[nodiscard]] sim::Simulator& simulator();

  /// Invoked once, at the warm-up cutoff barrier right after statistics
  /// reset (or before the first epoch when warmup <= 0) — the sharded
  /// mirror of "after run_warmup()", where the injector calls arm().
  void set_warmup_hook(std::function<void()> hook);

  /// Runs the replication to completion and returns the result (see
  /// run_sharded for the identity contract). Call at most once.
  ExperimentResult run(ShardedRunStats* stats = nullptr);

  // Fault surface (core::Experiment's; callable from hooks fired at barrier
  // instants, and before/after run()).
  void crash_sender();
  void restart_sender();
  void set_partition(std::size_t r, bool down);
  void set_partition_all(bool down);
  void set_extra_loss(std::size_t r, double p);
  void set_extra_loss_all(double p);
  void set_bandwidth_factor(double factor);
  /// Late join: builds a brand-new receiver on the last shard (keeping the
  /// contiguous global order) and returns its global index.
  std::size_t add_receiver();
  void detach_receiver(std::size_t r);
  [[nodiscard]] double instantaneous_consistency() const;
  [[nodiscard]] double repair_traffic() const;
  [[nodiscard]] double catch_up_latency(std::size_t r) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sst::core

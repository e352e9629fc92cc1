// injector.hpp — replays a FaultPlan against a live harness and measures
// recovery.
//
// The injector is harness-agnostic: it drives a small bundle of hooks
// (crash/restart, partition, extra loss, bandwidth, leave/join, a
// consistency probe, and an optional repair-traffic counter). hooks_for()
// binds the bundle to any of the three harnesses this repo has — the flat
// announce/listen core::Experiment, its sharded twin
// core::ShardedExperiment, and the hierarchical sstp::Session — so one
// scripted plan produces comparable recovery metrics for all of them.
//
// Every injected fault is bracketed in a stats::RecoveryTracker: inject at
// the event start, clear when the condition lifts (restart / heal / end of
// burst / end of degradation; instantaneous events clear at once), recover
// when the sampled consistency climbs back over the threshold.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/experiment.hpp"
#include "core/sharded.hpp"
#include "fault/plan.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stats/recovery.hpp"

namespace sst::fault {

/// What the injector needs from a harness. All hooks must be callable for
/// the plan's event kinds to work; consistency is mandatory (it feeds the
/// tracker), traffic is optional.
struct Hooks {
  std::function<void()> crash;
  std::function<void()> restart;
  /// target may be kAllReceivers.
  std::function<void(std::size_t, bool)> set_partition;
  std::function<void(std::size_t, double)> set_extra_loss;
  std::function<void(double)> set_bandwidth_factor;
  std::function<void(std::size_t)> leave;
  std::function<std::size_t()> join;       // returns the new receiver index
  std::function<double()> consistency;     // instantaneous c(t)
  std::function<double()> traffic;         // cumulative repair counter
  /// Catch-up latency of a receiver created by join (negative while still
  /// converging); optional.
  std::function<double(std::size_t)> catch_up_latency;
};

/// Binds the hook bundle to a harness: a core experiment, a sharded
/// replication, or an SSTP session. They share one fault surface, so one
/// binding serves all three.
template <class Harness>
Hooks hooks_for(Harness& h) {
  Hooks hooks;
  hooks.crash = [&h] { h.crash_sender(); };
  hooks.restart = [&h] { h.restart_sender(); };
  hooks.set_partition = [&h](std::size_t target, bool down) {
    if (target == kAllReceivers) {
      h.set_partition_all(down);
    } else {
      h.set_partition(target, down);
    }
  };
  hooks.set_extra_loss = [&h](std::size_t target, double p) {
    if (target == kAllReceivers) {
      h.set_extra_loss_all(p);
    } else {
      h.set_extra_loss(target, p);
    }
  };
  hooks.set_bandwidth_factor = [&h](double f) { h.set_bandwidth_factor(f); };
  hooks.leave = [&h](std::size_t target) { h.detach_receiver(target); };
  hooks.join = [&h] { return h.add_receiver(); };
  hooks.consistency = [&h] { return h.instantaneous_consistency(); };
  hooks.traffic = [&h] { return h.repair_traffic(); };
  hooks.catch_up_latency = [&h](std::size_t r) {
    return h.catch_up_latency(r);
  };
  return hooks;
}

/// Injector configuration.
struct InjectorConfig {
  double threshold = 0.9;         // consistency level that counts as recovered
  double sample_interval = 0.25;  // consistency sampling cadence
};

/// Schedules a FaultPlan's events on a simulator and tracks recovery.
///
///   core::Experiment exp(cfg);
///   FaultInjector inj(exp.simulator(), plan, hooks_for(exp));
///   exp.run_warmup();
///   inj.arm();                       // events before now() fire immediately
///   exp.finish();
///   inj.finalize();                  // closes deficit integrals
///
/// Overlap semantics: crashes nest (the sender restarts when the last
/// crash window ends); concurrent burst-loss on one target applies the MAX
/// extra loss; concurrent bandwidth degradations apply the MIN factor;
/// partitions nest per target.
class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, FaultPlan plan, Hooks hooks,
                InjectorConfig config = {});

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every event and starts the consistency sampler. Call once,
  /// with the harness ready to run (typically right after warm-up).
  void arm();

  /// Stops sampling and closes every open deficit integral. Call after the
  /// run completes, before reading records().
  void finalize();

  [[nodiscard]] stats::RecoveryTracker& tracker() { return tracker_; }
  [[nodiscard]] const std::vector<stats::RecoveryRecord>& records() const {
    return tracker_.records();
  }

  /// Receiver indices created by join events, in firing order.
  [[nodiscard]] const std::vector<std::size_t>& joined_receivers() const {
    return joined_;
  }

  /// Catch-up latencies of the joined receivers (parallel to
  /// joined_receivers(); negative entries never converged).
  [[nodiscard]] std::vector<double> join_catch_up_latencies() const;

 private:
  void on_start(std::size_t event_index);
  void on_end(std::size_t event_index);
  void observe_now();
  void apply_burst(std::size_t target);
  void apply_bandwidth();

  sim::Simulator* sim_;
  FaultPlan plan_;
  Hooks hooks_;
  InjectorConfig config_;
  stats::RecoveryTracker tracker_;
  sim::PeriodicTimer sampler_;
  bool armed_ = false;

  std::vector<std::size_t> record_of_event_;  // event idx -> tracker record
  std::vector<std::size_t> joined_;

  // Overlap bookkeeping.
  int crash_depth_ = 0;
  std::map<std::size_t, int> partition_depth_;          // per target
  std::multimap<std::size_t, double> active_bursts_;    // target -> extra
  std::vector<double> active_bw_factors_;
};

/// Everything a faulted core run produces.
struct FaultRunResult {
  core::ExperimentResult base;
  std::vector<stats::RecoveryRecord> recoveries;
  std::vector<double> join_catch_up;  // per join event (negative: never)
};

/// Every instant at which the injector touches the harness when armed at
/// the warm-up cutoff of `cfg`: fault starts, fault ends, and consistency
/// sampler ticks, computed with the exact floating-point arithmetic arm()
/// and sim::PeriodicTimer use. These are the barrier instants a
/// core::ShardedExperiment must fence-snap so hooks fire against a fully
/// parked, single-queue-equivalent state.
std::vector<double> fault_barrier_instants(const core::ExperimentConfig& cfg,
                                           const FaultPlan& plan,
                                           const InjectorConfig& injector);

/// One-call convenience: runs a core experiment with a fault plan applied
/// after warm-up. Deterministic in cfg.seed (the injector draws no
/// randomness of its own). Configurations inside the sharded envelope with
/// cfg.shards > 1 run on the sharded engine (bit-identical results, see
/// run_sharded_with_faults); everything else runs single-queue. Throws
/// std::invalid_argument for the pure-fluid backend, which has no event
/// engine to inject into.
FaultRunResult run_experiment_with_faults(const core::ExperimentConfig& cfg,
                                          const FaultPlan& plan,
                                          InjectorConfig injector = {});

/// The sharded path run_experiment_with_faults dispatches to: constructs a
/// ShardedExperiment with the plan's fence-snapped barrier instants, arms
/// the injector from the warm-up hook, and runs to completion.
/// Precondition: sharded_supported(cfg). `stats` (optional) receives the
/// engine's scheduling counters — faulted/churn runs are where idle-epoch
/// skipping pays, so bench_shard_scaling reads them from here.
FaultRunResult run_sharded_with_faults(const core::ExperimentConfig& cfg,
                                       const FaultPlan& plan,
                                       InjectorConfig injector = {},
                                       core::ShardedRunStats* stats = nullptr);

}  // namespace sst::fault

#include "fault/injector.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sst::fault {

FaultInjector::FaultInjector(sim::Simulator& sim, FaultPlan plan, Hooks hooks,
                             InjectorConfig config)
    : sim_(&sim),
      plan_(std::move(plan)),
      hooks_(std::move(hooks)),
      config_(config),
      tracker_(config.threshold),
      sampler_(sim) {
  if (hooks_.traffic) tracker_.set_traffic_counter(hooks_.traffic);
  record_of_event_.assign(plan_.events().size(), 0);
}

void FaultInjector::observe_now() {
  tracker_.observe(sim_->now(), hooks_.consistency());
}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  observe_now();
  const double now = sim_->now();
  for (std::size_t i = 0; i < plan_.events().size(); ++i) {
    const FaultEvent& e = plan_.events()[i];
    sim_->after(std::max(e.start - now, 0.0), [this, i] { on_start(i); });
    if (e.duration > 0) {
      sim_->after(std::max(e.start + e.duration - now, 0.0),
                  [this, i] { on_end(i); });
    }
  }
  if (config_.sample_interval > 0) {
    sampler_.start(config_.sample_interval, [this] { observe_now(); });
  }
}

void FaultInjector::apply_burst(std::size_t target) {
  // Overlapping bursts on one target: the strongest active one applies.
  double extra = 0.0;
  const auto [lo, hi] = active_bursts_.equal_range(target);
  for (auto it = lo; it != hi; ++it) extra = std::max(extra, it->second);
  hooks_.set_extra_loss(target, extra);
}

void FaultInjector::apply_bandwidth() {
  // Overlapping degradations: the most severe (smallest factor) applies.
  double factor = 1.0;
  for (const double f : active_bw_factors_) factor = std::min(factor, f);
  hooks_.set_bandwidth_factor(factor);
}

void FaultInjector::on_start(std::size_t event_index) {
  const FaultEvent& e = plan_.events()[event_index];
  observe_now();
  record_of_event_[event_index] = tracker_.inject(e.label(), sim_->now());

  switch (e.kind) {
    case FaultKind::kSenderCrash:
      if (++crash_depth_ == 1) hooks_.crash();
      break;
    case FaultKind::kPartition:
      if (++partition_depth_[e.target] == 1) {
        hooks_.set_partition(e.target, true);
      }
      break;
    case FaultKind::kReceiverLeave:
      hooks_.leave(e.target);
      break;
    case FaultKind::kReceiverJoin:
      joined_.push_back(hooks_.join());
      break;
    case FaultKind::kBurstLoss:
      active_bursts_.emplace(e.target, e.amount);
      apply_burst(e.target);
      break;
    case FaultKind::kBandwidth:
      active_bw_factors_.push_back(e.amount);
      apply_bandwidth();
      break;
  }

  // Instantaneous events have no ongoing condition: the fault clears the
  // moment it fires, and the tracker measures how long the consistency dip
  // it caused takes to heal.
  if (e.duration <= 0) {
    observe_now();
    tracker_.clear(record_of_event_[event_index], sim_->now());
  }
}

void FaultInjector::on_end(std::size_t event_index) {
  const FaultEvent& e = plan_.events()[event_index];

  switch (e.kind) {
    case FaultKind::kSenderCrash:
      if (--crash_depth_ == 0) hooks_.restart();
      break;
    case FaultKind::kPartition:
      if (--partition_depth_[e.target] == 0) {
        hooks_.set_partition(e.target, false);
      }
      break;
    case FaultKind::kBurstLoss: {
      const auto [lo, hi] = active_bursts_.equal_range(e.target);
      for (auto it = lo; it != hi; ++it) {
        if (it->second == e.amount) {
          active_bursts_.erase(it);
          break;
        }
      }
      apply_burst(e.target);
      break;
    }
    case FaultKind::kBandwidth: {
      const auto it = std::find(active_bw_factors_.begin(),
                                active_bw_factors_.end(), e.amount);
      if (it != active_bw_factors_.end()) active_bw_factors_.erase(it);
      apply_bandwidth();
      break;
    }
    case FaultKind::kReceiverLeave:
    case FaultKind::kReceiverJoin:
      break;  // instantaneous; cleared at start
  }

  observe_now();
  tracker_.clear(record_of_event_[event_index], sim_->now());
}

void FaultInjector::finalize() {
  sampler_.stop();
  observe_now();
  tracker_.finish(sim_->now());
}

std::vector<double> FaultInjector::join_catch_up_latencies() const {
  std::vector<double> out;
  out.reserve(joined_.size());
  for (const std::size_t r : joined_) {
    out.push_back(hooks_.catch_up_latency ? hooks_.catch_up_latency(r)
                                          : -1.0);
  }
  return out;
}

std::vector<double> fault_barrier_instants(const core::ExperimentConfig& cfg,
                                           const FaultPlan& plan,
                                           const InjectorConfig& injector) {
  // Mirror arm()'s arithmetic digit for digit. arm() runs at the warm-up
  // cutoff (now == cfg.warmup) and schedules through Simulator::after(),
  // which clamps negative delays to zero — so an event's hook fires at
  //     warmup + max(start - warmup, 0)
  // and, for ongoing faults, its end hook at
  //     warmup + max(start + duration - warmup, 0).
  // The consistency sampler is a sim::PeriodicTimer started at arm time: it
  // first fires one period after the start and reschedules at each fire
  // time, so its ticks accumulate by repeated addition from warmup. The
  // engine fence-snaps barriers by exact floating-point comparison against
  // these instants, so any deviation here would leave a hook un-fenced.
  std::vector<double> out;
  const double warmup = cfg.warmup;
  const double end = cfg.warmup + cfg.duration;
  for (const FaultEvent& e : plan.events()) {
    out.push_back(warmup + std::max(e.start - warmup, 0.0));
    if (e.duration > 0) {
      out.push_back(warmup + std::max(e.start + e.duration - warmup, 0.0));
    }
  }
  if (injector.sample_interval > 0) {
    for (double t = warmup + injector.sample_interval; t <= end;
         t += injector.sample_interval) {
      out.push_back(t);
    }
  }
  return out;
}

namespace {

/// Closes the injector's books on a finished run.
FaultRunResult finish_run(core::ExperimentResult base, FaultInjector& inj) {
  inj.finalize();
  return FaultRunResult{std::move(base), inj.records(),
                        inj.join_catch_up_latencies()};
}

}  // namespace

FaultRunResult run_sharded_with_faults(const core::ExperimentConfig& cfg,
                                       const FaultPlan& plan,
                                       InjectorConfig injector,
                                       core::ShardedRunStats* stats) {
  core::ShardedExperiment exp(cfg, fault_barrier_instants(cfg, plan,
                                                          injector));
  FaultInjector inj(exp.simulator(), plan, hooks_for(exp), injector);
  exp.set_warmup_hook([&inj] { inj.arm(); });
  return finish_run(exp.run(stats), inj);
}

FaultRunResult run_experiment_with_faults(const core::ExperimentConfig& cfg,
                                          const FaultPlan& plan,
                                          InjectorConfig injector) {
  if (cfg.backend == core::Backend::kFluid) {
    throw std::invalid_argument("faults need an event engine");
  }
  if (cfg.shards > 1) {
    // Faulted runs shard too, inside the same envelope as fault-free runs.
    std::string why;
    if (core::sharded_supported(cfg, why)) {
      return run_sharded_with_faults(cfg, plan, injector);
    }
  }
  core::Experiment exp(cfg);
  FaultInjector inj(exp.simulator(), plan, hooks_for(exp), injector);
  exp.run_warmup();
  inj.arm();
  return finish_run(exp.finish(), inj);
}

}  // namespace sst::fault

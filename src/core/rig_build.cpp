// rig_build.cpp — the sender side and the result collector both engines
// share (declared in experiment.hpp; see rig_build.hpp for the rest).
#include "core/rig_build.hpp"

namespace sst::core {

SenderSide::SenderSide(const ExperimentConfig& cfg, const sim::Rng& root,
                       sim::Simulator& sim, PublisherTable& pub,
                       Workload& workload, Sink sink, Probe probe)
    : mu_data_(cfg.mu_data),
      shared_loss_(cfg.shared_loss_rate),
      shared_rng_(root.fork("shared-loss")),
      sink_(std::move(sink)) {
  if (cfg.fwd_hostile.active()) {
    hostile_ = std::make_unique<net::HostileChannel<DataMsg>>(
        sim, cfg.fwd_hostile, root.fork("hostile-fwd"), sink_);
  }
  const auto transmit = [this](const DataMsg& msg) { this->transmit(msg); };
  if (cfg.variant == Variant::kOpenLoop) {
    open_loop_ = std::make_unique<OpenLoopSender>(sim, pub, workload,
                                                  cfg.mu_data, transmit);
    open_loop_->on_transmit(std::move(probe));
  } else {
    TwoQueueConfig tq;
    tq.mu_data = cfg.mu_data;
    tq.hot_share = cfg.hot_share;
    tq.feedback = cfg.variant == Variant::kFeedback;
    two_queue_ = std::make_unique<TwoQueueSender>(
        sim, pub, workload, tq,
        rig::make_scheduler(cfg.scheduler, root.fork("sched")), transmit);
    two_queue_->on_transmit(std::move(probe));
  }
}

void SenderSide::transmit(const DataMsg& msg) {
  // Shared upstream (backbone) loss stage: one draw drops the packet for
  // every receiver; survivors then face their independent leaf losses.
  if (shared_loss_ > 0 && shared_rng_.bernoulli(shared_loss_)) {
    ++shared_drops_;
    return;
  }
  if (hostile_ != nullptr) {
    hostile_->send(msg, msg.size);
  } else {
    sink_(msg, msg.size);
  }
}

const SenderStats& SenderSide::stats() const {
  return open_loop_ ? open_loop_->stats() : two_queue_->stats();
}

void SenderSide::set_bandwidth_factor(double factor) {
  const sim::Rate mu = mu_data_ * factor;
  if (open_loop_) {
    open_loop_->set_mu_ch(mu);
  } else {
    two_queue_->set_mu_data(mu);
  }
}

std::size_t SenderSide::hot_depth() const {
  return open_loop_ ? open_loop_->queue_depth() : two_queue_->hot_depth();
}

std::size_t SenderSide::cold_depth() const {
  return open_loop_ ? 0 : two_queue_->cold_depth();
}

void Tally::add(const std::vector<ReceiverRig>& rigs,
                const net::Channel<DataMsg>& data,
                const ConsistencyMonitor& monitor) {
  for (const auto& rig : rigs) {
    nacks_sent += rig.agent->stats().nacks_sent;
    nacks_suppressed += rig.agent->stats().suppressed;
    if (rig.fb_channel) fb_bytes += rig.fb_channel->stats().bytes_sent;
  }
  delivered += data.stats().delivered;
  dropped += data.stats().dropped;
  // Every block's data channel carries every transmission and every block's
  // monitor mirrors every publisher change, so these are the same in each.
  data_bytes = data.stats().bytes_sent;
  versions_introduced = monitor.versions_introduced();
  versions_received += monitor.versions_received();
}

void Tally::add_group(const net::Channel<NackMsg>* group) {
  if (group != nullptr) fb_bytes += group->stats().bytes_sent;
}

Collector::Collector(const ExperimentConfig& cfg) : cfg_(&cfg) {
  if (cfg.backend == Backend::kHybrid) {
    fluid_ =
        std::make_unique<analysis::FluidIntegrator>(fluid_params_from(cfg));
  }
}

void Collector::warm(const Tally& baseline) {
  if (fluid_) {
    fluid_->advance(cfg_->warmup);
    fluid_->reset_stats();
  }
  warm_ = baseline;
}

void Collector::advance_cohort(double t) {
  if (fluid_) fluid_->advance(t);
}

double Collector::repair_traffic(const Tally& now) const {
  double total = static_cast<double>(now.sender.repair_tx + now.nacks_sent);
  if (fluid_) total += fluid_->repair_traffic();
  return total;
}

void Collector::sample(ConsistencyIntegral& consistency, double now) {
  const double integral = consistency.integral(now);
  timeline_.push_back(
      TimelinePoint{now, (integral - last_integral_) / cfg_->sample_interval});
  last_integral_ = integral;
}

ExperimentResult Collector::result(const Tally& end, const SenderSide& sender,
                                   const Workload& workload,
                                   const PublisherTable& pub,
                                   ConsistencyIntegral& consistency,
                                   double now, std::uint64_t redundant_tx) {
  const ExperimentConfig& cfg = *cfg_;
  ExperimentResult out;
  out.avg_consistency = consistency.average(now);
  if (fluid_) {
    // Blend the fluid cohort into the aggregate with population weights:
    // the tracked receivers and the cohort observe the same announce
    // stream, so E[c] over the whole population is the weighted mean.
    // Churn moves the discrete weight the same way in both engines.
    fluid_->advance(cfg.warmup + cfg.duration);
    const auto n = static_cast<double>(consistency.active_receivers());
    const double m = cfg.fluid_cohort;
    const double cf = fluid_->average_consistency();
    out.fluid_cohort = m;
    out.fluid_consistency = cf;
    out.fluid_live = fluid_->live();
    out.fluid_occupancy = fluid_->average_occupancy();
    if (m > 0.0) {
      out.avg_consistency = (n * out.avg_consistency + m * cf) / (n + m);
    }
  }
  // The mean before the quantiles: quantile() sorts the samples, and the
  // mean's compensated accumulation is insertion-order sensitive.
  stats::Samples latency = consistency.latency();
  out.mean_latency = latency.mean();
  out.p50_latency = latency.quantile(0.50);
  out.p95_latency = latency.quantile(0.95);

  const SenderStats& s = end.sender;
  out.data_tx = s.data_tx - warm_.sender.data_tx;
  out.hot_tx = s.hot_tx - warm_.sender.hot_tx;
  out.cold_tx = s.cold_tx - warm_.sender.cold_tx;
  out.repair_tx = s.repair_tx - warm_.sender.repair_tx;
  out.nacks_received = s.nacks_received - warm_.sender.nacks_received;
  out.redundant_tx = redundant_tx;
  out.redundant_fraction =
      out.data_tx > 0 ? static_cast<double>(out.redundant_tx) /
                            static_cast<double>(out.data_tx)
                      : 0.0;

  out.nacks_sent = end.nacks_sent - warm_.nacks_sent;
  out.nacks_suppressed = end.nacks_suppressed;

  const std::uint64_t delivered = end.delivered - warm_.delivered;
  // Shared-stage drops count once per receiver (the packet reached nobody).
  // Warmup-window shared drops are not tracked separately; with warmup a
  // small fraction of the run, the bias is negligible.
  const std::uint64_t dropped =
      end.dropped - warm_.dropped + sender.shared_drops() * cfg.num_receivers;
  out.observed_loss = (delivered + dropped) > 0
                          ? static_cast<double>(dropped) /
                                static_cast<double>(delivered + dropped)
                          : 0.0;

  out.offered_fb_kbps =
      (end.fb_bytes - warm_.fb_bytes) * 8.0 / cfg.duration / 1000.0;
  out.offered_data_kbps =
      (end.data_bytes - warm_.data_bytes) * 8.0 / cfg.duration / 1000.0;

  out.inserts = workload.inserts();
  out.updates = workload.updates();
  out.versions_introduced = end.versions_introduced;
  out.versions_received = end.versions_received;

  out.final_live = pub.live_count();
  out.final_hot_depth = sender.hot_depth();
  out.final_cold_depth = sender.cold_depth();
  out.timeline = std::move(timeline_);
  return out;
}

}  // namespace sst::core

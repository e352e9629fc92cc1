#include "core/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>

#include "core/rig_build.hpp"
#include "core/sharded.hpp"

namespace sst::core {

Experiment::Experiment(ExperimentConfig config)
    : cfg_(std::move(config)),
      root_(cfg_.seed),
      monitor_(sim_, pub_),
      consistency_({&monitor_}, sim_.now()),
      workload_(sim_, pub_, cfg_.workload, root_.fork("workload")),
      data_channel_(sim_, rig::deliver_data(receivers_)),
      collector_(cfg_) {
  // Multicast feedback: one shared group over which every NACK reaches the
  // sender and every other receiver (observe_nack), enabling slotting and
  // damping.
  if (cfg_.variant == Variant::kFeedback && cfg_.multicast_feedback) {
    mcast_fb_ = std::make_unique<FanOut<NackMsg>>(
        sim_, [this](const NackMsg& nack,
                     const std::vector<std::uint32_t>& eps) {
          rig::for_each_group_target(
              nack, eps, [&] { deliver_nack(nack); },
              [&](std::size_t r) { receivers_[r].agent->observe_nack(nack); });
        });
    mcast_fb_->add_endpoint(
        rig::make_loss(cfg_, rig::nack_loss(cfg_),
                       root_.fork("nack-loss-sender"),
                       root_.fork("switch-nack-sender")),
        rig::make_delay(cfg_, root_.fork("nack-delay-sender")));
  }

  for (std::size_t r = 0; r < cfg_.num_receivers; ++r) add_receiver();

  // Oracle removal: the paper's model eliminates expired records "from both
  // the sender's and receivers' tables". Iterates the live rig list so
  // receivers joining later are covered too.
  if (cfg_.oracle_remove) {
    pub_.subscribe([this](const Record& rec, ChangeKind kind) {
      if (kind == ChangeKind::kRemove) {
        for (auto& rig : receivers_) rig.table->remove(rec.key);
      }
    });
  }

  sender_.emplace(
      cfg_, root_, sim_, pub_, workload_,
      [this](const DataMsg& msg, sim::Bytes size) {
        data_channel_.send(msg, size);
      },
      [this](const DataMsg& msg) { count_redundant(msg); });

  workload_.start();
}

std::size_t Experiment::add_receiver() {
  // Every receiver lives on this one queue; its feedback reaches the sender
  // (unicast) or the group (multicast) directly.
  return rig::build_receiver(
      cfg_, root_, block(), receivers_.size(),
      [this](const NackMsg& nack) { group_nack_send(nack); },
      [this](net::Channel<NackMsg>& channel,
             std::unique_ptr<net::LossModel> loss,
             std::unique_ptr<net::DelayModel> delay) {
        channel.add_receiver(std::move(loss), std::move(delay),
                             [this](const NackMsg& nack) {
                               deliver_nack(nack);
                             });
      });
}

rig::Block Experiment::block() {
  return rig::Block{sim_, monitor_, consistency_, data_channel_,
                    mcast_fb_.get(), receivers_};
}

void Experiment::deliver_nack(const NackMsg& nack) {
  if (TwoQueueSender* tq = sender_->two_queue()) tq->handle_nack(nack);
}

void Experiment::group_nack_send(const NackMsg& nack) {
  // Stash only; the first stash of the instant schedules the flush, which
  // the kernel runs after every event already queued for this timestamp.
  // Flushing in canonical content order makes the group-entry order at an
  // exact tie — and with it every observe endpoint's per-NACK loss/delay
  // draw — a pure function of the NACKs themselves, which the sharded
  // engine's cross-shard drain reproduces without the global event queue
  // (same contract as TwoQueueSender::handle_nack on the sender lane).
  pending_group_.push_back(nack);
  if (pending_group_.size() == 1) {
    sim_.at(sim_.now(), [this] {
      std::stable_sort(pending_group_.begin(), pending_group_.end(),
                       nack_content_less);
      for (const NackMsg& msg : pending_group_) mcast_fb_->send(msg, msg.size);
      pending_group_.clear();
    });
  }
}

void Experiment::count_redundant(const DataMsg& msg) {
  // Redundancy oracle: a transmission is redundant if every (attached)
  // receiver already holds the announced version.
  if (rig::all_hold(receivers_, msg)) ++redundant_tx_;
}

Tally Experiment::tally() const {
  Tally t;
  t.sender = sender_->stats();
  t.add(receivers_, data_channel_, monitor_);
  t.add_group(mcast_fb_.get());
  return t;
}

void Experiment::run_warmup() {
  sim_.run_until(cfg_.warmup);
  consistency_.reset(sim_.now());
  redundant_tx_ = 0;
  collector_.warm(tally());

  if (cfg_.sample_interval > 0) {
    sampler_ = std::make_unique<sim::PeriodicTimer>(sim_);
    sampler_->start(cfg_.sample_interval,
                    [this] { collector_.sample(consistency_, sim_.now()); });
  }
}

void Experiment::run_until(double t) {
  sim_.run_until(t);
  collector_.advance_cohort(sim_.now());
}

void Experiment::set_partition(std::size_t r, bool down) {
  rig::set_partition(receivers_.at(r), down);
}

void Experiment::set_partition_all(bool down) {
  for (auto& rig : receivers_) {
    if (rig.active) rig::set_partition(rig, down);
  }
}

void Experiment::set_extra_loss(std::size_t r, double p) {
  rig::set_extra_loss(receivers_.at(r), p);
}

void Experiment::set_extra_loss_all(double p) {
  for (auto& rig : receivers_) {
    if (rig.active) rig::set_extra_loss(rig, p);
  }
}

void Experiment::detach_receiver(std::size_t r) {
  if (!receivers_.at(r).active) return;
  rig::detach(block(), r);
}

ExperimentResult Experiment::finish() {
  sim_.run_until(end_time());
  if (sampler_) sampler_->stop();
  return collector_.result(tally(), *sender_, workload_, pub_, consistency_,
                           sim_.now(), redundant_tx_);
}

analysis::FluidParams fluid_params_from(const ExperimentConfig& cfg) {
  analysis::FluidParams fp;
  switch (cfg.variant) {
    case Variant::kOpenLoop:
      fp.variant = analysis::FluidVariant::kOpenLoop;
      break;
    case Variant::kTwoQueue:
      fp.variant = analysis::FluidVariant::kTwoQueue;
      break;
    case Variant::kFeedback:
      fp.variant = analysis::FluidVariant::kFeedback;
      break;
  }

  fp.lambda = cfg.workload.insert_rate;
  fp.update_rate = cfg.workload.update_rate;
  if (cfg.workload.death_mode == DeathMode::kPerTransmission) {
    fp.death = analysis::FluidDeath::kPerTransmission;
    fp.p_death = cfg.workload.p_death;
  } else {
    // Fixed and Pareto lifetimes approximate as memoryless with the same
    // mean — the fluid flows depend on lifetimes only through their rate.
    fp.death = analysis::FluidDeath::kLifetime;
    fp.mean_lifetime = cfg.workload.mean_lifetime;
  }

  const double record_bits = sim::bits(cfg.workload.record_size);
  fp.mu_announce = record_bits > 0.0 ? cfg.mu_data / record_bits : 0.0;
  fp.hot_share = cfg.hot_share;
  const double nack_bits = sim::bits(cfg.receiver.nack_size);
  fp.mu_nack = nack_bits > 0.0 ? cfg.mu_fb / nack_bits : 0.0;

  // One shared-stage draw drops the packet for every receiver; leaf loss is
  // then independent: p_eff = shared + (1 - shared) * leaf. (Bursty loss
  // keeps the same mean, which is all the fluid flows see.)
  fp.loss = cfg.shared_loss_rate +
            (1.0 - cfg.shared_loss_rate) * cfg.loss_rate;
  fp.nack_loss = cfg.nack_loss_rate;
  fp.receiver_ttl = cfg.receiver_ttl;
  fp.delay = cfg.delay;
  fp.retry_timeout = cfg.receiver.retry_timeout;
  fp.retry_backoff = cfg.receiver.retry_backoff;
  fp.max_retries = cfg.receiver.max_retries;

  fp.cohort = cfg.fluid_cohort;
  fp.max_pending_repairs =
      static_cast<double>(TwoQueueConfig{}.max_pending_repairs);
  fp.nack_batch = static_cast<double>(cfg.receiver.max_batch);

  fp.duration = cfg.duration;
  fp.warmup = cfg.warmup;
  fp.sample_interval = cfg.sample_interval;
  return fp;
}

namespace {

// Pure-fluid backend: no event simulation at all, just the ODE cohort.
ExperimentResult run_fluid(const ExperimentConfig& cfg) {
  const analysis::FluidParams fp = fluid_params_from(cfg);
  const analysis::FluidResult fr = analysis::solve_fluid(fp);

  ExperimentResult r;
  r.avg_consistency = fr.avg_consistency;
  r.fluid_cohort = cfg.fluid_cohort;
  r.fluid_consistency = fr.avg_consistency;
  r.fluid_live = fr.live;
  r.fluid_occupancy = fr.avg_occupancy;

  r.data_tx = static_cast<std::uint64_t>(fr.announce_tx);
  r.repair_tx = static_cast<std::uint64_t>(fr.repair_tx);
  r.redundant_tx = static_cast<std::uint64_t>(fr.redundant_tx);
  r.redundant_fraction =
      fr.announce_tx > 0.0 ? fr.redundant_tx / fr.announce_tx : 0.0;
  r.nacks_sent =
      static_cast<std::uint64_t>(fr.nacks_per_receiver * cfg.fluid_cohort);
  r.observed_loss = fp.loss;

  const double record_bits = sim::bits(cfg.workload.record_size);
  r.offered_data_kbps =
      cfg.duration > 0.0
          ? fr.announce_tx * record_bits / cfg.duration / 1000.0
          : 0.0;
  const double nack_bits = sim::bits(cfg.receiver.nack_size);
  r.offered_fb_kbps =
      cfg.duration > 0.0
          ? fr.nacks_per_receiver * nack_bits / cfg.duration / 1000.0
          : 0.0;

  r.inserts = static_cast<std::uint64_t>(fp.lambda *
                                         (cfg.warmup + cfg.duration));
  r.updates = 0;
  r.final_live = static_cast<std::size_t>(fr.live);
  r.final_hot_depth = static_cast<std::size_t>(fr.hot_backlog);

  r.timeline.reserve(fr.timeline.size());
  for (const auto& pt : fr.timeline) {
    r.timeline.push_back(TimelinePoint{pt.time, pt.consistency});
  }
  return r;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  if (cfg.backend == Backend::kFluid) return run_fluid(cfg);
  if (cfg.shards > 1) {
    // The sharded engine covers a (large) subset of configurations; outside
    // it, fall back to the single-queue engine. Surface each distinct
    // fallback reason once per process — a sweep that silently runs
    // single-queue looks exactly like one that sharded, and "why is this
    // not faster" deserves an answer without a debugger. CLI front ends
    // that pre-check sharded_supported() and clamp cfg.shards themselves
    // never reach this notice.
    std::string why;
    if (sharded_supported(cfg, why)) return run_sharded(cfg);
    static std::mutex seen_mu;
    static std::set<std::string> seen;
    {
      const std::lock_guard<std::mutex> lock(seen_mu);
      if (seen.insert(why).second) {
        std::fprintf(stderr,
                     "note: shards=%zu requested but %s; using the "
                     "single-queue engine (further runs with this reason "
                     "stay quiet)\n",
                     cfg.shards, why.c_str());
      }
    }
  }
  Experiment exp(cfg);
  exp.run_warmup();
  return exp.finish();
}

}  // namespace sst::core

#include "sstp/session.hpp"

#include "net/delay.hpp"
#include "net/loss.hpp"

namespace sst::sstp {

namespace {

// Wrapped in SwitchableLoss so faults can act on the live run; the wrapper
// never draws from its own RNG until a fault fires, so it is draw-for-draw
// invisible in fault-free runs.
std::unique_ptr<net::SwitchableLoss> make_loss(double rate, sim::Rng rng,
                                               sim::Rng switch_rng) {
  std::unique_ptr<net::LossModel> base;
  if (rate <= 0.0) {
    base = std::make_unique<net::NoLoss>();
  } else {
    base = std::make_unique<net::BernoulliLoss>(rate, rng);
  }
  return std::make_unique<net::SwitchableLoss>(std::move(base), switch_rng);
}

std::unique_ptr<net::DelayModel> make_delay(sim::Duration delay,
                                            sim::Duration jitter,
                                            sim::Rng rng) {
  if (jitter > 0.0) {
    return std::make_unique<net::UniformJitterDelay>(delay, jitter, rng);
  }
  return std::make_unique<net::FixedDelay>(delay);
}

}  // namespace

Session::Session(sim::Simulator& sim, SessionConfig config)
    : sim_(&sim),
      config_(config),
      root_(config_.seed),
      fb_loss_(config_.fb_loss_rate < 0 ? config_.loss_rate
                                        : config_.fb_loss_rate),
      sampler_(sim),
      consistency_(sim.now(), 1.0) {
  data_channel_ = std::make_unique<net::Channel<WireBytes>>(sim);

  // Hostile forward path (reorder/dup/partition) sits between the sender
  // and the shared data channel. Only built when configured: an inactive
  // config leaves the FIFO path (and its RNG streams) untouched.
  if (config_.fwd_hostile.active()) {
    fwd_hostile_ = std::make_unique<net::HostileChannel<WireBytes>>(
        sim, config_.fwd_hostile, root_.fork("hostile-fwd"),
        [this](const WireBytes& bytes, sim::Bytes size) {
          data_channel_->send(bytes, size);
        });
  }

  config_.receiver.algo = config_.sender.algo;
  sender_ = std::make_unique<Sender>(
      sim, config_.sender, [this](const WireBytes& bytes, sim::Bytes size) {
        if (fwd_hostile_ != nullptr) {
          fwd_hostile_->send(bytes, size);
        } else {
          data_channel_->send(bytes, size);
        }
      });

  for (std::size_t r = 0; r < config_.num_receivers; ++r) add_receiver();

  if (config_.use_allocator) {
    sender_->set_allocator(std::make_unique<BandwidthAllocator>(
        config_.allocator, empirical_feedback_profile()));
    // Apply the feedback side of each allocation to the reverse links (in a
    // deployment this rides in the session description / announcements).
    sender_->on_allocation([this](const Allocation& alloc) {
      for (auto& rig : receivers_) rig.fb_link->set_rate(alloc.mu_fb);
    });
  }

  // Mean-field cohort tier: the fluid population shares the forward
  // channel's loss/delay characteristics; workload and bandwidth rates come
  // from the caller-provided fluid params.
  if (config_.fluid_cohort > 0.0) {
    analysis::FluidParams fp = config_.fluid;
    fp.cohort = config_.fluid_cohort;
    fp.loss = config_.loss_rate;
    fp.nack_loss = fb_loss_;
    fp.delay = config_.delay;
    fluid_ = std::make_unique<analysis::FluidIntegrator>(fp);
  }

  // Construction-time receivers face an (effectively) empty store and are
  // caught up from the start, with zero latency.
  settle_catch_ups();

  if (config_.sample_interval > 0) {
    sampler_.start(config_.sample_interval, [this] { sample(); });
  }
}

std::size_t Session::add_receiver() {
  const std::size_t r = receivers_.size();
  ReceiverRig rig;
  rig.joined_at = sim_->now();

  // Reverse path: receiver -> rate-limited link -> optional hostile stage
  // -> lossy channel -> sender. Delay/jitter fall back to the forward-path
  // values when unset, so the two directions can be configured
  // asymmetrically (e.g. a clean feedback path under a hostile forward one,
  // or vice versa) without disturbing existing symmetric setups.
  const sim::Duration fb_delay =
      config_.fb_delay < 0 ? config_.delay : config_.fb_delay;
  const sim::Duration fb_jitter =
      config_.fb_jitter < 0 ? config_.jitter : config_.fb_jitter;
  rig.fb_channel = std::make_unique<net::Channel<WireBytes>>(*sim_);
  auto rev_loss = make_loss(fb_loss_, root_.fork("fb-loss", r),
                            root_.fork("switch-fb", r));
  rig.rev_switch = rev_loss.get();
  rig.fb_channel->add_receiver(
      std::move(rev_loss),
      make_delay(fb_delay, fb_jitter, root_.fork("fb-delay", r)),
      [this](const WireBytes& bytes) { sender_->handle_feedback(bytes); });
  net::Channel<WireBytes>* fb_chan = rig.fb_channel.get();
  if (config_.fb_hostile.active()) {
    rig.fb_hostile = std::make_unique<net::HostileChannel<WireBytes>>(
        *sim_, config_.fb_hostile, root_.fork("hostile-fb", r),
        [fb_chan](const WireBytes& bytes, sim::Bytes size) {
          fb_chan->send(bytes, size);
        });
  }
  net::HostileChannel<WireBytes>* fb_hostile = rig.fb_hostile.get();
  rig.fb_link = std::make_unique<net::Link<WireBytes>>(
      *sim_, config_.mu_fb,
      [fb_chan, fb_hostile](const WireBytes& bytes, sim::Bytes size) {
        if (fb_hostile != nullptr) {
          fb_hostile->send(bytes, size);
        } else {
          fb_chan->send(bytes, size);
        }
      },
      /*queue_limit=*/8);
  net::Link<WireBytes>* fb_link = rig.fb_link.get();

  rig.receiver = std::make_unique<Receiver>(
      *sim_, config_.receiver,
      [fb_link](const WireBytes& bytes, sim::Bytes size) {
        fb_link->send(bytes, size);
      },
      root_.fork("recv-rng", r));

  Receiver* recv = rig.receiver.get();
  auto fwd_loss = make_loss(config_.loss_rate, root_.fork("loss", r),
                            root_.fork("switch-loss", r));
  rig.fwd_switch = fwd_loss.get();
  data_channel_->add_receiver(
      std::move(fwd_loss),
      make_delay(config_.delay, config_.jitter, root_.fork("delay", r)),
      [recv](const WireBytes& bytes) { recv->handle(bytes); });

  receivers_.push_back(std::move(rig));
  return r;
}

void Session::detach_receiver(std::size_t i) {
  ReceiverRig& rig = receivers_.at(i);
  if (!rig.active) return;
  rig.active = false;
  if (rig.catching_up) rig.catching_up = false;
  rig.receiver->stop();
  data_channel_->set_receiver_enabled(i, false);
}

void Session::set_partition(std::size_t i, bool down) {
  ReceiverRig& rig = receivers_.at(i);
  if (rig.fwd_switch != nullptr) rig.fwd_switch->set_down(down);
  if (rig.rev_switch != nullptr) rig.rev_switch->set_down(down);
}

void Session::set_partition_all(bool down) {
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    if (receivers_[i].active) set_partition(i, down);
  }
}

void Session::set_extra_loss(std::size_t i, double p) {
  ReceiverRig& rig = receivers_.at(i);
  if (rig.fwd_switch != nullptr) rig.fwd_switch->set_extra_loss(p);
}

void Session::set_extra_loss_all(double p) {
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    if (receivers_[i].active) set_extra_loss(i, p);
  }
}

void Session::set_bandwidth_factor(double factor) {
  sender_->set_mu_data(config_.sender.mu_data * factor);
}

double Session::repair_traffic() const {
  const SenderStats& s = sender_->stats();
  std::uint64_t recv_side = 0;
  for (const auto& rig : receivers_) {
    recv_side += rig.receiver->stats().queries_tx;
    recv_side += rig.receiver->stats().nacks_tx;
  }
  double total = static_cast<double>(s.repair_tx + s.sig_tx + recv_side);
  if (fluid_) total += fluid_->repair_traffic();
  return total;
}

double Session::receiver_consistency(std::size_t i) const {
  const NamespaceTree& sender_tree = sender_->tree();
  if (sender_tree.leaf_count() == 0) return 1.0;
  const NamespaceTree& rt = receivers_.at(i).receiver->tree();
  std::size_t consistent = 0;
  sender_tree.for_each_leaf(
      Path{}, [&rt, &consistent](const Path& path, const Adu& adu) {
        const Adu* mirror = rt.find(path);
        if (mirror != nullptr && mirror->version == adu.version &&
            mirror->complete()) {
          ++consistent;
        }
      });
  return static_cast<double>(consistent) /
         static_cast<double>(sender_tree.leaf_count());
}

double Session::instantaneous_consistency() const {
  double sum = 0.0;
  double weight = 0.0;
  if (sender_->tree().leaf_count() > 0) {
    for (std::size_t i = 0; i < receivers_.size(); ++i) {
      if (!receivers_[i].active) continue;
      weight += 1.0;
      sum += receiver_consistency(i);
    }
  }
  // The fluid cohort contributes with its population weight (its own
  // vacuous-empty convention covers the empty-store case).
  if (fluid_) {
    sum += fluid_->consistency() * fluid_->params().cohort;
    weight += fluid_->params().cohort;
  }
  if (weight == 0.0) return 1.0;
  return sum / weight;
}

void Session::settle_catch_ups() {
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    ReceiverRig& rig = receivers_[i];
    if (!rig.active || !rig.catching_up) continue;
    if (receiver_consistency(i) >= config_.catch_up_threshold) {
      rig.catching_up = false;
      rig.catch_up_latency = sim_->now() - rig.joined_at;
    }
  }
}

void Session::sample() {
  settle_catch_ups();
  if (fluid_) fluid_->advance(sim_->now());
  consistency_.update(sim_->now(), instantaneous_consistency());
}

double Session::average_consistency() {
  if (fluid_) fluid_->advance(sim_->now());
  consistency_.update(sim_->now(), instantaneous_consistency());
  return consistency_.average();
}

void Session::reset_consistency_stats() {
  if (fluid_) fluid_->advance(sim_->now());
  consistency_.update(sim_->now(), instantaneous_consistency());
  consistency_.reset(sim_->now());
}

double Session::feedback_bytes() const {
  double total = 0.0;
  for (const auto& rig : receivers_) {
    total += rig.fb_channel->stats().bytes_sent;
  }
  return total;
}

}  // namespace sst::sstp

// rig_build.hpp — the experiment plumbing both engines build the same way:
// the single-queue Experiment and the sharded engine (sharded.cpp). Loss,
// delay and scheduler stacks, one receiver's rig, and the fault surface over
// a rig live here; the sender side and the result collector are declared in
// experiment.hpp and defined in rig_build.cpp. Keeping them in one place is
// a determinism requirement, not a style choice: the sharded engine's
// bit-identity guarantee rests on every endpoint consuming EXACTLY the draw
// sequence the single-queue engine would, so the model stack built around
// each forked stream must come from the same code.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/fanout.hpp"
#include "core/monitor.hpp"
#include "core/receiver.hpp"
#include "net/channel.hpp"
#include "net/delay.hpp"
#include "net/loss.hpp"
#include "sched/drr.hpp"
#include "sched/hierarchical.hpp"
#include "sched/lottery.hpp"
#include "sched/stride.hpp"
#include "sched/wfq.hpp"
#include "sim/random.hpp"

namespace sst::core::rig {

inline std::unique_ptr<sched::Scheduler> make_scheduler(SchedulerKind kind,
                                                        const sim::Rng& rng) {
  switch (kind) {
    case SchedulerKind::kStride:
      return std::make_unique<sched::StrideScheduler>();
    case SchedulerKind::kLottery:
      return std::make_unique<sched::LotteryScheduler>(rng.fork("lottery"));
    case SchedulerKind::kWfq:
      return std::make_unique<sched::WfqScheduler>();
    case SchedulerKind::kDrr:
      return std::make_unique<sched::DrrScheduler>();
    case SchedulerKind::kHierarchical:
      return std::make_unique<sched::HierarchicalScheduler>();
  }
  return std::make_unique<sched::StrideScheduler>();
}

// Every loss process is wrapped in a SwitchableLoss so faults can be applied
// to the live run. The wrapper's own RNG is only drawn while extra loss is
// active, and the base process is always stepped first, so the wrapper is
// draw-for-draw invisible until a fault actually fires.
inline std::unique_ptr<net::SwitchableLoss> make_loss(
    const ExperimentConfig& cfg, double rate, sim::Rng rng,
    sim::Rng switch_rng) {
  std::unique_ptr<net::LossModel> base;
  if (rate <= 0.0) {
    base = std::make_unique<net::NoLoss>();
  } else if (cfg.bursty_loss) {
    base = std::make_unique<net::GilbertElliottLoss>(
        net::GilbertElliottLoss::with_mean(rate, cfg.mean_burst_len, rng));
  } else {
    base = std::make_unique<net::BernoulliLoss>(rate, rng);
  }
  if (!cfg.outages.empty()) {
    base = std::make_unique<net::OutageLoss>(std::move(base), cfg.outages);
  }
  return std::make_unique<net::SwitchableLoss>(std::move(base), switch_rng);
}

inline std::unique_ptr<net::DelayModel> make_delay(const ExperimentConfig& cfg,
                                                   sim::Rng rng) {
  if (cfg.jitter > 0.0) {
    return std::make_unique<net::UniformJitterDelay>(cfg.delay, cfg.jitter,
                                                     rng);
  }
  return std::make_unique<net::FixedDelay>(cfg.delay);
}

/// NACK loss on every feedback path; a negative nack_loss_rate copies the
/// forward loss rate.
inline double nack_loss(const ExperimentConfig& cfg) {
  return cfg.nack_loss_rate < 0 ? cfg.loss_rate : cfg.nack_loss_rate;
}

/// The receivers one event queue drives, with the plumbing they attach to:
/// the whole population under the single-queue engine, one contiguous block
/// per shard under the sharded engine.
struct Block {
  sim::Simulator& sim;
  ConsistencyMonitor& monitor;
  ConsistencyIntegral& consistency;  // the engine's one, over `monitor` too
  FanOut<DataMsg>& data;             // endpoint i is block receiver i
  FanOut<NackMsg>* group;            // the shared feedback group, if any
  std::vector<ReceiverRig>& rigs;
};

/// The data channel's batch delivery over a block: endpoint i is rig i.
inline FanOut<DataMsg>::Deliver deliver_data(std::vector<ReceiverRig>& rigs) {
  return [&rigs](const DataMsg& msg, const std::vector<std::uint32_t>& eps) {
    for (const std::uint32_t ep : eps) rigs[ep].agent->handle(msg);
  };
}

/// The shared feedback group's endpoints, the same under both engines:
/// endpoint 0 is the sender, and endpoint r + 1 is where receiver r (global
/// index) overhears the group. r + 1 is also the origin receiver r stamps
/// on its own NACKs.
inline constexpr std::uint32_t kGroupSender = 0;
inline std::uint32_t group_origin(std::size_t r) {
  return static_cast<std::uint32_t>(r + 1);
}

/// Walks one group batch in endpoint order: `to_sender()` for the sender's
/// endpoint, `to_receiver(r)` for every receiver r that overhears `nack` —
/// all but its originator, whose own NACK echoes back to it.
template <class ToSender, class ToReceiver>
void for_each_group_target(const NackMsg& nack,
                           const std::vector<std::uint32_t>& eps,
                           const ToSender& to_sender,
                           const ToReceiver& to_receiver) {
  for (const std::uint32_t ep : eps) {
    if (ep == kGroupSender) {
      to_sender();
    } else if (ep != nack.origin) {
      to_receiver(std::size_t{ep} - 1);
    }
  }
}

/// Builds receiver `r` into `block` and returns its index there. `r` is the
/// GLOBAL index: every stream is root.fork(tag, r), so the draws do not
/// depend on which engine or shard hosts the receiver. Its data endpoint
/// and its observe endpoint on the group (endpoint group_origin(r)) are
/// added here; only the far ends of its feedback differ between the
/// engines, and the engine supplies them:
///
///   uplink(nack)      a tagged NACK entering the shared feedback group
///                     (multicast feedback), past this receiver's hostile
///                     stage; copied into the agent, so keep it small.
///   attach_sender(channel, loss, delay)
///                     adds the sender's endpoint to this receiver's
///                     unicast feedback channel.
template <class Uplink, class AttachSender>
std::size_t build_receiver(const ExperimentConfig& cfg, const sim::Rng& root,
                           const Block& block, std::size_t r,
                           const Uplink& uplink,
                           const AttachSender& attach_sender) {
  const bool feedback = cfg.variant == Variant::kFeedback;
  const std::uint32_t origin = group_origin(r);
  ReceiverRig rig;
  rig.table = std::make_unique<ReceiverTable>(block.sim, cfg.receiver_ttl);
  block.consistency.attach(block.monitor, *rig.table);

  if (feedback && !cfg.multicast_feedback) {
    rig.fb_channel = std::make_unique<net::Channel<NackMsg>>(block.sim);
    auto rev_loss = make_loss(cfg, nack_loss(cfg), root.fork("nack-loss", r),
                              root.fork("switch-nack", r));
    rig.rev_switch = rev_loss.get();
    attach_sender(*rig.fb_channel, std::move(rev_loss),
                  make_delay(cfg, root.fork("nack-delay", r)));
    // NACKs drain at mu_fb; a bounded queue drops feedback bursts that
    // exceed the budget instead of letting stale NACKs pile up.
    net::Channel<NackMsg>* chan = rig.fb_channel.get();
    if (cfg.fb_hostile.active()) {
      rig.fb_hostile = std::make_unique<net::HostileChannel<NackMsg>>(
          block.sim, cfg.fb_hostile, root.fork("hostile-fb", r),
          [chan](const NackMsg& nack, sim::Bytes size) {
            chan->send(nack, size);
          });
    }
    net::HostileChannel<NackMsg>* hostile = rig.fb_hostile.get();
    rig.fb_link = std::make_unique<net::Link<NackMsg>>(
        block.sim, cfg.mu_fb,
        [chan, hostile](const NackMsg& nack, sim::Bytes size) {
          if (hostile != nullptr) {
            hostile->send(nack, size);
          } else {
            chan->send(nack, size);
          }
        },
        /*queue_limit=*/8);
  }

  ReceiverConfig rcfg = cfg.receiver;
  rcfg.feedback = feedback;
  if (cfg.multicast_feedback) {
    if (cfg.fb_hostile.active()) {
      // Each receiver's uplink into the shared group gets its own hostile
      // stage (independent streams), feeding the group past it. Hostile
      // stages keep the wire size, which the uplink re-reads from the NACK.
      rig.fb_hostile = std::make_unique<net::HostileChannel<NackMsg>>(
          block.sim, cfg.fb_hostile, root.fork("hostile-fb", r),
          [uplink](const NackMsg& nack, sim::Bytes /*size*/) {
            uplink(nack);
          });
    }
    net::HostileChannel<NackMsg>* hostile = rig.fb_hostile.get();
    // By vector and index: the rig vector reallocates on late joins.
    std::vector<ReceiverRig>* rigs = &block.rigs;
    const std::size_t local = rigs->size();
    rig.agent = std::make_unique<ReceiverAgent>(
        block.sim, *rig.table, rcfg,
        [uplink, rigs, local, hostile, origin, feedback](const NackMsg& nack) {
          // A partitioned receiver's uplink is down too.
          if (!feedback || (*rigs)[local].partitioned) return;
          NackMsg tagged = nack;
          tagged.origin = origin;
          if (hostile != nullptr) {
            hostile->send(tagged, tagged.size);
          } else {
            uplink(tagged);
          }
        },
        root.fork("agent", r));
  } else {
    net::Link<NackMsg>* link = feedback ? rig.fb_link.get() : nullptr;
    rig.agent = std::make_unique<ReceiverAgent>(
        block.sim, *rig.table, rcfg,
        [link](const NackMsg& nack) {
          if (link != nullptr) link->send(nack, nack.size);
        },
        root.fork("agent", r));
  }

  if (feedback && cfg.multicast_feedback) {
    auto obs_loss = make_loss(cfg, nack_loss(cfg),
                              root.fork("nack-observe-loss", r),
                              root.fork("switch-observe", r));
    rig.observe_switch = obs_loss.get();
    rig.mcast_ep = block.group->add_endpoint(
        std::move(obs_loss),
        make_delay(cfg, root.fork("nack-observe-delay", r)));
    rig.has_mcast_ep = true;
    // The group's batch delivery finds this receiver by endpoint index.
    if (rig.mcast_ep != origin) {
      throw std::logic_error("group endpoint " + std::to_string(rig.mcast_ep) +
                             " built out of receiver order");
    }
  }
  const double fwd_loss = r < cfg.receiver_loss_rates.size()
                              ? cfg.receiver_loss_rates[r]
                              : cfg.loss_rate;
  auto fwd = make_loss(cfg, fwd_loss, root.fork("loss", r),
                       root.fork("switch-loss", r));
  rig.fwd_switch = fwd.get();
  if (block.data.add_endpoint(std::move(fwd),
                              make_delay(cfg, root.fork("delay", r))) !=
      block.rigs.size()) {
    throw std::logic_error("data endpoint built out of block order");
  }

  block.rigs.push_back(std::move(rig));
  return block.rigs.size() - 1;
}

// ------------------------------------------------------------ fault surface

/// Cuts the receiver off from the session in both directions (data in,
/// feedback out, overheard NACKs in), or heals it.
inline void set_partition(ReceiverRig& rig, bool down) {
  rig.partitioned = down;
  if (rig.fwd_switch != nullptr) rig.fwd_switch->set_down(down);
  if (rig.rev_switch != nullptr) rig.rev_switch->set_down(down);
  if (rig.observe_switch != nullptr) rig.observe_switch->set_down(down);
}

/// Layers extra loss probability `p` on the receiver's forward path.
inline void set_extra_loss(ReceiverRig& rig, double p) {
  if (rig.fwd_switch != nullptr) rig.fwd_switch->set_extra_loss(p);
}

/// Receiver leave: block receiver `local` stops receiving, NACKing, and
/// counting toward c(t).
inline void detach(const Block& block, std::size_t local) {
  ReceiverRig& rig = block.rigs[local];
  rig.active = false;
  block.consistency.detach(block.monitor, local);
  rig.agent->stop();
  block.data.set_endpoint_enabled(local, false);
  if (block.group != nullptr && rig.has_mcast_ep) {
    block.group->set_endpoint_enabled(rig.mcast_ep, false);
  }
}

/// Redundancy oracle over one block: true when every active receiver
/// already holds the announced version (detached receivers leave the
/// oracle).
inline bool all_hold(const std::vector<ReceiverRig>& rigs, const DataMsg& msg) {
  for (const auto& rig : rigs) {
    if (!rig.active) continue;
    const auto* e = rig.table->find(msg.key);
    if (e == nullptr || e->version < msg.version) return false;
  }
  return true;
}

}  // namespace sst::core::rig

// channel.hpp — lossy, delayed message channels.
//
// A Channel<M> carries messages of protocol type M from one sender to one or
// more receivers, applying a LossModel and a DelayModel per receiver. The
// channel does not rate-limit — bandwidth budgeting is the *sender's* job in
// the soft state model (the sender's transmission scheduler is the "server"
// of the paper's queueing model). For shared-bottleneck topologies, compose
// with Link<M> (link.hpp).
//
// An endpoint is local (add_receiver: the channel schedules one delivery
// event per surviving copy on its simulator) or send-time
// (add_send_time_receiver: the channel hands the copy and its drawn
// arrival time to the owner at send time and schedules nothing). Either way
// the loss and delay draws happen at send time, in endpoint order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/annotate.hpp"
#include "check/check.hpp"
#include "net/delay.hpp"
#include "net/loss.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace sst::net {

/// Statistics a channel accumulates over its lifetime.
struct ChannelStats {
  std::uint64_t sent = 0;       // messages offered to the channel
  std::uint64_t delivered = 0;  // per-receiver deliveries
  std::uint64_t dropped = 0;    // per-receiver drops
  double bytes_sent = 0;        // offered load in bytes

  [[nodiscard]] double observed_loss_rate() const {
    const std::uint64_t total = delivered + dropped;
    return total == 0 ? 0.0
                      : static_cast<double>(dropped) /
                            static_cast<double>(total);
  }
};

/// Point-to-multipoint lossy channel. Each receiver has its own independent
/// loss and delay process (heterogeneous receivers, as in multicast
/// sessions); loss is applied independently per receiver, matching the
/// paper's "lost by one or more subscribers" channel.
template <class M>
class Channel {
 public:
  using Handler = std::function<void(const M&)>;

  explicit Channel(sim::Simulator& sim) : sim_(&sim) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Adds a receiver endpoint (allowed mid-run: a late joiner). Returns its
  /// index (used in per-receiver statistics). `loss` and `delay` must not be
  /// null.
  std::size_t add_receiver(std::unique_ptr<LossModel> loss,
                           std::unique_ptr<DelayModel> delay,
                           Handler handler) {
    // Endpoints live on the heap: adding a receiver mid-run must not move
    // existing endpoints, whose handlers in-flight deliveries point at.
    auto ep = std::make_unique<Endpoint>();
    ep->loss = std::move(loss);
    ep->delay = std::move(delay);
    ep->handler = std::move(handler);
    receivers_.push_back(std::move(ep));
    return receivers_.size() - 1;
  }

  /// Delivery callback of a send-time endpoint: invoked at SEND time with
  /// the already-drawn arrival time, instead of a delivery event scheduled
  /// on this channel's simulator. Two kinds of owner need the arrival
  /// eagerly: a receiver on another event queue (the sharded engine's
  /// worker->root feedback, whose receiving side has not run yet when the
  /// send happens), and a batcher that schedules one delivery event per
  /// (send, arrival instant) for many endpoints at once (core::FanOut).
  using SendTimeHandler =
      std::function<void(const M&, sim::SimTime arrival)>;

  /// Adds a send-time receiver endpoint. Loss and delay are drawn exactly
  /// as for a local endpoint (same models, same stream order, same
  /// statistics), but instead of scheduling delivery on this simulator,
  /// `on_send` is called immediately with the message and its arrival time
  /// now + delay. The channel schedules nothing for such an endpoint; what
  /// happens at the arrival time is the owner's business.
  std::size_t add_send_time_receiver(std::unique_ptr<LossModel> loss,
                                     std::unique_ptr<DelayModel> delay,
                                     SendTimeHandler on_send) {
    auto ep = std::make_unique<Endpoint>();
    ep->loss = std::move(loss);
    ep->delay = std::move(delay);
    ep->on_send = std::move(on_send);
    receivers_.push_back(std::move(ep));
    return receivers_.size() - 1;
  }

  /// Transmits `msg` of wire size `size` bytes toward every enabled
  /// receiver. Each receiver independently loses or receives the message
  /// after its delay. All in-flight deliveries share ONE immutable copy of
  /// the message — per-receiver copies made multi-receiver sends O(R) in
  /// payload size — and the copy itself comes from a small recycled pool, so
  /// steady-state sends allocate nothing.
  void send(const M& msg, sim::Bytes size) {
    // The caller is the thread driving sim_ by construction (senders and
    // links schedule onto the channel's own simulator) — the owning-engine
    // serial role that guards the recycled payload pool.
    check::engine_role.assert_held();
    ++stats_.sent;
    stats_.bytes_sent += size;
    std::shared_ptr<const M> payload;
    for (auto& ep : receivers_) {
      if (!ep->enabled) continue;
      if (ep->loss->should_drop(sim_->now())) {
        ++ep->stats.dropped;
        ++stats_.dropped;
        continue;
      }
      ++ep->stats.delivered;
      ++stats_.delivered;
      const sim::Duration d = ep->delay->delay(sim_->now());
      if (ep->on_send) {
        // Send-time endpoint: hand over (message, arrival time) now; the
        // owner schedules the delivery.
        ep->on_send(msg, sim_->now() + d);
        continue;
      }
      if (!payload) payload = acquire_payload(msg);
      // The endpoint owns its handler; endpoints are heap-allocated and
      // never destroyed mid-run (see add_receiver), so capturing the
      // endpoint pointer BY VALUE keeps the delivery valid even if the
      // receivers_ vector reallocates while this message is in flight.
      Endpoint* const endpoint = ep.get();
      sim_->after(d, [endpoint, payload] { endpoint->handler(*payload); });
    }
#if SST_CHECK_ENABLED
    if (check::due(audit_tick_, 4096)) {
      check::Violations v;
      check_invariants(v);
      check::report("Channel", v);
    }
#endif
  }

  /// Aggregate statistics across receivers.
  [[nodiscard]] const ChannelStats& stats() const { return stats_; }

  /// Per-receiver statistics.
  [[nodiscard]] const ChannelStats& stats(std::size_t receiver) const {
    return receivers_.at(receiver)->stats;
  }

  [[nodiscard]] std::size_t receiver_count() const {
    return receivers_.size();
  }

  /// Disables (or re-enables) delivery to a receiver endpoint. A disabled
  /// endpoint is skipped entirely — no delivery, no loss draw, no statistics
  /// — modelling a receiver that has left the session (distinct from a
  /// partition, which drops and counts packets).
  void set_receiver_enabled(std::size_t receiver, bool enabled) {
    receivers_.at(receiver)->enabled = enabled;
  }

  [[nodiscard]] bool receiver_enabled(std::size_t receiver) const {
    return receivers_.at(receiver)->enabled;
  }

  /// Appends every violated invariant to `out` (sst::check): the payload
  /// pool stays within its cap with no null or released-while-referenced
  /// slots (each slot's use_count of at least 1 is the pool's own
  /// reference; in-flight deliveries only ever add to it), endpoints keep
  /// their models, and the aggregate counters equal the per-endpoint sums.
  void check_invariants(check::Violations& out) const SST_REQUIRES_ENGINE {
    if (pool_.size() > kPayloadPoolCap) {
      out.push_back("payload pool size " + std::to_string(pool_.size()) +
                    " exceeds cap " + std::to_string(kPayloadPoolCap));
    }
    if (!pool_.empty() && pool_cursor_ >= pool_.size()) {
      out.push_back("pool cursor " + std::to_string(pool_cursor_) +
                    " out of range");
    }
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      if (pool_[i] == nullptr) {
        out.push_back("pool slot " + std::to_string(i) + " is null");
      } else if (pool_[i].use_count() < 1) {
        out.push_back("pool slot " + std::to_string(i) +
                      " lost its pool reference");
      }
    }
    ChannelStats sum;
    for (std::size_t i = 0; i < receivers_.size(); ++i) {
      const Endpoint& ep = *receivers_[i];
      if (ep.loss == nullptr || ep.delay == nullptr) {
        out.push_back("endpoint " + std::to_string(i) +
                      " missing its loss/delay model");
      }
      sum.delivered += ep.stats.delivered;
      sum.dropped += ep.stats.dropped;
    }
    if (sum.delivered != stats_.delivered || sum.dropped != stats_.dropped) {
      out.push_back("aggregate stats diverge from per-endpoint sums");
    }
  }

 private:
  friend struct check::Corrupter;
  struct Endpoint {
    std::unique_ptr<LossModel> loss;
    std::unique_ptr<DelayModel> delay;
    Handler handler;
    SendTimeHandler on_send;  // set instead of handler: send-time endpoint
    ChannelStats stats;
    bool enabled = true;
  };

  /// Reuses a pooled payload whose in-flight deliveries have all completed
  /// (the pool holds the only remaining reference); allocates a fresh slot
  /// while the pool is below its cap, and falls back to a one-shot
  /// allocation under exceptional depth (long-delay links with thousands of
  /// messages in flight). Pure memory reuse: delivery contents and order are
  /// unaffected.
  std::shared_ptr<const M> acquire_payload(const M& msg) SST_REQUIRES_ENGINE {
    for (std::size_t probe = 0; probe < pool_.size(); ++probe) {
      pool_cursor_ = (pool_cursor_ + 1) % pool_.size();
      auto& slot = pool_[pool_cursor_];
      if (slot.use_count() == 1) {
        *slot = msg;
        return std::const_pointer_cast<const M>(slot);
      }
    }
    if (pool_.size() < kPayloadPoolCap) {
      pool_.push_back(std::make_shared<M>(msg));
      return std::const_pointer_cast<const M>(pool_.back());
    }
    return std::make_shared<const M>(msg);
  }

  static constexpr std::size_t kPayloadPoolCap = 64;

  sim::Simulator* sim_;
  std::vector<std::unique_ptr<Endpoint>> receivers_;
  ChannelStats stats_;
  // The recycled payload pool is single-threaded-by-design hot-path state:
  // only the thread driving sim_ (the owning-engine serial role) may touch
  // it — in the sharded engine that is the owning shard's worker.
  std::vector<std::shared_ptr<M>> pool_ SST_ENGINE_SERIAL;
  std::size_t pool_cursor_ SST_ENGINE_SERIAL = 0;
  std::uint64_t audit_tick_ SST_ENGINE_SERIAL = 0;  // SST_CHECK cadence
};

}  // namespace sst::net

// fanout.hpp — a point-to-multipoint channel that delivers in batches: one
// event per (send, arrival instant) instead of one per reached endpoint.
//
// The core engines' two fan-out channels — the forward data channel and the
// multicast feedback group — reach every receiver with every packet, so a
// per-endpoint delivery event made each send O(R) heap operations and the
// overheard-NACK traffic of a session O(R^2) events. A FanOut keeps the
// channel's per-endpoint loss and delay draws (at send time, in endpoint
// order, on the same streams) but registers every endpoint as a send-time
// endpoint: each send stages (arrival, endpoint) pairs, then schedules one
// event per distinct arrival instant, which hands the message and the
// endpoints it reached at that instant, in endpoint order, to `deliver`.
//
// Why the batch runs exactly the handlers the per-endpoint events would, in
// the same order, at the same times:
//   * A send's per-endpoint events would take consecutive FIFO sequence
//     numbers — nothing else is scheduled inside the send loop — so at any
//     instant they form one unbroken run in (time, seq) order. One event
//     scheduled right after the loop sits in that run's place.
//   * Inside the run the handlers go in endpoint order, which is the order
//     the batch calls them in.
//   * Anything a handler schedules at its own instant lands after every
//     event already queued for that instant: after the whole run before,
//     after the whole batch now.
//   * Jitter only splits one send into several runs, one per instant.
// The SSTP and ARQ channels keep one event per delivery: SSTP's benchmark
// digest folds in the simulator's event count.
//
// The FanOut owns its channel and is the only way to send on it, so a send
// cannot stage without flushing. Batches come from a recycled pool, so
// steady-state sends allocate nothing — a send that reaches one endpoint
// costs one event, like a local endpoint.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/channel.hpp"
#include "net/delay.hpp"
#include "net/loss.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace sst::core {

template <class M>
class FanOut {
 public:
  /// Runs at an arrival instant with the message and the endpoints it
  /// reached there, ascending.
  using Deliver =
      std::function<void(const M& msg, const std::vector<std::uint32_t>& eps)>;

  /// A fan-out whose loss/delay draws read `clock` and whose batch events
  /// run on `events`. They differ only for the sharded engine's root-hosted
  /// feedback group, whose sends replay on a carrier clock.
  FanOut(sim::Simulator& clock, sim::Simulator& events, Deliver deliver)
      : channel_(clock), events_(&events), deliver_(std::move(deliver)) {}
  FanOut(sim::Simulator& sim, Deliver deliver)
      : FanOut(sim, sim, std::move(deliver)) {}

  FanOut(const FanOut&) = delete;
  FanOut& operator=(const FanOut&) = delete;

  /// Adds an endpoint (allowed mid-run) and returns its index.
  std::size_t add_endpoint(std::unique_ptr<net::LossModel> loss,
                           std::unique_ptr<net::DelayModel> delay) {
    const auto ep = static_cast<std::uint32_t>(channel_.receiver_count());
    return channel_.add_send_time_receiver(
        std::move(loss), std::move(delay),
        [this, ep](const M& /*msg*/, sim::SimTime arrival) {
          staged_.push_back(Staged{arrival, ep});
        });
  }

  /// Transmits `msg` toward every enabled endpoint and schedules its
  /// batches.
  void send(const M& msg, sim::Bytes size) {
    staged_.clear();
    channel_.send(msg, size);
    if (staged_.empty()) return;
    // Endpoint order is staging order; a stable sort by instant keeps it
    // inside each instant. Fixed delays stage one instant and skip it.
    const bool one_instant =
        std::all_of(staged_.begin(), staged_.end(), [&](const Staged& s) {
          return s.arrival == staged_.front().arrival;
        });
    if (!one_instant) {
      std::stable_sort(staged_.begin(), staged_.end(),
                       [](const Staged& a, const Staged& b) {
                         return a.arrival < b.arrival;
                       });
    }
    for (std::size_t i = 0; i < staged_.size();) {
      const sim::SimTime arrival = staged_[i].arrival;
      const std::uint32_t slot = acquire(msg);
      std::vector<std::uint32_t>& eps = pool_[slot]->eps;
      for (; i < staged_.size() && staged_[i].arrival == arrival; ++i) {
        eps.push_back(staged_[i].ep);
      }
      events_->at(arrival, [this, slot] { fire(slot); });
    }
  }

  [[nodiscard]] const net::Channel<M>& channel() const { return channel_; }
  /// A disabled endpoint draws nothing and is reached by no later send;
  /// batches already in flight still deliver to it.
  void set_endpoint_enabled(std::size_t ep, bool enabled) {
    channel_.set_receiver_enabled(ep, enabled);
  }

 private:
  struct Staged {
    sim::SimTime arrival;
    std::uint32_t ep;
  };
  struct Batch {
    M msg;
    std::vector<std::uint32_t> eps;
  };

  std::uint32_t acquire(const M& msg) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(std::make_unique<Batch>(Batch{msg, {}}));
    } else {
      slot = free_.back();
      free_.pop_back();
      pool_[slot]->msg = msg;
    }
    return slot;
  }

  void fire(std::uint32_t slot) {
    // Batches live on the heap: handlers may send on this fan-out again,
    // which may grow the pool, and must not move the batch being delivered.
    Batch& b = *pool_[slot];
    deliver_(b.msg, b.eps);
    b.eps.clear();
    free_.push_back(slot);
  }

  net::Channel<M> channel_;
  sim::Simulator* events_;
  Deliver deliver_;
  std::vector<Staged> staged_;  // the current send's (arrival, endpoint)
  std::vector<std::unique_ptr<Batch>> pool_;  // in flight or free
  std::vector<std::uint32_t> free_;
};

}  // namespace sst::core

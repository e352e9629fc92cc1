// link.hpp — rate-limited FIFO link with a drop-tail queue.
//
// Models a transmission line of capacity C bits/sec: messages queue while the
// line is busy, each occupies the line for size/C seconds, and arrivals that
// find the queue full are dropped at the tail. This is the "single server
// queue" of the paper's Section 3 model when placed in front of a lossy
// channel, and the shared bottleneck for multi-flow SSTP topologies.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <utility>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "sim/units.hpp"

namespace sst::net {

/// Counters accumulated by a link.
struct LinkStats {
  std::uint64_t enqueued = 0;
  std::uint64_t served = 0;
  std::uint64_t tail_dropped = 0;
  double busy_time = 0.0;  // total seconds the server was transmitting

  [[nodiscard]] double utilization(sim::SimTime elapsed) const {
    return elapsed > 0 ? busy_time / elapsed : 0.0;
  }
};

/// FIFO rate-limited link carrying messages of type M.
template <class M>
class Link {
 public:
  using Handler = std::function<void(const M&, sim::Bytes)>;

  /// `rate` is the service capacity in bits/sec; `queue_limit` bounds the
  /// number of queued (not in service) messages, default unbounded as in the
  /// paper ("sufficient buffer space to hold all arriving announcements").
  Link(sim::Simulator& sim, sim::Rate rate, Handler sink,
       std::size_t queue_limit = std::numeric_limits<std::size_t>::max())
      : rate_(rate),
        queue_limit_(queue_limit),
        sink_(std::move(sink)),
        service_timer_(sim) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Offers a message to the link. Returns false on tail drop.
  bool send(M msg, sim::Bytes size) {
    // The head of queue_ is the message in service; the limit applies to
    // waiting messages only.
    const std::size_t waiting = queue_.size() - (busy_ ? 1 : 0);
    if (waiting >= queue_limit_) {
      ++stats_.tail_dropped;
      return false;
    }
    queue_.push_back(Item{std::move(msg), size});
    ++stats_.enqueued;
    if (!busy_) start_service();
    return true;
  }

  /// Changes the link capacity; takes effect for the next message that
  /// begins service (the in-flight message keeps its departure time).
  void set_rate(sim::Rate rate) { rate_ = rate; }

  [[nodiscard]] sim::Rate rate() const { return rate_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] const LinkStats& stats() const { return stats_; }

 private:
  struct Item {
    M msg;
    sim::Bytes size;
  };

  void start_service() {
    busy_ = true;
    const Item& front = queue_.front();
    const sim::Duration t = sim::transmission_time(front.size, rate_);
    stats_.busy_time += t;
    service_timer_.arm(t, [this] { complete_service(); });
  }

  void complete_service() {
    Item item = std::move(queue_.front());
    queue_.pop_front();
    ++stats_.served;
    busy_ = false;
    if (!queue_.empty()) start_service();
    sink_(item.msg, item.size);
  }

  sim::Rate rate_;
  std::size_t queue_limit_;
  Handler sink_;
  std::deque<Item> queue_;
  bool busy_ = false;
  LinkStats stats_;
  sim::Timer service_timer_;
};

}  // namespace sst::net

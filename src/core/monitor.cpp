#include "core/monitor.hpp"

#include <utility>

namespace sst::core {

ConsistencyIntegral::ConsistencyIntegral(
    std::vector<ConsistencyMonitor*> monitors, sim::SimTime start)
    : monitors_(std::move(monitors)), seg_start_(start), reset_at_(start) {}

std::size_t ConsistencyIntegral::attach(ConsistencyMonitor& monitor,
                                        ReceiverTable& recv) {
  close_segment(monitor.sim_->now());
  return monitor.attach(recv);
}

void ConsistencyIntegral::detach(ConsistencyMonitor& monitor, std::size_t r) {
  if (!monitor.active(r)) return;
  close_segment(monitor.sim_->now());
  monitor.detach(r);
}

double ConsistencyIntegral::integral(sim::SimTime now) {
  return closed_.value() + open_segment(now);
}

double ConsistencyIntegral::average(sim::SimTime now) {
  if (!(now > reset_at_)) return instantaneous();
  return integral(now) / (now - reset_at_);
}

double ConsistencyIntegral::open_segment(sim::SimTime now) {
  const std::size_t active = active_receivers();
  if (active == 0) {
    // Vacuous consistency: c(t) = 1 while nobody is attached.
    return now - seg_start_;
  }
  stats::CompensatedSum sum;
  std::size_t pos = 0;
  for (ConsistencyMonitor* m : monitors_) {
    for (auto& rv : m->receivers_) {
      const double ckpt = pos < ckpt_.size() ? ckpt_[pos] : 0.0;
      ++pos;
      if (!rv.active) continue;
      rv.avg.advance(now);
      sum.add(rv.avg.integral() - ckpt);
    }
  }
  return sum.value() / static_cast<double>(active);
}

void ConsistencyIntegral::close_segment(sim::SimTime now) {
  // Every active integral already stands at seg_start_: the segment would
  // add +0.0 and rewrite the checkpoints to their current values. Returning
  // keeps same-instant joins (all of construction) O(1) instead of O(R).
  if (now == seg_start_) return;
  closed_.add(open_segment(now));
  seg_start_ = now;
  std::size_t pos = 0;
  for (const ConsistencyMonitor* m : monitors_) {
    ckpt_.resize(pos + m->receivers_.size(), 0.0);
    for (const auto& rv : m->receivers_) {
      if (rv.active) ckpt_[pos] = rv.avg.integral();
      ++pos;
    }
  }
}

void ConsistencyIntegral::reset(sim::SimTime now) {
  for (ConsistencyMonitor* m : monitors_) m->reset_stats();
  closed_.reset();
  ckpt_.clear();
  seg_start_ = now;
  reset_at_ = now;
}

double ConsistencyIntegral::instantaneous() const {
  // Every monitor mirrors the same live set.
  const std::size_t live = monitors_.front()->live_.size();
  if (live == 0) return 1.0;
  double sum = 0.0;
  for (const ConsistencyMonitor* m : monitors_) {
    for (const auto& rv : m->receivers_) {
      if (!rv.active) continue;
      sum += static_cast<double>(rv.consistent.size()) /
             static_cast<double>(live);
    }
  }
  const std::size_t active = active_receivers();
  if (active == 0) return 1.0;
  return sum / static_cast<double>(active);
}

std::size_t ConsistencyIntegral::active_receivers() const {
  std::size_t active = 0;
  for (const ConsistencyMonitor* m : monitors_) active += m->active_count_;
  return active;
}

stats::Samples ConsistencyIntegral::latency() const {
  stats::Samples out;
  for (const ConsistencyMonitor* m : monitors_) {
    for (const auto& rv : m->receivers_) {
      for (const double x : rv.latency) out.add(x);
    }
  }
  return out;
}

ConsistencyMonitor::ConsistencyMonitor(sim::Simulator& sim,
                                       PublisherTable& pub)
    : ConsistencyMonitor(sim) {
  pub.subscribe([this](const Record& rec, ChangeKind kind) {
    apply_publisher_change(rec, kind);
  });
}

ConsistencyMonitor::ConsistencyMonitor(sim::Simulator& sim) : sim_(&sim) {}

std::size_t ConsistencyMonitor::attach(ReceiverTable& recv) {
  const sim::SimTime now = sim_->now();
  const std::size_t r = receivers_.size();
  ReceiverView view;
  view.table = &recv;
  view.joined_at = now;
  view.attach_serial = intro_serial_;
  // c_r starts at the vacuous 1.0 for an empty live set, else 0 (the joiner
  // holds nothing yet).
  view.avg = stats::TimeAverage(now, live_.empty() ? 1.0 : 0.0);
  receivers_.push_back(std::move(view));
  ++active_count_;
  recv.on_refresh([this, r](Key key, Version version, bool, bool) {
    on_receiver_refresh(r, key, version);
  });
  recv.on_expire([this, r](Key key, Version) { on_receiver_expire(r, key); });
  // A receiver joining an (effectively) empty session is caught up at once
  // with zero latency — in particular every construction-time receiver.
  check_catch_up(r, now);
  return r;
}

void ConsistencyMonitor::detach(std::size_t r) {
  auto& rv = receivers_.at(r);
  rv.active = false;
  rv.catching_up = false;
  --active_count_;
}

double ConsistencyMonitor::receiver_consistency(std::size_t r) const {
  const std::size_t live = live_.size();
  if (live == 0) return 1.0;
  return static_cast<double>(receivers_.at(r).consistent.size()) /
         static_cast<double>(live);
}

void ConsistencyMonitor::reset_stats() {
  const sim::SimTime now = sim_->now();
  for (auto& rv : receivers_) {
    if (rv.active) rv.avg.reset(now);
    rv.latency.clear();
  }
  versions_introduced_ = 0;
  versions_received_ = 0;
}

void ConsistencyMonitor::touch_all(sim::SimTime now) {
  for (std::size_t r = 0; r < receivers_.size(); ++r) {
    auto& rv = receivers_[r];
    if (!rv.active) continue;
    rv.avg.update(now, receiver_consistency(r));
    check_catch_up(r, now);
  }
}

void ConsistencyMonitor::check_catch_up(std::size_t r, sim::SimTime now) {
  auto& rv = receivers_[r];
  if (!rv.active || !rv.catching_up) return;
  if (receiver_consistency(r) >= kCatchUpThreshold) {
    rv.catching_up = false;
    rv.catch_up_latency = now - rv.joined_at;
  }
}

void ConsistencyMonitor::apply_publisher_change(const Record& rec,
                                                ChangeKind kind) {
  const sim::SimTime now = sim_->now();
  switch (kind) {
    case ChangeKind::kInsert:
    case ChangeKind::kUpdate: {
      if (kind == ChangeKind::kUpdate) {
        // A receiver holding the old version is no longer consistent.
        for (auto& rv : receivers_) {
          if (!rv.active) continue;
          const auto* e = rv.table->find(rec.key);
          if (e == nullptr || e->version != rec.version) {
            rv.consistent.erase(rec.key);
          }
        }
      }
      auto& lr = live_[rec.key];
      lr.version = rec.version;
      lr.introduced_at = now;
      lr.serial = ++intro_serial_;
      ++versions_introduced_;
      break;
    }
    case ChangeKind::kRemove: {
      live_.erase(rec.key);
      for (auto& rv : receivers_) {
        rv.consistent.erase(rec.key);
        rv.counted.erase(rec.key);
      }
      break;
    }
  }
  touch_all(now);
}

void ConsistencyMonitor::on_receiver_refresh(std::size_t r, Key key,
                                             Version version) {
  auto& rv = receivers_[r];
  if (!rv.active) return;
  const sim::SimTime now = sim_->now();
  const auto live_it = live_.find(key);
  const bool matches =
      live_it != live_.end() && live_it->second.version == version;
  if (matches) {
    rv.consistent.insert(key);
    // First-receipt latency for this (key, version) at this receiver. Late
    // joiners (attached at or after introduction) don't count toward
    // T_recv: the version predates them.
    if (live_it->second.serial > rv.attach_serial) {
      const auto counted_it = rv.counted.find(key);
      if (counted_it == rv.counted.end() || counted_it->second < version) {
        rv.counted[key] = version;
        rv.latency.push_back(now - live_it->second.introduced_at);
        ++versions_received_;
      }
    }
  } else {
    rv.consistent.erase(key);
  }
  rv.avg.update(now, receiver_consistency(r));
  check_catch_up(r, now);
}

void ConsistencyMonitor::on_receiver_expire(std::size_t r, Key key) {
  auto& rv = receivers_[r];
  if (!rv.active) return;
  rv.consistent.erase(key);
  rv.avg.update(sim_->now(), receiver_consistency(r));
  check_catch_up(r, sim_->now());
}

}  // namespace sst::core

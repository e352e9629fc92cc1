#include "core/receiver.hpp"

#include <algorithm>
#include <cmath>

namespace sst::core {

ReceiverAgent::ReceiverAgent(sim::Simulator& sim, ReceiverTable& table,
                             ReceiverConfig config,
                             std::function<void(const NackMsg&)> send_nack,
                             sim::Rng rng)
    : sim_(&sim),
      table_(&table),
      config_(config),
      send_nack_(std::move(send_nack)),
      rng_(rng),
      scanner_(sim) {}

void ReceiverAgent::stop() {
  stopped_ = true;
  missing_.clear();
  scanner_.stop();
}

void ReceiverAgent::handle(const DataMsg& msg) {
  if (stopped_) return;
  ++stats_.data_rx;
  if (msg.is_repair) ++stats_.repairs_rx;

  if (config_.feedback) {
    if (msg.is_repair) repair_received(msg.repairs_seq);
    // Any copy of a record supersedes its previous transmission: if that
    // previous transmission is an outstanding loss, stop requesting it.
    if (msg.has_prev) repair_received(msg.prev_seq);

    if (msg.seq >= next_expected_) {
      // Gap: seqs [next_expected_, msg.seq) were lost (FIFO sender, ordered
      // channel) or are still in flight (jittered channel; a late arrival is
      // handled in the branch below and cancels the NACK state).
      // Every outstanding loss lies below next_expected_, so each of these
      // seqs is new.
      std::vector<std::uint64_t> fresh;
      for (std::uint64_t s = next_expected_; s < msg.seq; ++s) {
        note_missing(s);
        if (config_.nack_slot_max <= 0) {
          fresh.push_back(s);
          if (fresh.size() >= config_.max_batch) {
            send_nack_for(fresh);
            fresh.clear();
          }
        }
      }
      if (!fresh.empty()) send_nack_for(fresh);
      next_expected_ = msg.seq + 1;
    } else {
      // Late / reordered arrival: it was not lost after all.
      repair_received(msg.seq);
    }
  }

  table_->refresh(msg.key, msg.version);
}

void ReceiverAgent::note_missing(std::uint64_t seq) {
  ++stats_.gaps_detected;
  Missing m;
  m.seq = seq;
  m.retries = 0;
  m.last_nacked = sim_->now();
  if (config_.nack_slot_max <= 0) {
    // Unicast mode: the caller sends the batched NACK right away.
    m.requested = true;
  } else {
    // Multicast slotting: wait a random slot; an overheard NACK for the
    // same seq suppresses ours.
    m.requested = false;
    const sim::Duration slot = rng_.uniform() * config_.nack_slot_max;
    sim_->after(slot, [this, seq] { slot_fire(seq); });
  }
  missing_.push_back(m);
  if (!scanner_.running() && config_.retry_timeout > 0) {
    scanner_.start(config_.retry_timeout, [this] { scan_retries(); });
  }
}

ReceiverAgent::Missing* ReceiverAgent::find_missing(std::uint64_t seq) {
  // O(1) out for a seq outside [oldest, newest]: a receiver with no loss
  // near the one an overheard NACK names skips the search.
  if (missing_.empty() || seq < missing_.front().seq ||
      seq > missing_.back().seq) {
    return nullptr;
  }
  const auto it = std::lower_bound(
      missing_.begin(), missing_.end(), seq,
      [](const Missing& m, std::uint64_t s) { return m.seq < s; });
  return it != missing_.end() && it->seq == seq ? &*it : nullptr;
}

void ReceiverAgent::slot_fire(std::uint64_t seq) {
  Missing* m = find_missing(seq);
  if (m == nullptr) return;  // repaired in the meantime
  if (m->requested) return;  // damped by an overheard NACK
  m->requested = true;
  m->last_nacked = sim_->now();
  send_nack_for({seq});
}

void ReceiverAgent::observe_nack(const NackMsg& nack) {
  if (stopped_ || missing_.empty()) return;
  for (const std::uint64_t seq : nack.missing_seqs) {
    Missing* m = find_missing(seq);
    if (m == nullptr) continue;
    if (!m->requested) ++stats_.suppressed;
    // The overheard request stands in for ours: damp the slot send and push
    // our retry clock back.
    m->requested = true;
    m->last_nacked = sim_->now();
  }
}

void ReceiverAgent::repair_received(std::uint64_t seq) {
  if (const Missing* m = find_missing(seq)) {
    missing_.erase(missing_.begin() + (m - missing_.data()));
  }
  if (missing_.empty()) scanner_.stop();
}

void ReceiverAgent::send_nack_for(const std::vector<std::uint64_t>& seqs) {
  if (seqs.empty()) return;
  NackMsg nack;
  nack.missing_seqs = seqs;
  nack.size = config_.nack_size;
  ++stats_.nacks_sent;
  send_nack_(nack);
}

void ReceiverAgent::scan_retries() {
  // Batch every overdue loss into as few NACK packets as possible. A loss is
  // overdue when it has gone retry_timeout * backoff^retries without being
  // re-requested; after max_retries it is abandoned to the cold cycle.
  // Abandoned losses are dropped by compacting the kept ones forward.
  std::vector<std::uint64_t> batch;
  const sim::SimTime now = sim_->now();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < missing_.size(); ++i) {
    Missing& m = missing_[i];
    const double threshold =
        config_.retry_timeout * std::pow(config_.retry_backoff, m.retries);
    if (now - m.last_nacked + 1e-9 >= threshold) {
      if (m.retries >= config_.max_retries) {
        ++stats_.abandoned;
        continue;
      }
      ++m.retries;
      ++stats_.retries;
      m.last_nacked = now;
      m.requested = true;
      batch.push_back(m.seq);
      if (batch.size() >= config_.max_batch) {
        send_nack_for(batch);
        batch.clear();
      }
    }
    missing_[kept++] = m;
  }
  missing_.resize(kept);
  if (!batch.empty()) send_nack_for(batch);
  if (missing_.empty()) scanner_.stop();
}

}  // namespace sst::core

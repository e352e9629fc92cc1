// receiver.hpp — the subscriber agent (paper Sections 2 and 5).
//
// Applies announcements to the receiver table and, when feedback is enabled,
// detects losses from per-sender sequence-number gaps and emits NACKs naming
// the missing transmissions. Unrepaired losses are re-requested by a
// periodic scanner that batches every overdue loss into as few NACK packets
// as possible (SRM-style request aggregation) with per-loss exponential
// backoff, until repaired or abandoned — the cold cycle eventually recovers
// abandoned items; feedback is an accelerator, not a correctness
// requirement.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/messages.hpp"
#include "core/table.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "sim/units.hpp"

namespace sst::core {

/// Receiver-side feedback configuration.
struct ReceiverConfig {
  bool feedback = false;
  sim::Bytes nack_size = 1000;   // wire size of one NACK packet
  sim::Duration retry_timeout = 2.0;  // base re-NACK age; also scanner period
  double retry_backoff = 2.0;         // age threshold multiplier per retry
  int max_retries = 4;                // further losses left to the cold cycle
  std::size_t max_batch = 64;         // missing seqs per NACK packet
  /// Multicast feedback management (SRM-style slotting and damping, paper
  /// Section 6): delay each first NACK by U(0, nack_slot_max) and suppress
  /// it if another receiver's NACK for the same loss is overheard first.
  /// 0 sends immediately (the unicast setting).
  sim::Duration nack_slot_max = 0.0;
};

/// Greatest lower bound of the extra latency the slotting schedule imposes
/// between a receiver observing a loss and its NACK entering the feedback
/// path. The sharded engine's damping-aware lookahead is
///     W = delay + nack_slot_floor(cfg.receiver)
/// and this function is the single place the bound is derived from the
/// protocol: the slot is drawn U(0, nack_slot_max), whose infimum is 0 for
/// every nack_slot_max > 0, and the degenerate nack_slot_max == 0 case
/// sends the NACK immediately (note_missing skips the slot timer entirely).
/// Either way the safe floor is exactly 0 — a NACK can leave in the same
/// instant the loss is detected — so today the bound adds nothing to
/// `delay`; a future deterministic minimum-slot schedule (e.g. SRM's
/// C1*d_S,r term with C1 > 0) would raise it here and the epoch timetable
/// would widen automatically.
[[nodiscard]] constexpr sim::Duration nack_slot_floor(
    const ReceiverConfig& /*config*/) {
  return 0.0;
}

/// Counters a receiver accumulates.
struct ReceiverStats {
  std::uint64_t data_rx = 0;
  std::uint64_t repairs_rx = 0;
  std::uint64_t gaps_detected = 0;   // individual missing seqs observed
  std::uint64_t nacks_sent = 0;      // NACK packets emitted
  std::uint64_t retries = 0;         // re-NACKed seqs after timeout
  std::uint64_t abandoned = 0;       // losses given up after max_retries
  std::uint64_t suppressed = 0;      // NACKs damped by overheard duplicates
};

/// Subscriber protocol agent.
class ReceiverAgent {
 public:
  /// `send_nack` forwards a NACK into the reverse (feedback) path.
  /// `rng` drives NACK slotting; callers fork it from the experiment seed
  /// (no default — a hidden fixed seed would hand every agent the same
  /// stream).
  ReceiverAgent(sim::Simulator& sim, ReceiverTable& table,
                ReceiverConfig config,
                std::function<void(const NackMsg&)> send_nack,
                sim::Rng rng);

  ReceiverAgent(const ReceiverAgent&) = delete;
  ReceiverAgent& operator=(const ReceiverAgent&) = delete;

  /// Entry point for announcements arriving from the data channel.
  void handle(const DataMsg& msg);

  /// Another group member's NACK overheard on the multicast feedback
  /// channel: any matching loss we have not yet requested (or were about to
  /// re-request) is damped — the overheard request stands in for ours.
  void observe_nack(const NackMsg& nack);

  /// Receiver leave: quiesces the agent for good. Outstanding losses are
  /// forgotten, the retry scanner stops, and later handle()/observe_nack()
  /// calls (packets already in flight) are ignored.
  void stop();

  [[nodiscard]] const ReceiverStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t outstanding_losses() const {
    return missing_.size();
  }

 private:
  struct Missing {
    std::uint64_t seq = 0;
    int retries = 0;
    sim::SimTime last_nacked = 0;
    bool requested = false;  // we (or an overheard peer) asked for it
  };

  /// The outstanding loss `seq`, or null.
  Missing* find_missing(std::uint64_t seq);
  void note_missing(std::uint64_t seq);
  void slot_fire(std::uint64_t seq);
  void repair_received(std::uint64_t seq);
  void send_nack_for(const std::vector<std::uint64_t>& seqs);
  void scan_retries();

  sim::Simulator* sim_;
  ReceiverTable* table_;
  ReceiverConfig config_;
  std::function<void(const NackMsg&)> send_nack_;
  sim::Rng rng_;

  bool stopped_ = false;
  std::uint64_t next_expected_ = 0;
  // Outstanding losses, ascending by seq. Every new gap lies at or past
  // next_expected_, above every seq already here, so inserts append.
  std::vector<Missing> missing_;
  sim::PeriodicTimer scanner_;
  ReceiverStats stats_;
};

}  // namespace sst::core

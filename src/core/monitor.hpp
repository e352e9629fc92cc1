// monitor.hpp — the consistency metric c(k,t), c(t), E[c(t)] and the receive
// latency T_recv (paper Section 2.1).
//
// Two classes, one job each. ConsistencyMonitor is a per-receiver mirror: a
// simulation-side oracle that observes the publisher table and every
// receiver table through their listener hooks and maintains, at all times,
// the live set, each receiver's consistent set (same version <=> same
// value), its own signal
//     c_r(t) = |consistent_r(t)| / |L(t)|                  (1 if L empty)
// as an exact time average, its first-receipt latency samples and its
// catch-up state. It computes no aggregate.
//
// ConsistencyIntegral is the one owner of the aggregates, reduced over an
// ordered sequence of monitors: the instantaneous system consistency
//     c(t) = (1/R) * sum_r c_r(t)                          (1 if R = 0)
// its integral ∫ c dt = (1/A) * sum_r ∫ c_r dt over the active set A
// (CompensatedSum in receiver-index order at query time), E[c(t)] as the
// integral over the time since the last reset, the active count and the
// merged latency samples. c(t) is piecewise constant, so the average is
// exact. Membership changes go through the integral: it closes the current
// segment (A is constant within one) and then attaches or detaches the
// receiver at the monitor, so each segment averages over exactly the
// receivers attached during it.
//
// The decomposition is what makes the sharded engine possible: each shard
// owns a monitor over its receivers, publisher changes are broadcast
// through the epoch log, and the engine's one ConsistencyIntegral reduces
// over the shard monitors in index order — the same code, terms and
// rounding as the single-queue engine's integral over its one monitor (see
// DESIGN.md, "Sharded engine"). It is also the single biggest serial win at
// scale: a receiver event costs O(1), not O(R).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/record.hpp"
#include "core/table.hpp"
#include "sim/simulator.hpp"
#include "stats/compensated.hpp"
#include "stats/histogram.hpp"
#include "stats/time_average.hpp"

namespace sst::core {

class ConsistencyMonitor;

/// The segmented E[c] accumulator and the only reader of aggregates,
/// reduced over an ordered sequence of monitors: the single-queue engine's
/// one monitor, or the sharded engine's shard monitors in index order
/// (contiguous receiver blocks, so the sequence visits receivers in global
/// index order). closed_ holds ∫c dt over finished segments (membership
/// constant within each); the open segment is reduced from the per-receiver
/// integrals minus their checkpoints, with one CompensatedSum in sequence
/// order and the divide by the active count after the sum.
class ConsistencyIntegral {
 public:
  ConsistencyIntegral(std::vector<ConsistencyMonitor*> monitors,
                      sim::SimTime start);

  ConsistencyIntegral(const ConsistencyIntegral&) = delete;
  ConsistencyIntegral& operator=(const ConsistencyIntegral&) = delete;

  /// Attaches `recv` to `monitor` (one of the sequence; the last one for a
  /// mid-run joiner) at the monitor's clock, closing the segment first: the
  /// active count jumps. Returns the receiver's index in `monitor`.
  std::size_t attach(ConsistencyMonitor& monitor, ReceiverTable& recv);
  /// Detaches receiver `r` of `monitor` the same way (no-op if it already
  /// left).
  void detach(ConsistencyMonitor& monitor, std::size_t r);

  /// ∫c dt from the last reset to `now` (advances the active receivers).
  [[nodiscard]] double integral(sim::SimTime now);
  /// E[c(t)] from the last reset to `now`; c(t) itself for an empty window.
  [[nodiscard]] double average(sim::SimTime now);
  /// Discards the statistics of every monitor and restarts at `now` (the
  /// warm-up cutoff). Live-set and consistency state are preserved.
  void reset(sim::SimTime now);

  /// c(t) over the active receivers of every monitor.
  [[nodiscard]] double instantaneous() const;
  [[nodiscard]] std::size_t active_receivers() const;
  /// Receive-latency samples since the last reset: time from a (key,
  /// version) entering the system to its FIRST receipt at each receiver,
  /// over successful deliveries only (the paper's T_recv). Merged
  /// receiver-major in sequence order, the insertion order the mean's
  /// compensated sum depends on.
  [[nodiscard]] stats::Samples latency() const;

 private:
  /// Folds the open segment into closed_ and starts a new one at `now`.
  /// A zero-width segment adds nothing and moves no checkpoint.
  void close_segment(sim::SimTime now);
  double open_segment(sim::SimTime now);

  std::vector<ConsistencyMonitor*> monitors_;
  stats::CompensatedSum closed_;
  // ∫c_r dt at the open segment's start, by receiver position in sequence
  // order; receivers past the end joined after the last close and start
  // from a zero integral.
  std::vector<double> ckpt_;
  sim::SimTime seg_start_;
  sim::SimTime reset_at_;
};

/// Per-receiver mirror of one publisher and any number of receivers.
/// Construct it BEFORE the workload starts so it observes every record from
/// birth. Receivers attach and detach through a ConsistencyIntegral over
/// this monitor (late join, leave/churn); every mid-run joiner's catch-up
/// latency — time from attach until its own consistency first reaches the
/// catch-up threshold — is recorded.
///
/// Ownership (check/annotate.hpp): the class itself carries no capability
/// attributes because the same type serves both engines — in the
/// single-queue engine there are no roles at all. In the sharded engine
/// each instance is SST_SHARD_LOCAL state, guarded at its owning site
/// (core::Shard::monitor): the owning worker drives it during epochs, and
/// the coordinator adopts the shard role between barriers for the
/// cross-shard ConsistencyIntegral reductions.
class ConsistencyMonitor {
 public:
  ConsistencyMonitor(sim::Simulator& sim, PublisherTable& pub);

  /// Shard-mode constructor: no publisher table on this side of the shard
  /// boundary. The shard coordinator replays publisher changes in epoch-log
  /// order through apply_publisher_change(), which keeps every shard's
  /// live-set mirror bit-identical to the root's publisher table.
  explicit ConsistencyMonitor(sim::Simulator& sim);

  ConsistencyMonitor(const ConsistencyMonitor&) = delete;
  ConsistencyMonitor& operator=(const ConsistencyMonitor&) = delete;

  /// True while receiver `r` is attached.
  [[nodiscard]] bool active(std::size_t r) const {
    return receivers_.at(r).active;
  }

  /// Receiver r's own consistency c_r: fraction of live records it holds at
  /// the current version (1.0 for an empty live set).
  [[nodiscard]] double receiver_consistency(std::size_t r) const;

  /// Catch-up latency of receiver `r`: seconds from attach until its own
  /// consistency first reached kCatchUpThreshold; negative while still
  /// catching up.
  [[nodiscard]] double catch_up_latency(std::size_t r) const {
    return receivers_.at(r).catch_up_latency;
  }

  /// Number of (key,version) pairs introduced / first-received since the last
  /// reset.
  [[nodiscard]] std::uint64_t versions_introduced() const {
    return versions_introduced_;
  }
  [[nodiscard]] std::uint64_t versions_received() const {
    return versions_received_;
  }

  /// Replays one publisher change into the live-set mirror. The subscribing
  /// constructor wires this to PublisherTable::subscribe; shard workers call
  /// it directly in epoch-log order. Nothing here is thread-aware — all
  /// cross-thread ordering is the shard coordinator's barrier protocol.
  void apply_publisher_change(const Record& rec, ChangeKind kind);

 private:
  friend class ConsistencyIntegral;

  /// Own consistency a joiner must reach to count as caught up.
  static constexpr double kCatchUpThreshold = 0.9;

  // Membership and the warm-up reset, reached only through the
  // ConsistencyIntegral that reduces over this monitor (it closes its
  // segment first). attach returns the receiver's index; mid-run joiners
  // start with an empty consistent set. A detached receiver stops counting
  // toward c(t) and its callbacks are ignored; indices are never reused.
  std::size_t attach(ReceiverTable& recv);
  void detach(std::size_t r);
  /// Restarts every receiver's average and latency samples at the clock.
  void reset_stats();

  struct LiveRec {
    Version version = 0;
    sim::SimTime introduced_at = 0.0;
    // Monotone introduction serial: receiver r counts a first receipt toward
    // T_recv only when the version was introduced strictly after r attached
    // (serial > attach_serial), the same late-joiner rule the previous
    // received-bitmap representation enforced by snapshotting the receiver
    // count at introduction time.
    std::uint64_t serial = 0;
  };

  struct ReceiverView {
    ReceiverTable* table = nullptr;
    std::unordered_set<Key> consistent;  // live keys held at current version
    // Highest version of each key already counted toward T_recv, so TTL
    // expiry + re-receipt of the same version is not double-counted.
    std::unordered_map<Key, Version> counted;
    stats::TimeAverage avg;        // time average of c_r(t)
    std::vector<double> latency;   // first-receipt samples, receipt order
    std::uint64_t attach_serial = 0;
    bool active = true;
    bool catching_up = true;       // not yet reached the threshold
    sim::SimTime joined_at = 0.0;
    double catch_up_latency = -1.0;  // <0 until caught up
  };

  void on_receiver_refresh(std::size_t r, Key key, Version version);
  void on_receiver_expire(std::size_t r, Key key);
  void check_catch_up(std::size_t r, sim::SimTime now);
  /// Advances + re-values every active receiver (publisher changes move
  /// every c_r at once because |L| changes).
  void touch_all(sim::SimTime now);

  sim::Simulator* sim_;
  std::vector<ReceiverView> receivers_;

  // Live records and their current versions, mirrored from the publisher.
  std::unordered_map<Key, LiveRec> live_;
  std::uint64_t intro_serial_ = 0;

  std::size_t active_count_ = 0;

  std::uint64_t versions_introduced_ = 0;
  std::uint64_t versions_received_ = 0;
};

}  // namespace sst::core

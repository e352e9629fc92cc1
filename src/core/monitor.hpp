// monitor.hpp — the consistency metric c(k,t), c(t), E[c(t)] and the receive
// latency T_recv (paper Section 2.1).
//
// The monitor is a simulation-side oracle: it observes the publisher table
// and every receiver table through their listener hooks and maintains, at all
// times, the number of live records and the number of them each receiver
// holds consistently (same version <=> same value). The instantaneous system
// consistency is
//     c(t) = (1/R) * sum_r |consistent_r(t)| / |L(t)|     (c(t)=1 if L empty)
// and E[c(t)] is its exact time average, accumulated event-by-event because
// c(t) is piecewise constant.
//
// Decomposed form (sharded engine). c(t) is a sum of per-receiver signals
// c_r(t) = |consistent_r(t)| / |L(t)| that change only at (a) that receiver's
// own refresh/expire events and (b) publisher changes. The monitor therefore
// keeps one TimeAverage per receiver and reduces
//     ∫ c dt = (1/A) * sum_r ∫ c_r dt
// over the active set in receiver-index order with a CompensatedSum at query
// time. Dynamic membership closes the current segment (the active set A is
// constant within a segment) so mid-run join/leave keeps the exact legacy
// semantics. The decomposition is what makes the sharded engine possible:
// each shard owns a monitor over its receivers, publisher changes are
// broadcast through the epoch log, and one ConsistencyIntegral reduces over
// the shard monitors in index order — the same code, terms and rounding as
// a single monitor's reduction over itself (see DESIGN.md, "Sharded
// engine"). It is also the single biggest serial win at scale: a receiver
// event costs O(1), not O(R).
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

/// The segmented E[c] accumulator, reduced over an ordered sequence of
/// monitors: a single monitor over itself, or the sharded engine's shard
/// monitors in index order (contiguous receiver blocks, so the sequence
/// visits receivers in global index order). closed_ holds ∫c dt over
/// finished segments (membership constant within each); the open segment
/// is reduced from the per-receiver integrals minus their checkpoints, with
/// one CompensatedSum in sequence order and the divide by the active count
/// after the sum. Receivers joining mid-run must append to the last monitor.
class ConsistencyIntegral {
 public:
  ConsistencyIntegral(std::vector<ConsistencyMonitor*> monitors,
                      sim::SimTime start);

  /// ∫c dt from the last reset to `now` (advances the active receivers).
  [[nodiscard]] double integral(sim::SimTime now);
  /// Folds the open segment into closed_ and starts a new one at `now`.
  /// Call at every membership change, before it: the active count jumps.
  void close_segment(sim::SimTime now);
  /// Restarts at `now`; call right after every monitor's reset_stats().
  void reset(sim::SimTime now);

  /// c(t) over the active receivers of every monitor.
  [[nodiscard]] double instantaneous() const;
  [[nodiscard]] std::size_t active_receivers() const;
  /// Appends every receiver's latency samples, receiver-major in sequence
  /// order (the insertion order the mean's compensated sum depends on).
  void merge_latency(stats::Samples& out) const;

 private:
  double open_segment(sim::SimTime now);

  std::vector<ConsistencyMonitor*> monitors_;
  stats::CompensatedSum closed_;
  // ∫c_r dt at the open segment's start, by receiver position in sequence
  // order; receivers past the end joined after the last close and start
  // from a zero integral.
  std::vector<double> ckpt_;
  sim::SimTime seg_start_;
};

/// Oracle measuring consistency and receive latency across one publisher and
/// any number of receivers. Construct it BEFORE the workload starts so it
/// observes every record from birth. Membership is dynamic: receivers may
/// attach (late join) and detach (leave/churn) mid-run; c(t) averages only
/// over currently-attached receivers, and every mid-run joiner's catch-up
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

  /// Attaches a receiver (at construction time or mid-run). Returns the
  /// receiver's index. Mid-run joiners start with an empty consistent set
  /// and converge purely from what they subsequently receive.
  std::size_t attach(ReceiverTable& recv);

  /// Detaches receiver `r` (receiver churn): it stops counting toward c(t)
  /// and its callbacks are ignored from now on. Indices are stable — other
  /// receivers keep theirs, and `r` is never reused.
  void detach(std::size_t r);

  /// True while receiver `r` is attached.
  [[nodiscard]] bool active(std::size_t r) const {
    return receivers_.at(r).active;
  }

  /// Number of currently-attached receivers.
  [[nodiscard]] std::size_t active_receivers() const { return active_count_; }

  /// Number of receivers ever attached (indices are stable, never reused).
  [[nodiscard]] std::size_t receiver_count() const {
    return receivers_.size();
  }

  /// Receiver r's own consistency: fraction of live records it holds at the
  /// current version (1.0 for an empty live set).
  [[nodiscard]] double receiver_consistency(std::size_t r) const;

  /// Threshold a joiner's own consistency must reach to count as caught up.
  void set_catch_up_threshold(double threshold) {
    catch_up_threshold_ = threshold;
  }

  /// Catch-up latency of receiver `r`: seconds from attach until its own
  /// consistency first reached the catch-up threshold; negative while still
  /// catching up.
  [[nodiscard]] double catch_up_latency(std::size_t r) const {
    return receivers_.at(r).catch_up_latency;
  }

  /// Discards statistics gathered so far (warm-up cutoff). Live-set and
  /// consistency state are preserved; only the averages restart.
  void reset_stats();

  /// Instantaneous system consistency c(t).
  [[nodiscard]] double instantaneous() const {
    return segments_.instantaneous();
  }

  /// Average system consistency E[c(t)] up to `now`.
  [[nodiscard]] double average_consistency();

  /// Integral of c(t) dt since the last reset; windowed averages (e.g. the
  /// Figure 8 time series) are computed by differencing this.
  [[nodiscard]] double consistency_integral();

  /// Receive-latency samples: time from a (key, version) entering the system
  /// to its FIRST receipt at each receiver, measured over successful
  /// deliveries only (as in the paper's T_recv). Samples are merged from the
  /// per-receiver streams in receiver-index order (deterministic, and the
  /// same order the shard coordinator uses for its global merge).
  [[nodiscard]] stats::Samples& latency();

  /// Number of live records right now.
  [[nodiscard]] std::size_t live_count() const { return live_.size(); }

  /// Number of (key,version) pairs introduced / first-received since the last
  /// reset_stats().
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

  double catch_up_threshold_ = 0.9;
  std::size_t catching_up_count_ = 0;  // receivers still converging
  std::size_t active_count_ = 0;

  ConsistencyIntegral segments_;  // over this monitor alone
  sim::SimTime reset_time_ = 0.0;

  stats::Samples merged_latency_;
  bool merged_dirty_ = true;
  std::uint64_t versions_introduced_ = 0;
  std::uint64_t versions_received_ = 0;
};

}  // namespace sst::core

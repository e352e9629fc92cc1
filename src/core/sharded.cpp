// sharded.cpp — the sharded conservative-lookahead engine (see sharded.hpp).
//
// Only the scheduling is this file's own: receivers, the sender side, the
// fault surface over a rig, and the result filling are the single-queue
// engine's code (core/rig_build.hpp). Bit-identity ground rules:
//   * Every RNG stream is root_.fork(tag, index) with the same tags and
//     GLOBAL receiver indices as Experiment — fork() is pure, so WHERE a
//     stream is consumed (root or shard) never changes its draws.
//   * Shards own contiguous receiver blocks, so visiting shards in index
//     order visits receivers in global index order; every cross-shard
//     reduction below (integral sums, latency merge, byte totals) walks that
//     order, reproducing the single monitor's arithmetic term for term.
//   * The root's epoch log replays publisher changes, transmissions, and
//     overheard group NACKs into each shard at the exact times the single
//     engine processed them; the fence/run_until recipe parks every clock
//     exactly on each boundary, so timestamped bookkeeping (TimeAverage
//     rectangles, reset times) rounds identically.
//   * Multicast feedback routes through a root-hosted group channel: shard
//     uplinks cross the mailbox lane, the coordinator replays each send on
//     the group at its exact send instant (a dedicated carrier clock), and
//     the overheard copies come back to the owning shards through the epoch
//     log — same streams, same draw order, same arithmetic as the single
//     engine's shared group.
//   * Fault hooks (crash, partition, churn, bandwidth) run in coordinator
//     context at fence-snapped barrier instants, where every clock is parked
//     exactly at the hook time — the same state the single engine exposes —
//     and dynamic membership goes through the one ConsistencyIntegral that
//     reduces over every shard monitor, which closes its E[c] segment.
#include "core/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/annotate.hpp"
#include "check/check.hpp"
#include "core/receiver.hpp"
#include "core/rig_build.hpp"
#include "net/loss.hpp"
#include "sim/shard.hpp"

namespace sst::core {

namespace {

/// One externally-visible root action, replayed by every shard in log order.
struct RootEvent {
  enum class Kind : std::uint8_t {
    kChange,  // publisher table change (monitor mirror + oracle removal)
    kData,    // transmission entering the forward data channel
    kProbe,   // redundancy oracle probe at sender transmit time
    kNack,    // group NACK overheard at one instant (multicast damping)
  };

  Kind kind = Kind::kChange;
  sim::SimTime time = 0.0;
  Record rec;                             // kChange payload
  ChangeKind change = ChangeKind::kInsert;
  DataMsg msg;                            // kData / kProbe payload
  sim::Bytes size = 0;                    // kData wire size
  NackMsg nack;                           // kNack payload
  std::vector<std::uint32_t> nack_recs;   // kNack: overhearing receivers
                                          // (global indices, ascending)
};

/// Everything one worker thread owns. Heap-allocated so addresses captured
/// by protocol lambdas (mailbox, channels) survive container growth.
///
/// Every member except the mailbox is SST_SHARD_LOCAL: touched by the
/// owning worker during its epoch phase, and by the coordinator between
/// barriers (reductions, warm reset, fault hooks), which adopts the shard
/// role wholesale while the workers are parked. The mailbox carries its own
/// role-split producer/consumer contract (sim::SpscMailbox), so it stays
/// unguarded here — its methods are the capability boundary.
struct Shard {
  Shard() : monitor(sim), data(sim, rig::deliver_data(rigs)) {}

  sim::Simulator sim SST_SHARD_LOCAL;
  ConsistencyMonitor monitor SST_SHARD_LOCAL;  // fed by the epoch log
  FanOut<DataMsg> data SST_SHARD_LOCAL;        // shard's data-channel slice
  std::vector<ReceiverRig> rigs SST_SHARD_LOCAL;  // local == global order
  sim::SpscMailbox<NackMsg> mailbox;  // worker -> root NACK lane (role-split)
  std::vector<std::uint8_t> probe_holds SST_SHARD_LOCAL;  // local AND verdicts
  std::size_t log_cursor SST_SHARD_LOCAL = 0;
  std::uint64_t audit_tick SST_SHARD_LOCAL = 0;  // SST_CHECK cadence counter
  // First global receiver index this shard owns (immutable: late joins
  // append to the LAST shard's tail, so global == base + local throughout).
  std::size_t base = 0;
};

class ShardedEngine {
 public:
  ShardedEngine(const ExperimentConfig& cfg,
                std::vector<double> extra_specials);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  ExperimentResult run(ShardedRunStats* stats);

  /// The root executor's event queue (where fault timelines are armed).
  [[nodiscard]] sim::Simulator& simulator() { return rsim_; }

  void set_warmup_hook(std::function<void()> hook) {
    warmup_hook_ = std::move(hook);
  }

  // Fault surface (core::Experiment's, over the shared rig functions).
  // Coordinator context only: between barriers (fault hooks fire at
  // fence-snapped instants on rsim_, or before/after run()), where the
  // caller holds the root role and — with every worker parked — the shard
  // role too.
  void crash_sender() SST_REQUIRES_COORDINATOR { sender_->pause(); }
  void restart_sender() SST_REQUIRES_COORDINATOR { sender_->resume(); }
  void set_partition(std::size_t r, bool down) SST_REQUIRES_COORDINATOR;
  void set_partition_all(bool down) SST_REQUIRES_COORDINATOR;
  void set_extra_loss(std::size_t r, double p) SST_REQUIRES_COORDINATOR;
  void set_extra_loss_all(double p) SST_REQUIRES_COORDINATOR;
  void set_bandwidth_factor(double factor) SST_REQUIRES_COORDINATOR {
    sender_->set_bandwidth_factor(factor);
  }
  std::size_t add_receiver() SST_REQUIRES_COORDINATOR;
  void detach_receiver(std::size_t r) SST_REQUIRES_COORDINATOR;
  [[nodiscard]] double instantaneous_consistency() const
      SST_REQUIRES_COORDINATOR {
    return consistency_->instantaneous();
  }
  [[nodiscard]] double repair_traffic() const SST_REQUIRES_COORDINATOR {
    return collector_.repair_traffic(tally());
  }
  [[nodiscard]] double catch_up_latency(std::size_t r) const
      SST_REQUIRES_COORDINATOR {
    const auto [s, i] = locate_.at(r);
    return shards_[s]->monitor.catch_up_latency(i);
  }

 private:
  /// What the workers read each epoch (published before the start barrier).
  struct EpochPlan {
    double fence = 0.0;
    double run_to = 0.0;
    std::size_t log_end = 0;
  };

  // Ownership capability map (see check/annotate.hpp and DESIGN.md): the
  // constructor runs before any worker thread exists (analysis-exempt);
  // afterwards every method declares the role(s) it runs under. Root-side
  // methods that reduce or mutate shard state additionally require the
  // shard role — the coordinator adopts it between barriers, while the
  // workers are parked.
  void build_rig(Shard& sh, std::size_t r);
  [[nodiscard]] rig::Block block(Shard& sh) SST_REQUIRES_COORDINATOR;
  void deliver_group(const NackMsg& nack,
                     const std::vector<std::uint32_t>& eps) SST_REQUIRES_ROOT
      SST_REQUIRES_FENCE;
  [[nodiscard]] ReceiverRig& rig_at(std::size_t r) SST_REQUIRES_COORDINATOR;
  void append_data(const DataMsg& msg, sim::Bytes size) SST_REQUIRES_ROOT
      SST_REQUIRES_FENCE;
  void append_probe(const DataMsg& msg) SST_REQUIRES_ROOT SST_REQUIRES_FENCE;
  void drain_nacks() SST_REQUIRES_ROOT;
  void worker_epoch(std::size_t s) SST_REQUIRES_SHARD
      SST_REQUIRES_FENCE_SHARED;
  void warm_reset() SST_REQUIRES_ROOT SST_REQUIRES_SHARD;
  [[nodiscard]] Tally tally() const SST_REQUIRES_ROOT SST_REQUIRES_SHARD;
  ExperimentResult collect(double end) SST_REQUIRES_ROOT SST_REQUIRES_SHARD;

  // Immutable after construction: readable from any role without a guard.
  ExperimentConfig cfg_;
  sim::Rng root_;  // stream forking (construction and late joins)

  PublisherTable pub_ SST_ROOT_ONLY;
  sim::Simulator rsim_ SST_ROOT_ONLY;  // the root executor's event queue
  std::unique_ptr<Workload> workload_ SST_ROOT_ONLY;

  // Multicast feedback group, root-hosted. The carrier simulator exists only
  // to hold the group's clock at each replayed send instant (it never runs
  // events: the group's batches run on rsim_); declared before the group so
  // the group, which references it, is destroyed first.
  sim::Simulator gsim_ SST_ROOT_ONLY;
  std::unique_ptr<FanOut<NackMsg>> mcast_fb_ SST_ROOT_ONLY;

  // The vector itself is frozen after construction (stable topology); the
  // pointed-to Shard state carries its own member-level guards.
  std::vector<std::unique_ptr<Shard>> shards_;

  // Global receiver index -> (shard, local rig index). Grows on late joins,
  // which append to the LAST shard so global order stays contiguous.
  std::vector<std::pair<std::size_t, std::size_t>> locate_ SST_ROOT_ONLY;

  std::optional<SenderSide> sender_ SST_ROOT_ONLY;

  // Epoch inputs: written by the root between barriers (exclusive fence),
  // read by every worker during an epoch (shared fence) — the annotations
  // prove workers never WRITE the log.
  std::vector<RootEvent> log_ SST_EPOCH_SHARED;
  EpochPlan plan_ SST_EPOCH_SHARED;
  std::vector<double> probe_times_ SST_ROOT_ONLY;  // probe i's transmit time

  // Fence-snap requests from the fault driver: every instant a hook may
  // fire. Filtered to (0, end] and merged into the special set by run().
  std::vector<double> extra_specials_ SST_ROOT_ONLY;
  std::function<void()> warmup_hook_ SST_ROOT_ONLY;

  // Warm-up baseline and hybrid cohort; the baseline is captured at the
  // warm-up barrier exactly as the single engine captures it after
  // run_warmup().
  Collector collector_ SST_ROOT_ONLY;
  bool warmed_ SST_ROOT_ONLY = false;

  // E[c] over the shard monitors in index order: the same accumulator the
  // single engine runs over its one monitor, so the terms, their order and
  // the rounding match. Built before the receivers, which attach through
  // it; the coordinator drives it between barriers, holding the shard role.
  std::optional<ConsistencyIntegral> consistency_ SST_ROOT_ONLY;

  // Cross-shard NACK merge scratch (reused every epoch).
  struct PendingNack {
    double due = 0.0;
    std::size_t shard = 0;
    std::uint64_t seq = 0;
    NackMsg nack;
  };
  std::vector<sim::SpscMailbox<NackMsg>::Stamped> scratch_ SST_ROOT_ONLY;
  std::vector<PendingNack> batch_ SST_ROOT_ONLY;
};

ShardedEngine::ShardedEngine(const ExperimentConfig& cfg,
                             std::vector<double> extra_specials)
    : cfg_(cfg),
      root_(cfg_.seed),
      extra_specials_(std::move(extra_specials)),
      collector_(cfg_) {
  // The epoch-log appender takes the monitor's subscription slot (first):
  // shards replay each change into their monitors before anything else
  // reacts, preserving the single engine's listener order.
  pub_.subscribe([this](const Record& rec, ChangeKind kind) {
    // Publisher changes fire on the root simulator between barriers (the
    // workload runs there), where the coordinator holds the epoch fence
    // exclusively — the only writer of log_.
    check::root_role.assert_held();
    check::epoch_fence.assert_held();
    RootEvent e;
    e.kind = RootEvent::Kind::kChange;
    e.time = rsim_.now();
    e.rec = rec;
    e.change = kind;
    log_.push_back(std::move(e));
  });
  workload_ = std::make_unique<Workload>(rsim_, pub_, cfg_.workload,
                                         root_.fork("workload"));

  // Multicast feedback: the shared group lives on the root side (every
  // receiver couples through it), carried by gsim_ so each replayed send
  // draws its per-endpoint loss and delay at the exact instant the single
  // engine's group->send did, with its batches on the root queue. Endpoint
  // 0 is the sender, as in Experiment; the per-receiver observe endpoints
  // follow in build_rig order.
  if (cfg_.variant == Variant::kFeedback && cfg_.multicast_feedback) {
    mcast_fb_ = std::make_unique<FanOut<NackMsg>>(
        gsim_, rsim_,
        [this](const NackMsg& nack, const std::vector<std::uint32_t>& eps) {
          // Fires on the root simulator between barriers: root role +
          // exclusive fence, like every root event.
          check::root_role.assert_held();
          check::epoch_fence.assert_held();
          deliver_group(nack, eps);
        });
    mcast_fb_->add_endpoint(
        rig::make_loss(cfg_, rig::nack_loss(cfg_),
                       root_.fork("nack-loss-sender"),
                       root_.fork("switch-nack-sender")),
        rig::make_delay(cfg_, root_.fork("nack-delay-sender")));
  }

  const std::size_t total = cfg_.num_receivers;
  const std::size_t shards =
      std::min(std::max<std::size_t>(cfg_.shards, 1), total);
  std::vector<ConsistencyMonitor*> monitors;
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->base = sim::shard_bounds(s, total, shards).first;
    monitors.push_back(&shards_.back()->monitor);
  }
  consistency_.emplace(std::move(monitors), rsim_.now());
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t hi = sim::shard_bounds(s, total, shards).second;
    for (std::size_t r = shards_[s]->base; r < hi; ++r) {
      build_rig(*shards_[s], r);
      locate_.emplace_back(s, shards_[s]->rigs.size() - 1);
    }
  }

  // The sender's transmissions and probes fire on the root simulator
  // between barriers (its service process lives there): root role +
  // exclusive fence, per the epoch protocol.
  sender_.emplace(
      cfg_, root_, rsim_, pub_, *workload_,
      [this](const DataMsg& msg, sim::Bytes size) {
        check::root_role.assert_held();
        check::epoch_fence.assert_held();
        append_data(msg, size);
      },
      [this](const DataMsg& msg) {
        check::root_role.assert_held();
        check::epoch_fence.assert_held();
        append_probe(msg);
      });

  workload_->start();
}

void ShardedEngine::build_rig(Shard& sh, std::size_t r) {
  // Single-owner phase: at construction no worker threads exist yet, and at
  // a late join the caller is the coordinator between barriers (workers
  // parked) — either way the calling thread owns every role at once.
  // Asserted (not REQUIRES'd) because the constructor is one of the
  // callers, and Clang exempts constructors from guarded_by checks —
  // functions called FROM it are not.
  check::root_role.assert_held();
  check::shard_role.assert_held();

  // The receiver lives on the shard's simulator; its feedback far ends
  // cross the shard boundary. Unicast NACKs and group uplinks enter the
  // shard's mailbox (the coordinator replays group sends on the root-hosted
  // group at their exact send instants), and its observe endpoint on that
  // group returns the overheard copies to the owning shard through the
  // epoch log (deliver_group).
  Shard* shp = &sh;
  rig::build_receiver(
      cfg_, root_, block(sh), r,
      [shp](const NackMsg& nack) {
        // Group uplinks run on the shard's simulator inside the owning
        // worker's epoch phase — the mailbox's producer side.
        check::shard_role.assert_held();
        shp->mailbox.push(shp->sim.now(), nack);
      },
      [shp](net::Channel<NackMsg>& channel,
            std::unique_ptr<net::LossModel> loss,
            std::unique_ptr<net::DelayModel> delay) {
        channel.add_send_time_receiver(
            std::move(loss), std::move(delay),
            [shp](const NackMsg& nack, sim::SimTime arrival) {
              // The feedback channel lives on the shard's simulator, so
              // this delivery runs inside the owning worker's epoch phase —
              // exactly the producer side of the mailbox's SPSC contract.
              check::shard_role.assert_held();
              shp->mailbox.push(arrival, nack);
            });
      });
}

rig::Block ShardedEngine::block(Shard& sh) {
  return rig::Block{sh.sim,  sh.monitor,      *consistency_,
                    sh.data, mcast_fb_.get(), sh.rigs};
}

void ShardedEngine::deliver_group(const NackMsg& nack,
                                  const std::vector<std::uint32_t>& eps) {
  // One batch of the group: the sender handles its copy here, and the
  // receivers that overhear this instant ride ONE log entry, which each
  // shard applies to its own slice.
  RootEvent e;
  e.kind = RootEvent::Kind::kNack;
  e.time = rsim_.now();
  rig::for_each_group_target(
      nack, eps,
      [&] {
        if (TwoQueueSender* tq = sender_->two_queue()) tq->handle_nack(nack);
      },
      [&](std::size_t r) {
        e.nack_recs.push_back(static_cast<std::uint32_t>(r));
      });
  if (e.nack_recs.empty()) return;
  e.nack = nack;
  log_.push_back(std::move(e));
}

ReceiverRig& ShardedEngine::rig_at(std::size_t r) {
  const auto [s, i] = locate_.at(r);
  return shards_[s]->rigs[i];
}

void ShardedEngine::append_data(const DataMsg& msg, sim::Bytes size) {
  RootEvent e;
  e.kind = RootEvent::Kind::kData;
  e.time = rsim_.now();
  e.msg = msg;
  e.size = size;
  log_.push_back(std::move(e));
}

void ShardedEngine::append_probe(const DataMsg& msg) {
  probe_times_.push_back(rsim_.now());
  RootEvent e;
  e.kind = RootEvent::Kind::kProbe;
  e.time = rsim_.now();
  e.msg = msg;
  log_.push_back(std::move(e));
}

void ShardedEngine::drain_nacks() {
  if (cfg_.variant != Variant::kFeedback) return;
  batch_.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    scratch_.clear();
    shards_[s]->mailbox.drain(scratch_);
    for (auto& st : scratch_) {
      batch_.push_back(PendingNack{st.due, s, st.seq, std::move(st.payload)});
    }
  }
  if (batch_.empty()) return;
  // Deterministic cross-shard merge: due time, then shard, then the
  // producer's FIFO seq. Same-time entries across shards are common under
  // constant delays (phase-locked retry scanners), but the merge order at a
  // tie cannot leak: in the unicast lane TwoQueueSender defers same-instant
  // NACKs and applies them in canonical content order (see handle_nack),
  // and the multicast lane re-sorts same-due ties below.
  std::sort(batch_.begin(), batch_.end(),
            [](const PendingNack& a, const PendingNack& b) {
              if (a.due != b.due) return a.due < b.due;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.seq < b.seq;
            });
#if SST_CHECK_ENABLED
  {
    // Conservative-horizon audit. A NACK first influences anyone at its
    // arrival: `due` itself on the unicast lane, and no earlier than
    // due + delay on the multicast lane, where `due` is the SEND instant on
    // the group. A first influence before the root clock would mean an
    // epoch outran the (damping-aware) lookahead bound.
    const double lead = mcast_fb_ ? cfg_.delay : 0.0;
    check::Violations v;
    for (const auto& p : batch_) {
      if (p.due + lead < rsim_.now()) {
        v.push_back("NACK due " + std::to_string(p.due) +
                    " influences before the root clock " +
                    std::to_string(rsim_.now()) +
                    " (conservative lookahead violated)");
      }
    }
    check::report("ShardedEngine", v);
  }
#endif
  if (mcast_fb_) {
    // Same-due sends must enter the group in the single engine's canonical
    // content order (Experiment::group_nack_send): every observe endpoint
    // consumes one loss/delay draw per NACK in group-entry order, so
    // (shard, seq) residue at an exact tie would hand those draws to
    // different packets than the single-queue run. Stable over the primary
    // sort: equal-content ties keep (shard, seq) order, and equal content
    // (origin included) makes them interchangeable.
    std::stable_sort(batch_.begin(), batch_.end(),
                     [](const PendingNack& a, const PendingNack& b) {
                       if (a.due != b.due) return a.due < b.due;
                       return nack_content_less(a.nack, b.nack);
                     });
    for (auto& p : batch_) {
      // Replay the uplink send at its exact send instant: the carrier
      // clock parks at `due`, so every endpoint's loss and delay draws
      // happen in the same order, at the same times, as the single
      // engine's group->send.
      gsim_.advance_to(p.due);
      mcast_fb_->send(p.nack, p.nack.size);
    }
    return;
  }
  TwoQueueSender* sender = sender_->two_queue();
  for (auto& p : batch_) {
    rsim_.at(p.due, [sender, nack = std::move(p.nack)] {
      sender->handle_nack(nack);
    });
  }
}

void ShardedEngine::worker_epoch(std::size_t s) {
  Shard& sh = *shards_[s];
  sim::Simulator& wsim = sh.sim;
  while (sh.log_cursor < plan_.log_end) {
    const RootEvent& e = log_[sh.log_cursor++];
    // Local events strictly before the entry run first; then the entry is
    // applied with the clock parked exactly at its timestamp (root-before-
    // local at equal times, matching the root's execution order).
    wsim.set_fence(e.time);
    wsim.run_until(e.time);
    switch (e.kind) {
      case RootEvent::Kind::kChange:
        sh.monitor.apply_publisher_change(e.rec, e.change);
        if (cfg_.oracle_remove && e.change == ChangeKind::kRemove) {
          for (auto& rg : sh.rigs) rg.table->remove(e.rec.key);
        }
        break;
      case RootEvent::Kind::kData:
        sh.data.send(e.msg, e.size);
        break;
      case RootEvent::Kind::kProbe:
        sh.probe_holds.push_back(rig::all_hold(sh.rigs, e.msg) ? 1 : 0);
        break;
      case RootEvent::Kind::kNack: {
        // Overheard group NACK: each shard applies its own slice of the
        // receiver list (a stopped agent ignores it, matching the single
        // engine's detach semantics).
        const auto& recs = e.nack_recs;
        for (auto it = std::lower_bound(recs.begin(), recs.end(), sh.base);
             it != recs.end() && *it - sh.base < sh.rigs.size(); ++it) {
          sh.rigs[*it - sh.base].agent->observe_nack(e.nack);
        }
        break;
      }
    }
  }
  wsim.set_fence(plan_.fence);
  wsim.run_until(plan_.run_to);
#if SST_CHECK_ENABLED
  if (check::due(sh.audit_tick, 16)) {
    check::Violations v;
    sh.mailbox.check_invariants(v);
    check::report("ShardedEngine", v);
  }
#endif
}

void ShardedEngine::warm_reset() {
  // The warm-up barrier parks every clock (root and shards) exactly at
  // cfg_.warmup, so the reset pins the same time in every monitor that the
  // single engine records.
  warmed_ = true;
  consistency_->reset(rsim_.now());
  collector_.warm(tally());
  // The sharded mirror of "after run_warmup()": statistics just reset, every
  // clock parked exactly at the cutoff — where the fault driver arms its
  // timeline.
  if (warmup_hook_) warmup_hook_();
}

Tally ShardedEngine::tally() const {
  // Shards visited in index order visit receivers in global order, so the
  // floating-point byte sums match the single engine's term for term.
  Tally t;
  t.sender = sender_->stats();
  for (const auto& sh : shards_) t.add(sh->rigs, sh->data, sh->monitor);
  t.add_group(mcast_fb_.get());
  return t;
}

ExperimentResult ShardedEngine::run(ShardedRunStats* stats) {
  // The coordinator thread drives the whole run. Between barriers it holds
  // the root role, the epoch fence EXCLUSIVELY (sole writer of log_/plan_),
  // and — because every worker is parked at the barrier — the shard role
  // for its cross-shard reductions. ShardCrew's barrier sandwich is the
  // protocol argument; TSan and the byte-identity matrix verify it.
  check::root_role.assert_held();
  check::shard_role.assert_held();
  check::epoch_fence.assert_held();

  if (stats != nullptr) *stats = ShardedRunStats{};

  const double end = cfg_.warmup + cfg_.duration;
  const sim::Duration lookahead = sharded_lookahead(cfg_);
  const bool bounded =
      lookahead > 0.0 &&
      lookahead < std::numeric_limits<sim::Duration>::infinity();

  // Sample instants, accumulated exactly as the single engine's
  // PeriodicTimer accumulates them: each fire time is the previous plus the
  // interval, starting from the warm-up cutoff.
  std::vector<double> samples;
  if (cfg_.sample_interval > 0) {
    for (double t = cfg_.warmup + cfg_.sample_interval; t <= end;
         t += cfg_.sample_interval) {
      samples.push_back(t);
    }
  }

  // Special instants the timetable must hit exactly: the warm-up cutoff,
  // every sample point, every fence-snap request from the fault driver, and
  // the end of the run. Duplicates (a fault instant on a sample tick, built
  // with the same float arithmetic) collapse.
  std::vector<sim::SimTime> specials = samples;
  if (cfg_.warmup > 0.0) specials.push_back(cfg_.warmup);
  for (const double t : extra_specials_) {
    if (t > 0.0 && t <= end) specials.push_back(t);
  }
  specials.push_back(end);
  std::sort(specials.begin(), specials.end());
  specials.erase(std::unique(specials.begin(), specials.end()),
                 specials.end());

  // Degenerate warm-up (warmup <= 0): reset baselines before any event runs,
  // like run_warmup() at time zero.
  if (!(cfg_.warmup > 0.0)) warm_reset();

  // Audited shard-worker capture: worker_epoch(s) reads the engine's
  // published epoch inputs (log_, plan_) and writes only shard s's own
  // state; the crew's two barrier crossings per epoch order every such
  // access against the coordinator (see ShardCrew's contract).
  sim::ShardCrew crew(shards_.size(), [this](std::size_t s) {  // sstlint: allow(shard-capture)
    // Worker-side epoch entry: inside its epoch phase the worker owns its
    // shard's state exclusively and reads the barrier-published epoch
    // inputs — the shard role plus a SHARED fence (workers never write
    // log_/plan_; the analysis rejects it).
    check::shard_role.assert_held();
    check::epoch_fence.assert_held_shared();
    worker_epoch(s);
  });

  // Dynamic timetable (idle-epoch skipping): instead of marching fixed
  // W-spaced barriers, reduce min(next pending event) across every queue at
  // each barrier and jump straight to min(next special, that floor + W) —
  // quiescent stretches cost one epoch instead of span/W of them.
  std::size_t next_sample = 0;
  std::size_t cursor = 0;
  double last = 0.0;
  while (last < end) {
    sim::SimTime tmin = std::numeric_limits<sim::SimTime>::infinity();
    if (bounded) {
      tmin = rsim_.next_event_time();
      for (const auto& sh : shards_) {
        tmin = std::min(tmin, sh->sim.next_event_time());
      }
    }
    const sim::EpochBoundary b = sim::next_epoch_boundary(
        last, end, cfg_.warmup, lookahead, tmin, specials, cursor);
#if SST_CHECK_ENABLED
    {
      check::Violations v;
      if (!(b.time > last)) {
        v.push_back("barrier at t=" + std::to_string(b.time) +
                    " not after its predecessor t=" + std::to_string(last) +
                    " (barrier monotonicity)");
      }
      // One ulp of slack, as in check_epoch_schedule: the horizon is built
      // by floating-point addition.
      if (bounded &&
          b.time - std::max(tmin, last) > lookahead * (1.0 + 1e-12)) {
        v.push_back("barrier at t=" + std::to_string(b.time) +
                    " outruns the conservative horizon " +
                    std::to_string(std::max(tmin, last) + lookahead));
      }
      check::report("ShardedEngine", v);
    }
#endif
    const double fence =
        b.inclusive
            ? std::nextafter(b.time, std::numeric_limits<double>::infinity())
            : b.time;
    rsim_.set_fence(fence);
    rsim_.run_until(b.time);
    plan_.fence = fence;
    plan_.run_to = b.time;
    plan_.log_end = log_.size();
    if (stats != nullptr) {
      // barrier_wait_seconds measures HOST time the coordinator spends in
      // the epoch barrier — a profiling counter, deliberately not simulated
      // time, and only read when the caller asked for stats. It never feeds
      // back into simulation state, so determinism is untouched.
      const auto t0 = std::chrono::steady_clock::now();  // sstlint: allow(wall-clock)
      crew.run_epoch();
      stats->barrier_wait_seconds +=
          std::chrono::duration<double>(
              std::chrono::steady_clock::now() - t0)  // sstlint: allow(wall-clock)
              .count();
    } else {
      crew.run_epoch();
    }
    // Every shard consumed the full log (the root never appends while the
    // workers run), so the epoch's entries can be recycled.
    log_.clear();
    for (auto& sh : shards_) sh->log_cursor = 0;
    // Drain at the epoch's bottom: nothing runs on rsim_ between here and
    // the next boundary's run_until, so the schedule-insertion order is the
    // top-of-next-epoch order the static engine used — and multicast group
    // sends falling at or before a warm-up/end fence hit the channel's byte
    // counters before the baselines/collection below read them, exactly as
    // the single engine's synchronous group->send does.
    drain_nacks();
    if (stats != nullptr) {
      ++stats->epochs_executed;
      if (bounded) {
        // What the static W-spaced schedule would have executed across this
        // span (1e-9 absorbs the repeated-addition rounding).
        const double span = b.time - last;
        const double static_epochs = std::ceil(span / lookahead - 1e-9);
        if (static_epochs > 1.0) {
          stats->epochs_skipped +=
              static_cast<std::uint64_t>(static_epochs) - 1;
        }
      }
    }
    if (!warmed_ && b.time == cfg_.warmup) warm_reset();
    if (next_sample < samples.size() && b.time == samples[next_sample]) {
      ++next_sample;
      collector_.sample(*consistency_, b.time);
    }
    last = b.time;
  }
  if (!warmed_) warm_reset();  // empty timetable (end <= 0): still collect
  return collect(end);
}

ExperimentResult ShardedEngine::collect(double end) {
  // Redundancy: probe i was redundant iff every shard's local AND held.
  // Warm-up probes are excluded by time, mirroring the counter reset.
#if SST_CHECK_ENABLED
  {
    check::Violations v;
    for (std::size_t si = 0; si < shards_.size(); ++si) {
      if (shards_[si]->probe_holds.size() != probe_times_.size()) {
        v.push_back("shard " + std::to_string(si) + " judged " +
                    std::to_string(shards_[si]->probe_holds.size()) +
                    " probes, root logged " +
                    std::to_string(probe_times_.size()));
      }
    }
    check::report("ShardedEngine", v);
  }
#endif
  std::uint64_t redundant_tx = 0;
  for (std::size_t i = 0; i < probe_times_.size(); ++i) {
    if (!(probe_times_[i] > cfg_.warmup)) continue;
    bool all = true;
    for (const auto& sh : shards_) {
      if (sh->probe_holds[i] == 0) {
        all = false;
        break;
      }
    }
    if (all) ++redundant_tx;
  }

  return collector_.result(tally(), *sender_, *workload_, pub_, *consistency_,
                           end, redundant_tx);
}

// --------------------------------------------------------- fault surface
// The shared rig functions over the receiver that locate_ finds; churn
// goes through the one ConsistencyIntegral, which closes its E[c] segment
// where the active count jumps.

void ShardedEngine::set_partition(std::size_t r, bool down) {
  rig::set_partition(rig_at(r), down);
}

void ShardedEngine::set_partition_all(bool down) {
  for (auto& sh : shards_) {
    for (auto& rig : sh->rigs) {
      if (rig.active) rig::set_partition(rig, down);
    }
  }
}

void ShardedEngine::set_extra_loss(std::size_t r, double p) {
  rig::set_extra_loss(rig_at(r), p);
}

void ShardedEngine::set_extra_loss_all(double p) {
  for (auto& sh : shards_) {
    for (auto& rig : sh->rigs) {
      if (rig.active) rig::set_extra_loss(rig, p);
    }
  }
}

std::size_t ShardedEngine::add_receiver() {
  const std::size_t r = locate_.size();
  Shard& sh = *shards_.back();  // tail shard keeps global order contiguous
  build_rig(sh, r);
  locate_.emplace_back(shards_.size() - 1, sh.rigs.size() - 1);
  return r;
}

void ShardedEngine::detach_receiver(std::size_t r) {
  const auto [s, i] = locate_.at(r);
  Shard& sh = *shards_[s];
  if (!sh.rigs[i].active) return;
  rig::detach(block(sh), i);
}

}  // namespace

struct ShardedExperiment::Impl {
  ShardedEngine engine;
  Impl(const ExperimentConfig& cfg, std::vector<double> barriers)
      : engine(cfg, std::move(barriers)) {}

  /// The engine, for a fault-surface call. Every such call runs in
  /// coordinator context: a hook fires at a fence-snapped barrier instant
  /// on the root simulator (or before run() starts / after it returns),
  /// where the calling thread is the root executor AND — with every worker
  /// parked at the barrier — the sole owner of all shard state. ShardCrew's
  /// barrier sandwich is the protocol argument; TSan and the byte-identity
  /// matrix verify it.
  ShardedEngine& coordinator() SST_ASSERT_CAPABILITY(::sst::check::root_role)
      SST_ASSERT_CAPABILITY(::sst::check::shard_role) {
    check::root_role.assert_held();
    check::shard_role.assert_held();
    return engine;
  }
};

ShardedExperiment::ShardedExperiment(const ExperimentConfig& cfg,
                                     std::vector<double> barrier_instants)
    : impl_(std::make_unique<Impl>(cfg, std::move(barrier_instants))) {}

ShardedExperiment::~ShardedExperiment() = default;

sim::Simulator& ShardedExperiment::simulator() {
  return impl_->engine.simulator();
}

void ShardedExperiment::set_warmup_hook(std::function<void()> hook) {
  impl_->engine.set_warmup_hook(std::move(hook));
}

ExperimentResult ShardedExperiment::run(ShardedRunStats* stats) {
  return impl_->engine.run(stats);
}

void ShardedExperiment::crash_sender() { impl_->coordinator().crash_sender(); }

void ShardedExperiment::restart_sender() {
  impl_->coordinator().restart_sender();
}

void ShardedExperiment::set_partition(std::size_t r, bool down) {
  impl_->coordinator().set_partition(r, down);
}

void ShardedExperiment::set_partition_all(bool down) {
  impl_->coordinator().set_partition_all(down);
}

void ShardedExperiment::set_extra_loss(std::size_t r, double p) {
  impl_->coordinator().set_extra_loss(r, p);
}

void ShardedExperiment::set_extra_loss_all(double p) {
  impl_->coordinator().set_extra_loss_all(p);
}

void ShardedExperiment::set_bandwidth_factor(double factor) {
  impl_->coordinator().set_bandwidth_factor(factor);
}

std::size_t ShardedExperiment::add_receiver() {
  return impl_->coordinator().add_receiver();
}

void ShardedExperiment::detach_receiver(std::size_t r) {
  impl_->coordinator().detach_receiver(r);
}

double ShardedExperiment::instantaneous_consistency() const {
  return impl_->coordinator().instantaneous_consistency();
}

double ShardedExperiment::repair_traffic() const {
  return impl_->coordinator().repair_traffic();
}

double ShardedExperiment::catch_up_latency(std::size_t r) const {
  return impl_->coordinator().catch_up_latency(r);
}

bool sharded_supported(const ExperimentConfig& cfg, std::string& why) {
  if (cfg.backend == Backend::kFluid) {
    why = "the pure-fluid backend has no event engine to shard";
    return false;
  }
  if (cfg.num_receivers == 0) {
    why = "no receivers to partition";
    return false;
  }
  if (cfg.variant == Variant::kFeedback && !(cfg.delay > 0.0)) {
    why = "feedback with zero propagation delay leaves no conservative "
          "lookahead";
    return false;
  }
  why.clear();
  return true;
}

sim::Duration sharded_lookahead(const ExperimentConfig& cfg) {
  // Damping-aware bound: a NACK spends at least `delay` on whichever
  // feedback path it takes (unicast reverse channel, or the multicast
  // group's per-endpoint delay — jitter and rate limits only add), and the
  // SRM slotting schedule holds its emission for at least the slot floor.
  // Multicast observation obeys the same bound, which is what lets the
  // overheard copies ride the epoch log.
  return cfg.variant == Variant::kFeedback
             ? cfg.delay + nack_slot_floor(cfg.receiver)
             : std::numeric_limits<sim::Duration>::infinity();
}

ExperimentResult run_sharded(const ExperimentConfig& cfg,
                             ShardedRunStats* stats) {
  ShardedEngine engine(cfg, {});
  return engine.run(stats);
}

}  // namespace sst::core

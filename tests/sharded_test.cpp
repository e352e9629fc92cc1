// Tests for the sharded conservative-lookahead engine: the partition and
// mailbox building blocks, the epoch timetable's lookahead property (no
// epoch spans more than W, so no shard can execute past barrier + W before
// the next barrier commit), the supported-configuration envelope, and the
// headline guarantee — bit-identical results for any shard count, alone and
// composed with the replication driver's jobs fan-out, including over
// hostile channel pipelines.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "core/experiment.hpp"
#include "core/receiver.hpp"
#include "core/sharded.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "runner/adapters.hpp"
#include "runner/runner.hpp"
#include "sim/shard.hpp"

namespace sst {
namespace {

// ---------------------------------------------------------------- partition

TEST(ShardPartition, BoundsConcatenateToGlobalOrder) {
  for (std::size_t total : {1u, 2u, 7u, 8u, 100u, 1001u}) {
    for (std::size_t shards : {1u, 2u, 3u, 4u, 8u}) {
      if (shards > total) continue;
      std::size_t expect = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const auto [lo, hi] = sim::shard_bounds(s, total, shards);
        EXPECT_EQ(lo, expect) << "total=" << total << " shards=" << shards;
        EXPECT_LT(lo, hi);  // every shard owns at least one receiver
        for (std::size_t r = lo; r < hi; ++r) {
          EXPECT_EQ(sim::shard_of(r, total, shards), s);
        }
        expect = hi;
      }
      EXPECT_EQ(expect, total);
    }
  }
}

// ------------------------------------------------------------------ mailbox

TEST(ShardMailbox, FifoSeqAndConservation) {
  sim::SpscMailbox<int> mb;
  mb.push(1.0, 10);
  mb.push(2.0, 20);
  mb.push(2.0, 30);
  EXPECT_EQ(mb.pending(), 3u);
  EXPECT_EQ(mb.pushed(), 3u);

  check::Violations v;
  mb.check_invariants(v);
  EXPECT_TRUE(v.empty());

  std::vector<sim::SpscMailbox<int>::Stamped> out;
  mb.drain(out);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].seq, i);
  EXPECT_EQ(out[2].payload, 30);
  EXPECT_EQ(mb.pending(), 0u);

  // Seqs keep rising across drains, so (due, shard, seq) stays a total
  // order over a whole run, not just one epoch.
  mb.push(3.0, 40);
  out.clear();
  mb.drain(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 3u);

  v.clear();
  mb.check_invariants(v);
  EXPECT_TRUE(v.empty());
}

// ------------------------------------------------------------- epoch schedule

TEST(ShardSchedule, LookaheadBoundsEveryEpoch) {
  // The conservative-lookahead property at the timetable level: with
  // barrier fences at these instants, no shard is ever asked to run more
  // than W past the last committed barrier.
  const double end = 400.0;
  const double warmup = 50.0;
  const double w = 0.05;
  std::vector<double> specials = {warmup, 55.0, 60.0, 65.0};
  const auto schedule = sim::make_epoch_schedule(end, warmup, w, specials);

  ASSERT_FALSE(schedule.empty());
  EXPECT_DOUBLE_EQ(schedule.back().time, end);
  double prev = 0.0;
  for (const auto& b : schedule) {
    EXPECT_GT(b.time, prev);
    EXPECT_LE(b.time - prev, w * (1.0 + 1e-12));
    prev = b.time;
  }
  // Specials are hit exactly (bitwise), and warm-up/end are the inclusive
  // boundaries that mirror the single-queue engine's run_until semantics.
  for (const double t : specials) {
    bool hit = false;
    for (const auto& b : schedule) {
      if (b.time == t) {
        hit = true;
        EXPECT_EQ(b.inclusive, t == warmup);
      }
    }
    EXPECT_TRUE(hit) << "special " << t << " not on a barrier";
  }
  EXPECT_TRUE(schedule.back().inclusive);

  check::Violations v;
  sim::check_epoch_schedule(schedule, end, w, v);
  EXPECT_TRUE(v.empty()) << v.front();
}

TEST(ShardSchedule, UnboundedLookaheadStretchesBetweenSpecials) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto schedule =
      sim::make_epoch_schedule(100.0, 10.0, inf, {10.0, 40.0});
  // Only the specials and the end remain: {10, 40, 100}.
  ASSERT_EQ(schedule.size(), 3u);
  EXPECT_DOUBLE_EQ(schedule[0].time, 10.0);
  EXPECT_DOUBLE_EQ(schedule[1].time, 40.0);
  EXPECT_DOUBLE_EQ(schedule[2].time, 100.0);

  check::Violations v;
  sim::check_epoch_schedule(schedule, 100.0, inf, v);
  EXPECT_TRUE(v.empty()) << v.front();
}

// ------------------------------------------------------------------ envelope

core::ExperimentConfig small_cfg(core::Variant variant) {
  core::ExperimentConfig cfg;
  cfg.variant = variant;
  cfg.workload.insert_rate = 12.0;
  cfg.workload.update_rate = 3.0;
  cfg.mu_data = sim::kbps(42);
  cfg.mu_fb = sim::kbps(12);
  cfg.loss_rate = 0.25;
  cfg.num_receivers = 7;
  cfg.delay = 0.05;
  cfg.duration = 60.0;
  cfg.warmup = 10.0;
  cfg.seed = 7;
  cfg.sample_interval = 5.0;
  return cfg;
}

TEST(ShardedEnvelope, SupportedConfigurations) {
  std::string why;
  EXPECT_TRUE(core::sharded_supported(small_cfg(core::Variant::kFeedback),
                                      why));
  EXPECT_TRUE(core::sharded_supported(small_cfg(core::Variant::kOpenLoop),
                                      why));
  EXPECT_TRUE(core::sharded_supported(small_cfg(core::Variant::kTwoQueue),
                                      why));

  auto hybrid = small_cfg(core::Variant::kFeedback);
  hybrid.backend = core::Backend::kHybrid;
  hybrid.fluid_cohort = 100.0;
  EXPECT_TRUE(core::sharded_supported(hybrid, why));

  // Multicast feedback joined the envelope: the group NACK channel is
  // root-hosted and replayed through the epoch log, under the same
  // damping-aware lookahead as unicast feedback.
  auto multicast = small_cfg(core::Variant::kFeedback);
  multicast.multicast_feedback = true;
  multicast.receiver.nack_slot_max = 0.1;
  EXPECT_TRUE(core::sharded_supported(multicast, why));
}

TEST(ShardedEnvelope, UnsupportedConfigurationsExplainWhy) {
  // The why-strings are user-facing (run_experiment's once-per-reason
  // fallback notice, the sstsim warning) — pin them verbatim so a reworded
  // message is a conscious decision, not drift.
  std::string why;

  auto fluid = small_cfg(core::Variant::kFeedback);
  fluid.backend = core::Backend::kFluid;
  EXPECT_FALSE(core::sharded_supported(fluid, why));
  EXPECT_EQ(why, "the pure-fluid backend has no event engine to shard");

  auto empty = small_cfg(core::Variant::kOpenLoop);
  empty.num_receivers = 0;
  EXPECT_FALSE(core::sharded_supported(empty, why));
  EXPECT_EQ(why, "no receivers to partition");

  auto zero_delay = small_cfg(core::Variant::kFeedback);
  zero_delay.delay = 0.0;
  EXPECT_FALSE(core::sharded_supported(zero_delay, why));
  EXPECT_EQ(why,
            "feedback with zero propagation delay leaves no conservative "
            "lookahead");

  // The zero-delay rejection covers multicast feedback too (same
  // worker->root edge, same irreducible delay term).
  auto zero_delay_mcast = zero_delay;
  zero_delay_mcast.multicast_feedback = true;
  EXPECT_FALSE(core::sharded_supported(zero_delay_mcast, why));
  EXPECT_EQ(why,
            "feedback with zero propagation delay leaves no conservative "
            "lookahead");
}

TEST(ShardedEnvelope, LookaheadIsDampingAwareForFeedbackElseInfinite) {
  // W = delay + nack_slot_floor(cfg.receiver). The slot floor is 0 for
  // every schedule the repo has today (U(0, slot_max) has infimum 0, and
  // slot_max == 0 sends immediately), so W degenerates to the delay — but
  // the test states the bound through nack_slot_floor so a future
  // deterministic minimum-slot schedule widens the expectation with it.
  auto fb = small_cfg(core::Variant::kFeedback);
  EXPECT_DOUBLE_EQ(core::sharded_lookahead(fb),
                   fb.delay + core::nack_slot_floor(fb.receiver));
  EXPECT_DOUBLE_EQ(core::sharded_lookahead(fb), 0.05);

  // Degenerate immediate-NACK schedule: nack_slot_max == 0.
  fb.receiver.nack_slot_max = 0.0;
  EXPECT_DOUBLE_EQ(core::sharded_lookahead(fb), 0.05);

  // Slotted multicast damping draws U(0, slot_max): the infimum is still 0,
  // so the safe bound gains nothing.
  fb.multicast_feedback = true;
  fb.receiver.nack_slot_max = 0.5;
  EXPECT_DOUBLE_EQ(core::sharded_lookahead(fb), 0.05);

  EXPECT_TRUE(std::isinf(
      core::sharded_lookahead(small_cfg(core::Variant::kOpenLoop))));
  EXPECT_TRUE(std::isinf(
      core::sharded_lookahead(small_cfg(core::Variant::kTwoQueue))));
}

// -------------------------------------------------------------- bit identity

/// Bitwise comparison of every scalar field plus the c(t) timeline —
/// memcmp on the doubles, so -0.0 vs 0.0 or a single ulp of drift fails.
void expect_identical(const core::ExperimentResult& a,
                      const core::ExperimentResult& b,
                      const std::string& what) {
#define SST_CHK(f) \
  EXPECT_EQ(std::memcmp(&a.f, &b.f, sizeof a.f), 0) << what << " field " #f
  SST_CHK(avg_consistency);
  SST_CHK(mean_latency);
  SST_CHK(p50_latency);
  SST_CHK(p95_latency);
  SST_CHK(data_tx);
  SST_CHK(hot_tx);
  SST_CHK(cold_tx);
  SST_CHK(repair_tx);
  SST_CHK(redundant_tx);
  SST_CHK(nacks_sent);
  SST_CHK(nacks_received);
  SST_CHK(nacks_suppressed);
  SST_CHK(redundant_fraction);
  SST_CHK(observed_loss);
  SST_CHK(offered_data_kbps);
  SST_CHK(offered_fb_kbps);
  SST_CHK(inserts);
  SST_CHK(updates);
  SST_CHK(versions_introduced);
  SST_CHK(versions_received);
  SST_CHK(final_live);
  SST_CHK(final_hot_depth);
  SST_CHK(final_cold_depth);
#undef SST_CHK
  ASSERT_EQ(a.timeline.size(), b.timeline.size()) << what;
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.timeline[i].time, &b.timeline[i].time,
                          sizeof(double)),
              0)
        << what << " timeline[" << i << "].time";
    EXPECT_EQ(std::memcmp(&a.timeline[i].consistency,
                          &b.timeline[i].consistency, sizeof(double)),
              0)
        << what << " timeline[" << i << "].consistency";
  }
}

TEST(ShardedIdentity, MatchesSingleQueueAcrossVariantsAndShardCounts) {
  for (const auto variant : {core::Variant::kOpenLoop,
                             core::Variant::kTwoQueue,
                             core::Variant::kFeedback}) {
    core::ExperimentConfig cfg = small_cfg(variant);
    const auto ref = core::run_experiment(cfg);
    for (const std::size_t k : {2u, 4u, 8u}) {
      cfg.shards = k;
      const auto got = core::run_experiment(cfg);
      expect_identical(ref, got,
                       "variant=" + std::to_string(static_cast<int>(variant)) +
                           " K=" + std::to_string(k));
    }
  }
}

TEST(ShardedIdentity, HybridBackendMatches) {
  core::ExperimentConfig cfg = small_cfg(core::Variant::kFeedback);
  cfg.backend = core::Backend::kHybrid;
  cfg.fluid_cohort = 100.0;
  const auto ref = core::run_experiment(cfg);
  cfg.shards = 4;
  const auto got = core::run_experiment(cfg);
  expect_identical(ref, got, "hybrid K=4");
}

TEST(ShardedIdentity, HostilePipelinesMatch) {
  // The hostile x sharded slice: reordering and duplication on the forward
  // path, reordering on every feedback path. Both stay shard-local (the
  // forward stage runs on the root, each feedback stage inside its shard),
  // so the sharded run must still be bitwise identical.
  core::ExperimentConfig cfg = small_cfg(core::Variant::kFeedback);
  cfg.fwd_hostile.reorder.prob = 0.3;
  cfg.fwd_hostile.reorder.max_extra = 0.2;
  cfg.fwd_hostile.duplicate.prob = 0.2;
  cfg.fwd_hostile.duplicate.spread = 0.02;
  cfg.fb_hostile.reorder.prob = 0.25;
  cfg.fb_hostile.reorder.max_extra = 0.1;

  const auto ref = core::run_experiment(cfg);
  EXPECT_GT(ref.avg_consistency, 0.0);  // the slice actually converges
  EXPECT_LE(ref.avg_consistency, 1.0);
  for (const std::size_t k : {2u, 4u}) {
    cfg.shards = k;
    const auto got = core::run_experiment(cfg);
    expect_identical(ref, got, "hostile K=" + std::to_string(k));
  }
}

TEST(ShardedIdentity, MulticastFeedbackMatches) {
  // Multicast feedback with SRM slotting/damping: every NACK is overheard
  // by every other receiver, so suppression crosses shard boundaries — the
  // sharded engine routes the group through the root's epoch log and must
  // still be bitwise identical.
  core::ExperimentConfig cfg = small_cfg(core::Variant::kFeedback);
  cfg.multicast_feedback = true;
  cfg.receiver.nack_slot_max = 0.1;

  const auto ref = core::run_experiment(cfg);
  EXPECT_GT(ref.nacks_sent, 0u);        // feedback actually flowed
  EXPECT_GT(ref.nacks_suppressed, 0u);  // damping actually exercised
  for (const std::size_t k : {2u, 4u, 8u}) {
    cfg.shards = k;
    const auto got = core::run_experiment(cfg);
    expect_identical(ref, got, "multicast K=" + std::to_string(k));
  }
}

TEST(ShardedIdentity, MulticastFeedbackJitteredMatches) {
  // Jittered delays split one send across several arrival instants, so the
  // data channel and the root-hosted NACK group each deliver one send in
  // several batches — and unicast-free feedback reorders freely.
  core::ExperimentConfig cfg = small_cfg(core::Variant::kFeedback);
  cfg.multicast_feedback = true;
  cfg.receiver.nack_slot_max = 0.1;
  cfg.jitter = 0.03;

  const auto ref = core::run_experiment(cfg);
  EXPECT_GT(ref.nacks_sent, 0u);
  EXPECT_GT(ref.nacks_suppressed, 0u);
  for (const std::size_t k : {2u, 4u, 8u}) {
    cfg.shards = k;
    const auto got = core::run_experiment(cfg);
    expect_identical(ref, got, "jittered multicast K=" + std::to_string(k));
  }
}

TEST(ShardedIdentity, MulticastFeedbackWithHostileUplinksMatches) {
  // Multicast x hostile: each receiver's uplink into the group runs through
  // its own shard-local reordering stage before the NACK crosses into the
  // root-hosted group channel.
  core::ExperimentConfig cfg = small_cfg(core::Variant::kFeedback);
  cfg.multicast_feedback = true;
  cfg.receiver.nack_slot_max = 0.1;
  cfg.fb_hostile.reorder.prob = 0.25;
  cfg.fb_hostile.reorder.max_extra = 0.1;

  const auto ref = core::run_experiment(cfg);
  for (const std::size_t k : {2u, 4u}) {
    cfg.shards = k;
    const auto got = core::run_experiment(cfg);
    expect_identical(ref, got, "multicast-hostile K=" + std::to_string(k));
  }
}

// The faulted slice: run_experiment_with_faults dispatches to the sharded
// engine for shards > 1, fence-snapping every injector instant, and the
// whole FaultRunResult — base result, recovery records, join catch-up
// latencies — must be bitwise identical to the single-queue run.
void expect_identical_faulted(const fault::FaultRunResult& a,
                              const fault::FaultRunResult& b,
                              const std::string& what) {
  expect_identical(a.base, b.base, what);
  ASSERT_EQ(a.recoveries.size(), b.recoveries.size()) << what;
  for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
    const auto& ra = a.recoveries[i];
    const auto& rb = b.recoveries[i];
    EXPECT_EQ(ra.label, rb.label) << what << " record " << i;
#define SST_CHK(f)                                      \
  EXPECT_EQ(std::memcmp(&ra.f, &rb.f, sizeof ra.f), 0) \
      << what << " record " << i << " field " #f
    SST_CHK(injected_at);
    SST_CHK(cleared_at);
    SST_CHK(recovered_at);
    SST_CHK(deficit);
    SST_CHK(repair_overhead);
#undef SST_CHK
  }
  ASSERT_EQ(a.join_catch_up.size(), b.join_catch_up.size()) << what;
  for (std::size_t i = 0; i < a.join_catch_up.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.join_catch_up[i], &b.join_catch_up[i],
                          sizeof(double)),
              0)
        << what << " join_catch_up[" << i << "]";
  }
}

TEST(ShardedIdentity, FaultedRunsMatch) {
  // One of every fault kind, overlapping where the semantics are nestable,
  // through both the single-target and the all-receivers fault surface —
  // on the discrete backend and with a hybrid fluid cohort attached.
  fault::FaultPlan plan;
  plan.crash(20.0, 5.0)
      .partition(2, 30.0, 4.0)
      .burst_loss(0.5, 32.0, 6.0)
      .partition(fault::kAllReceivers, 40.0, 3.0)
      .bandwidth(0.5, 45.0, 6.0)
      .burst_loss(0.7, 47.0, 4.0, /*target=*/1)
      .leave(1, 52.0)
      .join(54.0);

  for (const auto backend :
       {core::Backend::kDiscrete, core::Backend::kHybrid}) {
    core::ExperimentConfig cfg = small_cfg(core::Variant::kFeedback);
    cfg.backend = backend;
    cfg.fluid_cohort = 1000.0;
    const std::string name =
        backend == core::Backend::kHybrid ? "hybrid" : "discrete";

    const auto ref = fault::run_experiment_with_faults(cfg, plan);
    ASSERT_EQ(ref.recoveries.size(), plan.size());
    ASSERT_EQ(ref.join_catch_up.size(), 1u);
    // The fluid cohort is attached on every engine, faulted or not.
    const double cohort = backend == core::Backend::kHybrid ? 1000.0 : 0.0;
    EXPECT_EQ(ref.base.fluid_cohort, cohort) << name;
    for (const std::size_t k : {2u, 4u, 8u}) {
      cfg.shards = k;
      const auto got = fault::run_experiment_with_faults(cfg, plan);
      EXPECT_EQ(got.base.fluid_cohort, cohort) << name;
      expect_identical_faulted(
          ref, got, "faulted " + name + " K=" + std::to_string(k));
    }
  }
}

TEST(ShardedIdentity, FaultedMulticastRunsMatch) {
  // Faults x multicast feedback: partition must also gag the receiver's
  // group uplink, and churn must splice group endpoints, all through the
  // fence-snapped hook path.
  core::ExperimentConfig cfg = small_cfg(core::Variant::kFeedback);
  cfg.multicast_feedback = true;
  cfg.receiver.nack_slot_max = 0.1;
  fault::FaultPlan plan;
  plan.partition(0, 25.0, 5.0).leave(3, 40.0).join(45.0).crash(50.0, 4.0);

  const auto ref = fault::run_experiment_with_faults(cfg, plan);
  for (const std::size_t k : {2u, 4u}) {
    cfg.shards = k;
    const auto got = fault::run_experiment_with_faults(cfg, plan);
    expect_identical_faulted(ref, got,
                             "faulted-multicast K=" + std::to_string(k));
  }
}

// ------------------------------------------------------------- idle skipping

TEST(ShardedScheduling, IdleEpochSkippingReportsAndPreservesIdentity) {
  // A sparse workload leaves long event-free stretches; the dynamic
  // timetable must jump them (epochs_skipped counts what the static
  // W-spaced schedule would have executed extra) without disturbing the
  // result bytes.
  core::ExperimentConfig cfg = small_cfg(core::Variant::kFeedback);
  cfg.workload.insert_rate = 0.5;
  cfg.workload.update_rate = 0.1;

  const auto ref = core::run_experiment(cfg);
  cfg.shards = 4;
  core::ShardedRunStats stats;
  const auto got = core::run_sharded(cfg, &stats);
  expect_identical(ref, got, "idle-skip K=4");
  EXPECT_GT(stats.epochs_executed, 0u);
  EXPECT_GT(stats.epochs_skipped, 0u);
  // The dynamic timetable must never run MORE barriers than the static one:
  // executed <= ceil(duration / W) + specials.
  const double w = core::sharded_lookahead(cfg);
  const std::uint64_t static_epochs =
      static_cast<std::uint64_t>(cfg.duration / w) + 64;
  EXPECT_LT(stats.epochs_executed, static_epochs);
}

TEST(ShardedScheduling, UnboundedLookaheadNeverSkips) {
  // Open-loop runs have no worker->root edge: W is infinite and the
  // timetable always ran special-to-special, so there is nothing to skip
  // and the counter must stay 0 (the stats contract in sharded.hpp).
  core::ExperimentConfig cfg = small_cfg(core::Variant::kOpenLoop);
  cfg.shards = 4;
  core::ShardedRunStats stats;
  const auto got = core::run_sharded(cfg, &stats);
  EXPECT_GT(stats.epochs_executed, 0u);
  EXPECT_EQ(stats.epochs_skipped, 0u);
  EXPECT_GE(stats.barrier_wait_seconds, 0.0);
  const auto ref = core::run_experiment(small_cfg(core::Variant::kOpenLoop));
  expect_identical(ref, got, "unbounded stats K=4");
}

TEST(ShardedIdentity, ComposesWithReplicationJobs) {
  // shards x jobs matrix through the replication driver: the aggregated
  // JSON document must be byte-identical for K in {1,2,4,8} x jobs in
  // {1,8}. Mirrors the sstsim_determinism_shards ctest gate in-process.
  core::ExperimentConfig cfg = small_cfg(core::Variant::kFeedback);
  cfg.duration = 30.0;

  runner::Options opt;
  opt.replications = 4;
  opt.master_seed = 7;
  opt.jobs = 1;
  cfg.shards = 1;
  const std::string ref =
      runner::run_replicated(cfg, opt).to_json().dump(2);

  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    for (const std::size_t jobs : {1u, 8u}) {
      if (k == 1 && jobs == 1) continue;
      cfg.shards = k;
      opt.jobs = jobs;
      opt.threads_per_replication = k;
      const std::string got =
          runner::run_replicated(cfg, opt).to_json().dump(2);
      EXPECT_EQ(ref, got) << "K=" << k << " jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace sst

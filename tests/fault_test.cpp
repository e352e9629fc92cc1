// Tests for the fault-injection subsystem: plan parsing, the recovery
// tracker on synthetic signals, and end-to-end scripted faults against both
// harnesses (core experiment and SSTP session). The headline acceptance
// test: after a sender crash of duration D, consistency recovers to the 0.9
// threshold with a finite recovery time for every injected fault, and the
// whole run is deterministic in the seed.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "sim/simulator.hpp"
#include "sstp/session.hpp"
#include "stats/recovery.hpp"

namespace sst::fault {
namespace {

// ----------------------------------------------------------------- FaultPlan

TEST(FaultPlan, ParsesFullScript) {
  const auto plan = FaultPlan::parse(
      "crash@900+120;partition:0@600+60;leave:1@400;join@1200;"
      "burst:0.5@1500+30;bw:0.25@300+100");
  ASSERT_EQ(plan.size(), 6u);
  const auto& e = plan.events();
  EXPECT_EQ(e[0].kind, FaultKind::kSenderCrash);
  EXPECT_DOUBLE_EQ(e[0].start, 900.0);
  EXPECT_DOUBLE_EQ(e[0].duration, 120.0);
  EXPECT_EQ(e[1].kind, FaultKind::kPartition);
  EXPECT_EQ(e[1].target, 0u);
  EXPECT_EQ(e[2].kind, FaultKind::kReceiverLeave);
  EXPECT_EQ(e[2].target, 1u);
  EXPECT_DOUBLE_EQ(e[2].duration, 0.0);
  EXPECT_EQ(e[3].kind, FaultKind::kReceiverJoin);
  EXPECT_EQ(e[4].kind, FaultKind::kBurstLoss);
  EXPECT_DOUBLE_EQ(e[4].amount, 0.5);
  EXPECT_EQ(e[5].kind, FaultKind::kBandwidth);
  EXPECT_DOUBLE_EQ(e[5].amount, 0.25);
  EXPECT_DOUBLE_EQ(plan.horizon(), 1530.0);
}

TEST(FaultPlan, PartitionWithoutTargetMeansAllReceivers) {
  const auto plan = FaultPlan::parse("partition@100+10");
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.events()[0].target, kAllReceivers);
  EXPECT_EQ(plan.events()[0].label(), "partition");
}

TEST(FaultPlan, LabelsAreHumanReadable) {
  FaultPlan plan;
  plan.crash(1, 2).partition(2, 3, 4).burst_loss(0.5, 5, 6).bandwidth(0.25, 7,
                                                                      8);
  EXPECT_EQ(plan.events()[0].label(), "crash");
  EXPECT_EQ(plan.events()[1].label(), "partition:2");
  EXPECT_EQ(plan.events()[2].label(), "burst:0.5");
  EXPECT_EQ(plan.events()[3].label(), "bw:0.25");
}

TEST(FaultPlan, EmptyAndSeparatorOnlyScriptsAreEmpty) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(";;").empty());
  EXPECT_TRUE(FaultPlan::parse(",;,").empty());
}

TEST(FaultPlan, CommaSeparatesEventsLikeSemicolon) {
  // ',' is an alternate separator: ';' needs shell quoting and cannot pass
  // through a CMake variable expansion at all (it splits the list).
  const auto plan = FaultPlan::parse("crash@90+20,partition:2@130+20;join@180");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kSenderCrash);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kPartition);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kReceiverJoin);
}

TEST(FaultPlan, RejectsMalformedScripts) {
  EXPECT_THROW(FaultPlan::parse("crash"), std::invalid_argument);  // no @
  EXPECT_THROW(FaultPlan::parse("flood@10"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash:1@10"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash@abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash@10+xyz"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash@-5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("leave@10"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("burst@10+5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("burst:1.5@10+5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("bw:0@10+5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash@10junk"), std::invalid_argument);
}

// ----------------------------------------------------------- RecoveryTracker

TEST(RecoveryTracker, HandComputedEpisode) {
  stats::RecoveryTracker t(0.9);
  t.observe(0.0, 1.0);
  const std::size_t f = t.inject("crash", 10.0);
  t.observe(10.0, 0.5);   // dip starts at injection
  t.observe(20.0, 0.5);
  t.clear(f, 20.0);       // fault lifts, still below threshold
  t.observe(30.0, 0.95);  // recovered here
  t.finish(40.0);

  const auto& rec = t.records().at(f);
  EXPECT_TRUE(rec.cleared());
  EXPECT_TRUE(rec.recovered());
  EXPECT_DOUBLE_EQ(rec.recovery_time(), 10.0);  // 30 - 20
  // Deficit: (0.9-0.5)*(20-10) + (0.9-0.5)*(30-20) = 8.
  EXPECT_NEAR(rec.deficit, 8.0, 1e-12);
  EXPECT_TRUE(t.all_recovered());
}

TEST(RecoveryTracker, UnrecoveredFaultHasInfiniteRecoveryTime) {
  stats::RecoveryTracker t(0.9);
  t.observe(0.0, 1.0);
  const std::size_t f = t.inject("crash", 5.0);
  t.observe(5.0, 0.2);
  t.clear(f, 10.0);
  t.finish(20.0);  // run ends still at 0.2
  const auto& rec = t.records().at(f);
  EXPECT_FALSE(rec.recovered());
  EXPECT_TRUE(std::isinf(rec.recovery_time()));
  EXPECT_NEAR(rec.deficit, 0.7 * 15.0, 1e-12);
  EXPECT_FALSE(t.all_recovered());
}

TEST(RecoveryTracker, NoRecoveryBeforeClear) {
  // Consistency bobbing over the threshold while the fault is still active
  // must not count as recovery.
  stats::RecoveryTracker t(0.9);
  t.observe(0.0, 1.0);
  const std::size_t f = t.inject("partition", 10.0);
  t.observe(12.0, 0.95);  // above threshold but fault not cleared
  EXPECT_FALSE(t.records().at(f).recovered());
  t.clear(f, 20.0);       // clears while already >= threshold
  EXPECT_TRUE(t.records().at(f).recovered());
  EXPECT_DOUBLE_EQ(t.records().at(f).recovery_time(), 0.0);
}

TEST(RecoveryTracker, OverlappingEpisodesBothAccrueDeficit) {
  stats::RecoveryTracker t(0.9);
  t.observe(0.0, 0.4);
  const std::size_t a = t.inject("crash", 0.0);
  const std::size_t b = t.inject("burst", 5.0);
  t.clear(a, 10.0);
  t.clear(b, 10.0);
  t.observe(10.0, 1.0);
  t.finish(10.0);
  EXPECT_NEAR(t.records().at(a).deficit, 0.5 * 10.0, 1e-12);
  EXPECT_NEAR(t.records().at(b).deficit, 0.5 * 5.0, 1e-12);
  EXPECT_TRUE(t.all_recovered());
}

TEST(RecoveryTracker, TrafficCounterDeltaPerEpisode) {
  double traffic = 100.0;
  stats::RecoveryTracker t(0.9);
  t.set_traffic_counter([&] { return traffic; });
  t.observe(0.0, 1.0);
  const std::size_t f = t.inject("crash", 1.0);
  t.observe(1.0, 0.0);
  traffic = 180.0;  // repairs spent during the episode
  t.clear(f, 5.0);
  t.observe(6.0, 1.0);
  EXPECT_DOUBLE_EQ(t.records().at(f).repair_overhead, 80.0);
}

// ------------------------------------------------------- core experiment E2E

core::ExperimentConfig recovering_config() {
  core::ExperimentConfig cfg;
  cfg.variant = core::Variant::kFeedback;
  cfg.workload.insert_rate = core::insert_rate_from_kbps(10.0, 1000);
  cfg.workload.death_mode = core::DeathMode::kExponentialLifetime;
  cfg.workload.mean_lifetime = 240.0;
  cfg.mu_data = sim::kbps(60);
  cfg.mu_fb = sim::kbps(15);
  cfg.hot_share = 0.7;
  cfg.loss_rate = 0.05;
  cfg.num_receivers = 2;
  cfg.duration = 1500.0;
  cfg.warmup = 200.0;
  cfg.seed = 5;
  return cfg;
}

TEST(FaultInjection, CrashRecoversAboveThresholdWithFiniteTime) {
  // The acceptance test: a sender crash of duration D heals through normal
  // protocol operation — consistency climbs back over 0.9 and every fault's
  // recovery time is finite.
  FaultPlan plan;
  plan.crash(600.0, 60.0);
  InjectorConfig icfg;
  icfg.threshold = 0.9;
  const auto run = run_experiment_with_faults(recovering_config(), plan, icfg);
  ASSERT_EQ(run.recoveries.size(), 1u);
  const auto& rec = run.recoveries[0];
  EXPECT_EQ(rec.label, "crash");
  EXPECT_DOUBLE_EQ(rec.injected_at, 600.0);
  EXPECT_DOUBLE_EQ(rec.cleared_at, 660.0);
  EXPECT_TRUE(rec.recovered());
  EXPECT_TRUE(std::isfinite(rec.recovery_time()));
  EXPECT_GT(rec.deficit, 0.0) << "a 60 s crash must dent consistency";
  EXPECT_GT(run.base.avg_consistency, 0.9);
}

TEST(FaultInjection, RunIsDeterministicInSeed) {
  FaultPlan plan;
  plan.crash(600.0, 60.0).burst_loss(0.4, 900.0, 30.0);
  InjectorConfig icfg;
  icfg.threshold = 0.9;
  const auto a = run_experiment_with_faults(recovering_config(), plan, icfg);
  const auto b = run_experiment_with_faults(recovering_config(), plan, icfg);
  ASSERT_EQ(a.recoveries.size(), b.recoveries.size());
  for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.recoveries[i].recovered_at, b.recoveries[i].recovered_at);
    EXPECT_DOUBLE_EQ(a.recoveries[i].deficit, b.recoveries[i].deficit);
    EXPECT_DOUBLE_EQ(a.recoveries[i].repair_overhead,
                     b.recoveries[i].repair_overhead);
  }
  EXPECT_DOUBLE_EQ(a.base.avg_consistency, b.base.avg_consistency);
  EXPECT_EQ(a.base.data_tx, b.base.data_tx);
}

TEST(FaultInjection, EmptyPlanMatchesPlainRun) {
  // The switchable-loss wrappers and membership plumbing must be invisible
  // when no fault fires: a faulted run with an empty plan reproduces
  // run_experiment draw for draw.
  const auto cfg = recovering_config();
  const auto plain = core::run_experiment(cfg);
  const auto faulted = run_experiment_with_faults(cfg, FaultPlan{}, {});
  EXPECT_DOUBLE_EQ(faulted.base.avg_consistency, plain.avg_consistency);
  EXPECT_EQ(faulted.base.data_tx, plain.data_tx);
  EXPECT_EQ(faulted.base.nacks_sent, plain.nacks_sent);
  EXPECT_TRUE(faulted.recoveries.empty());
}

TEST(FaultInjection, FluidBackendRejectsFaultPlans) {
  // The pure-fluid backend is an ODE with no event engine: nothing for a
  // fault to act on, so the plan is refused rather than silently ignored.
  auto cfg = recovering_config();
  cfg.backend = core::Backend::kFluid;
  FaultPlan plan;
  plan.crash(300.0, 20.0);
  EXPECT_THROW(run_experiment_with_faults(cfg, plan, {}),
               std::invalid_argument);
}

TEST(FaultInjection, PartitionHealsAndLeaveShrinksMembership) {
  FaultPlan plan;
  plan.partition(0, 500.0, 60.0).leave(1, 900.0);
  InjectorConfig icfg;
  icfg.threshold = 0.9;

  core::Experiment exp(recovering_config());
  FaultInjector inj(exp.simulator(), plan, hooks_for(exp), icfg);
  exp.run_warmup();
  inj.arm();
  const auto result = exp.finish();
  inj.finalize();

  EXPECT_TRUE(inj.tracker().all_recovered());
  EXPECT_FALSE(exp.receiver_active(1));
  EXPECT_TRUE(exp.receiver_active(0));
  EXPECT_GT(result.avg_consistency, 0.9);
}

TEST(FaultInjection, LateJoinerCatchesUpInCoreHarness) {
  FaultPlan plan;
  plan.join(600.0);
  InjectorConfig icfg;
  icfg.threshold = 0.9;
  const auto run = run_experiment_with_faults(recovering_config(), plan, icfg);
  ASSERT_EQ(run.join_catch_up.size(), 1u);
  EXPECT_GE(run.join_catch_up[0], 0.0) << "joiner never reached c >= 0.9";
  EXPECT_LT(run.join_catch_up[0], 600.0);
  ASSERT_EQ(run.recoveries.size(), 1u);
  EXPECT_TRUE(run.recoveries[0].recovered());
}

TEST(FaultInjection, BandwidthDegradationRecoversAfterRestore) {
  FaultPlan plan;
  plan.bandwidth(0.15, 600.0, 120.0);  // 60 kbps -> 9 kbps, below lambda
  InjectorConfig icfg;
  icfg.threshold = 0.9;
  const auto run = run_experiment_with_faults(recovering_config(), plan, icfg);
  ASSERT_EQ(run.recoveries.size(), 1u);
  EXPECT_GT(run.recoveries[0].deficit, 0.0)
      << "starving the announcement channel must dent consistency";
  EXPECT_TRUE(run.recoveries[0].recovered());
}

// -------------------------------------------------------- SSTP session E2E

TEST(FaultInjection, SstpSessionCrashRecoversViaInjector) {
  sim::Simulator sim;
  sstp::SessionConfig cfg;
  cfg.sender.mu_data = sim::kbps(64);
  cfg.sender.min_summary_interval = 0.5;
  cfg.sender.algo = hash::DigestAlgo::kFnv1a;
  cfg.receiver.retry_timeout = 1.0;
  cfg.receiver.report_interval = 2.0;
  cfg.receiver.session_ttl = 15.0;
  cfg.mu_fb = sim::kbps(16);
  cfg.loss_rate = 0.1;
  sstp::Session session(sim, cfg);
  for (int i = 0; i < 5; ++i) {
    session.sender().publish(
        sstp::Path::parse("/f/" + std::to_string(i)),
        std::vector<std::uint8_t>(300, static_cast<std::uint8_t>(i)));
  }
  sim.run_until(30.0);
  ASSERT_DOUBLE_EQ(session.instantaneous_consistency(), 1.0);

  FaultPlan plan;
  plan.crash(60.0, 40.0);  // > session_ttl: receiver state evaporates
  InjectorConfig icfg;
  icfg.threshold = 0.9;
  FaultInjector inj(sim, plan, hooks_for(session), icfg);
  inj.arm();
  sim.run_until(400.0);
  inj.finalize();

  ASSERT_EQ(inj.records().size(), 1u);
  const auto& rec = inj.records()[0];
  EXPECT_TRUE(rec.recovered());
  EXPECT_TRUE(std::isfinite(rec.recovery_time()));
  EXPECT_GT(rec.deficit, 0.0);
  EXPECT_GT(rec.repair_overhead, 0.0) << "rebuild costs repair traffic";
  EXPECT_DOUBLE_EQ(session.instantaneous_consistency(), 1.0);
}

TEST(FaultInjection, SstpLateJoinerConvergesViaInjector) {
  sim::Simulator sim;
  sstp::SessionConfig cfg;
  cfg.sender.mu_data = sim::kbps(64);
  cfg.sender.min_summary_interval = 0.5;
  cfg.sender.algo = hash::DigestAlgo::kFnv1a;
  cfg.receiver.retry_timeout = 1.0;
  cfg.receiver.report_interval = 2.0;
  cfg.mu_fb = sim::kbps(16);
  cfg.loss_rate = 0.2;
  cfg.seed = 13;
  sstp::Session session(sim, cfg);
  for (int i = 0; i < 8; ++i) {
    session.sender().publish(
        sstp::Path::parse("/j/" + std::to_string(i)),
        std::vector<std::uint8_t>(400, static_cast<std::uint8_t>(i)));
  }
  sim.run_until(60.0);
  ASSERT_DOUBLE_EQ(session.instantaneous_consistency(), 1.0);

  FaultPlan plan;
  plan.join(100.0);
  FaultInjector inj(sim, plan, hooks_for(session), {});
  inj.arm();
  sim.run_until(500.0);
  inj.finalize();

  ASSERT_EQ(inj.joined_receivers().size(), 1u);
  const std::size_t r = inj.joined_receivers()[0];
  EXPECT_EQ(session.receiver(r).tree().leaf_count(), 8u)
      << "late joiner must converge from summaries alone";
  const auto latencies = inj.join_catch_up_latencies();
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_GE(latencies[0], 0.0);
  EXPECT_TRUE(inj.tracker().all_recovered());
}

}  // namespace
}  // namespace sst::fault

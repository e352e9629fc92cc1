// Tests for the consistency metric implementation: c(t), E[c(t)], and
// receive latency, checked against hand-computed scenarios.
#include <gtest/gtest.h>

#include <deque>

#include "core/monitor.hpp"
#include "core/table.hpp"
#include "sim/simulator.hpp"

namespace sst::core {
namespace {

struct Fixture {
  sim::Simulator sim;
  PublisherTable pub;
  ConsistencyMonitor monitor{sim, pub};
  ConsistencyIntegral consistency{{&monitor}, 0.0};
  ReceiverTable recv{sim, 0.0};

  Fixture() { consistency.attach(monitor, recv); }
};

TEST(Monitor, EmptyLiveSetIsVacuouslyConsistent) {
  Fixture f;
  EXPECT_DOUBLE_EQ(f.consistency.instantaneous(), 1.0);
  f.sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(f.consistency.average(f.sim.now()), 1.0);
}

TEST(Monitor, InsertMakesInconsistentUntilReceived) {
  Fixture f;
  const Key k = f.pub.insert({}, 100);
  EXPECT_DOUBLE_EQ(f.consistency.instantaneous(), 0.0);
  f.recv.refresh(k, 1);
  EXPECT_DOUBLE_EQ(f.consistency.instantaneous(), 1.0);
}

TEST(Monitor, UpdateInvalidatesReceiverCopy) {
  Fixture f;
  const Key k = f.pub.insert({}, 100);
  f.recv.refresh(k, 1);
  EXPECT_DOUBLE_EQ(f.consistency.instantaneous(), 1.0);
  f.pub.update(k, {});
  EXPECT_DOUBLE_EQ(f.consistency.instantaneous(), 0.0);
  f.recv.refresh(k, 2);
  EXPECT_DOUBLE_EQ(f.consistency.instantaneous(), 1.0);
}

TEST(Monitor, StaleRefreshDoesNotCount) {
  Fixture f;
  const Key k = f.pub.insert({}, 100);
  f.pub.update(k, {});  // version 2
  f.recv.refresh(k, 1); // receiver applies old announcement
  EXPECT_DOUBLE_EQ(f.consistency.instantaneous(), 0.0);
}

TEST(Monitor, RemoveShrinksLiveSet) {
  Fixture f;
  const Key a = f.pub.insert({}, 100);
  const Key b = f.pub.insert({}, 100);
  f.recv.refresh(a, 1);
  EXPECT_DOUBLE_EQ(f.consistency.instantaneous(), 0.5);
  f.pub.remove(b);  // the inconsistent one dies
  EXPECT_DOUBLE_EQ(f.consistency.instantaneous(), 1.0);
}

TEST(Monitor, ReceiverExpiryMakesInconsistent) {
  sim::Simulator sim;
  PublisherTable pub;
  ConsistencyMonitor monitor(sim, pub);
  ConsistencyIntegral consistency({&monitor}, 0.0);
  ReceiverTable recv(sim, 5.0);
  consistency.attach(monitor, recv);
  const Key k = pub.insert({}, 100);
  recv.refresh(k, 1);
  EXPECT_DOUBLE_EQ(consistency.instantaneous(), 1.0);
  sim.run_until(6.0);  // receiver entry expires, key still live
  EXPECT_DOUBLE_EQ(consistency.instantaneous(), 0.0);
}

TEST(Monitor, TimeAverageHandComputed) {
  Fixture f;
  // t=0: insert (c=0). t=4: received (c=1). t=10: end.
  const Key k = f.pub.insert({}, 100);
  f.sim.at(4.0, [&] { f.recv.refresh(k, 1); });
  f.sim.run_until(10.0);
  EXPECT_NEAR(f.consistency.average(f.sim.now()), 0.6, 1e-12);
}

TEST(Monitor, MultipleReceiversAveraged) {
  sim::Simulator sim;
  PublisherTable pub;
  ConsistencyMonitor monitor(sim, pub);
  ConsistencyIntegral consistency({&monitor}, 0.0);
  ReceiverTable r1(sim, 0.0), r2(sim, 0.0);
  consistency.attach(monitor, r1);
  consistency.attach(monitor, r2);
  const Key k = pub.insert({}, 100);
  r1.refresh(k, 1);
  EXPECT_DOUBLE_EQ(consistency.instantaneous(), 0.5);
  r2.refresh(k, 1);
  EXPECT_DOUBLE_EQ(consistency.instantaneous(), 1.0);
}

TEST(Monitor, LatencyMeasuredFromIntroductionToFirstReceipt) {
  Fixture f;
  const Key k = f.pub.insert({}, 100);
  f.sim.at(2.5, [&] { f.recv.refresh(k, 1); });
  f.sim.at(5.0, [&] { f.recv.refresh(k, 1); });  // duplicate: not re-counted
  f.sim.run();
  ASSERT_EQ(f.consistency.latency().count(), 1u);
  EXPECT_DOUBLE_EQ(f.consistency.latency().quantile(0.5), 2.5);
}

TEST(Monitor, LatencyPerVersion) {
  Fixture f;
  const Key k = f.pub.insert({}, 100);
  f.sim.at(1.0, [&] { f.recv.refresh(k, 1); });
  f.sim.at(3.0, [&] { f.pub.update(k, {}); });
  f.sim.at(7.0, [&] { f.recv.refresh(k, 2); });
  f.sim.run();
  ASSERT_EQ(f.consistency.latency().count(), 2u);
  EXPECT_DOUBLE_EQ(f.consistency.latency().quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(f.consistency.latency().quantile(1.0), 4.0);
}

TEST(Monitor, SupersededVersionReceiptNotCounted) {
  Fixture f;
  const Key k = f.pub.insert({}, 100);
  f.sim.at(1.0, [&] { f.pub.update(k, {}); });       // v2 supersedes v1
  f.sim.at(2.0, [&] { f.recv.refresh(k, 1); });      // stale receipt
  f.sim.run();
  EXPECT_EQ(f.consistency.latency().count(), 0u);
  EXPECT_EQ(f.monitor.versions_received(), 0u);
  EXPECT_EQ(f.monitor.versions_introduced(), 2u);
}

TEST(Monitor, ResetStatsDiscardsHistoryKeepsState) {
  Fixture f;
  const Key k = f.pub.insert({}, 100);
  f.sim.run_until(10.0);  // c = 0 for 10 s
  f.consistency.reset(f.sim.now());
  f.recv.refresh(k, 1);
  f.sim.run_until(20.0);  // c = 1 for 10 s
  EXPECT_NEAR(f.consistency.average(f.sim.now()), 1.0, 1e-9);
  EXPECT_EQ(f.monitor.versions_introduced(), 0u);  // counted pre-reset
}

TEST(Monitor, IntegralDifferencing) {
  Fixture f;
  const Key k = f.pub.insert({}, 100);
  f.sim.at(5.0, [&] { f.recv.refresh(k, 1); });
  f.sim.run_until(5.0);
  const double i1 = f.consistency.integral(f.sim.now());
  f.sim.run_until(9.0);
  const double i2 = f.consistency.integral(f.sim.now());
  EXPECT_NEAR(i2 - i1, 4.0, 1e-12);  // consistent throughout [5,9)
}

TEST(Monitor, ConsistencyBoundedZeroOne) {
  Fixture f;
  for (int i = 0; i < 10; ++i) f.pub.insert({}, 100);
  const double c = f.consistency.instantaneous();
  EXPECT_GE(c, 0.0);
  EXPECT_LE(c, 1.0);
}

// ------------------------------------------------------- dynamic membership

TEST(Monitor, DetachedReceiverExcludedFromAverage) {
  sim::Simulator sim;
  PublisherTable pub;
  ConsistencyMonitor monitor(sim, pub);
  ConsistencyIntegral consistency({&monitor}, 0.0);
  ReceiverTable r1(sim, 0.0), r2(sim, 0.0);
  consistency.attach(monitor, r1);
  consistency.attach(monitor, r2);
  const Key k = pub.insert({}, 100);
  r1.refresh(k, 1);
  EXPECT_DOUBLE_EQ(consistency.instantaneous(), 0.5);
  consistency.detach(monitor, 1);  // the inconsistent receiver leaves
  EXPECT_FALSE(monitor.active(1));
  EXPECT_DOUBLE_EQ(consistency.instantaneous(), 1.0);
}

TEST(Monitor, DetachLastReceiverVacuouslyConsistent) {
  Fixture f;
  f.pub.insert({}, 100);
  EXPECT_DOUBLE_EQ(f.consistency.instantaneous(), 0.0);
  f.consistency.detach(f.monitor, 0);
  EXPECT_DOUBLE_EQ(f.consistency.instantaneous(), 1.0);
  EXPECT_TRUE(f.consistency.active_receivers() == 0u);
}

TEST(Monitor, MidRunAttachStartsInconsistent) {
  Fixture f;
  const Key k = f.pub.insert({}, 100);
  f.recv.refresh(k, 1);
  EXPECT_DOUBLE_EQ(f.consistency.instantaneous(), 1.0);
  ReceiverTable late(f.sim, 0.0);
  f.sim.run_until(5.0);
  f.consistency.attach(f.monitor, late);  // empty table, one live key -> c_late = 0
  EXPECT_DOUBLE_EQ(f.consistency.instantaneous(), 0.5);
  late.refresh(k, 1);
  EXPECT_DOUBLE_EQ(f.consistency.instantaneous(), 1.0);
}

TEST(Monitor, LateJoinerCatchUpLatency) {
  Fixture f;
  const Key a = f.pub.insert({}, 100);
  const Key b = f.pub.insert({}, 100);
  f.recv.refresh(a, 1);
  f.recv.refresh(b, 1);
  ReceiverTable late(f.sim, 0.0);
  f.sim.at(10.0, [&] { f.consistency.attach(f.monitor, late); });
  f.sim.at(12.0, [&] { late.refresh(a, 1); });  // c_late = 0.5 < 0.9
  f.sim.at(17.0, [&] { late.refresh(b, 1); });  // c_late = 1.0 -> caught up
  f.sim.run_until(11.0);
  EXPECT_LT(f.monitor.catch_up_latency(1), 0.0);  // still converging
  f.sim.run_until(20.0);
  EXPECT_DOUBLE_EQ(f.monitor.catch_up_latency(1), 7.0);
}

TEST(Monitor, InitialReceiverCatchesUpImmediately) {
  Fixture f;  // attached before any publishes: already at c = 1
  f.pub.insert({}, 100);
  EXPECT_DOUBLE_EQ(f.monitor.catch_up_latency(0), 0.0);
}

TEST(Monitor, LateJoinerRefreshDoesNotCountTowardVersionLatency) {
  Fixture f;
  const Key k = f.pub.insert({}, 100);
  f.recv.refresh(k, 1);
  ASSERT_EQ(f.consistency.latency().count(), 1u);
  ReceiverTable late(f.sim, 0.0);
  f.sim.at(5.0, [&] { f.consistency.attach(f.monitor, late); });
  f.sim.at(8.0, [&] { late.refresh(k, 1); });
  f.sim.run();
  // The joiner's catch-up receipt is not a version-propagation sample.
  EXPECT_EQ(f.consistency.latency().count(), 1u);
}

TEST(Monitor, DetachSettlesPendingVersions) {
  sim::Simulator sim;
  PublisherTable pub;
  ConsistencyMonitor monitor(sim, pub);
  ConsistencyIntegral consistency({&monitor}, 0.0);
  ReceiverTable r1(sim, 0.0), r2(sim, 0.0);
  consistency.attach(monitor, r1);
  consistency.attach(monitor, r2);
  const Key k = pub.insert({}, 100);
  sim.at(3.0, [&] { r1.refresh(k, 1); });
  // r2 never receives it; detaching r2 must settle the version as fully
  // received (latency recorded once, from r1).
  sim.at(6.0, [&] { consistency.detach(monitor, 1); });
  sim.run();
  EXPECT_EQ(monitor.versions_received(), 1u);
  EXPECT_EQ(consistency.latency().count(), 1u);
}

TEST(Monitor, TimeAverageAcrossMembershipChange) {
  sim::Simulator sim;
  PublisherTable pub;
  ConsistencyMonitor monitor(sim, pub);
  ConsistencyIntegral consistency({&monitor}, 0.0);
  ReceiverTable r1(sim, 0.0), r2(sim, 0.0);
  consistency.attach(monitor, r1);
  consistency.attach(monitor, r2);
  const Key k = pub.insert({}, 100);
  r1.refresh(k, 1);
  // c = 0.5 over [0,4), then r2 leaves: c = 1.0 over [4,10).
  sim.at(4.0, [&] { consistency.detach(monitor, 1); });
  sim.run_until(10.0);
  EXPECT_NEAR(consistency.average(sim.now()), (0.5 * 4 + 1.0 * 6) / 10, 1e-12);
}

// ------------------------------------------------- sharded reduction

// The sharded engine reduces E[c] over its shard monitors with the same
// ConsistencyIntegral the single-queue engine runs over its one monitor.
// Split the same receivers across two shard-mode monitors: through a reset
// with a join at the reset instant, a late join on the tail monitor, a
// leave, and two joins plus a leave at one instant, every reduction must
// equal the single monitor's bit for bit.
TEST(ConsistencyIntegral, ShardMonitorsReduceLikeOneMonitor) {
  sim::Simulator sim;
  PublisherTable pub;
  ConsistencyMonitor whole(sim, pub);
  ConsistencyIntegral single({&whole}, sim.now());
  ConsistencyMonitor lo(sim), hi(sim);
  pub.subscribe([&](const Record& rec, ChangeKind kind) {
    lo.apply_publisher_change(rec, kind);
    hi.apply_publisher_change(rec, kind);
  });
  ConsistencyIntegral split({&lo, &hi}, sim.now());
  std::deque<ReceiverTable> one, two;  // the same receivers, twice
  const auto join = [&](ConsistencyMonitor& shard) {
    single.attach(whole, one.emplace_back(sim, 0.0));
    split.attach(shard, two.emplace_back(sim, 0.0));
  };
  // Receiver r of `whole` is receiver r - base of `hi` (hi holds r >= 1).
  const auto leave = [&](std::size_t r) {
    single.detach(whole, r);
    split.detach(hi, r - 1);
  };
  const auto refresh = [&](std::size_t r, Key key, Version version) {
    one[r].refresh(key, version);
    two[r].refresh(key, version);
  };
  join(lo);
  join(hi);
  const Key a = pub.insert({}, 100);
  const Key b = pub.insert({}, 100);
  sim.at(1.5, [&] { refresh(0, a, 1); });
  sim.at(2.0, [&] {
    single.reset(sim.now());
    split.reset(sim.now());
    join(hi);  // r2, at the reset instant
  });
  sim.at(2.25, [&] { refresh(1, b, 1); });
  sim.at(2.5, [&] { refresh(2, a, 1); });
  sim.at(3.0, [&] { join(hi); });  // r3
  sim.at(4.5, [&] {
    refresh(3, a, 1);
    pub.update(b, {});
  });
  sim.at(6.0, [&] { leave(1); });
  sim.at(7.25, [&] { refresh(3, b, 2); });
  sim.at(8.0, [&] {
    join(hi);  // r4
    join(hi);  // r5
    leave(2);
  });
  sim.at(9.0, [&] {
    refresh(4, a, 1);
    refresh(5, b, 2);
  });
  sim.run_until(10.0);

  EXPECT_EQ(split.integral(sim.now()), single.integral(sim.now()));
  EXPECT_EQ(split.average(sim.now()), single.average(sim.now()));
  EXPECT_EQ(split.instantaneous(), single.instantaneous());
  EXPECT_EQ(split.active_receivers(), single.active_receivers());
  ASSERT_EQ(split.latency().count(), 2u);  // r1's b@v1 and r3's b@v2
  ASSERT_EQ(single.latency().count(), 2u);
  EXPECT_EQ(split.latency().mean(), single.latency().mean());
}

}  // namespace
}  // namespace sst::core

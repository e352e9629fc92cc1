// Order equivalence of core::FanOut: the same endpoint set driven with one
// delivery event per endpoint (net::Channel local endpoints) and with one
// batch event per (send, arrival instant) must make the same handler calls
// — same time, same endpoint, same message, same order — including calls
// interleaved with unrelated events at the same instants.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/fanout.hpp"
#include "core/messages.hpp"
#include "core/rig_build.hpp"
#include "net/channel.hpp"
#include "net/delay.hpp"
#include "net/loss.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace sst::core {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
constexpr std::uint32_t kMarker = 900;    // an unrelated event
constexpr std::uint32_t kFollowUp = 1000;  // scheduled by a handler at now

/// One handler call (or marker) as observed: when, where, what.
struct Call {
  double time;
  std::uint32_t ep;
  std::uint32_t msg;
  bool operator==(const Call&) const = default;
};

/// Delay of base + k * step with k drawn from {0, 1, 2}: jitter coarse
/// enough that several endpoints of one send share each arrival instant.
class StepDelay final : public net::DelayModel {
 public:
  StepDelay(double base, double step, sim::Rng rng)
      : base_(base), step_(step), rng_(rng) {}
  sim::Duration delay(sim::SimTime) override {
    return base_ + step_ * static_cast<double>(rng_.uniform_int(3));
  }

 private:
  double base_;
  double step_;
  sim::Rng rng_;
};

struct Scenario {
  std::size_t endpoints = 6;
  double jitter_step = 0.0;        // 0 = fixed delay
  double loss = 0.2;
  std::vector<std::pair<double, std::uint32_t>> sends;  // (time, message)
  std::size_t disabled = kNone;    // endpoint disabled from t = 0.15 on
  std::size_t partitioned = kNone;  // endpoint whose path is down
  std::size_t reschedules = kNone;  // endpoint whose handler calls at(now)
  bool group = false;  // NACK group: endpoint 0 the sender, origin echoes
};

constexpr double kDelay = 0.1;

NackMsg message(const Scenario& sc, std::uint32_t id) {
  NackMsg m;
  m.missing_seqs = {id};
  m.size = 100;
  // Group scenarios: message id names its originating endpoint.
  m.origin = sc.group ? id % static_cast<std::uint32_t>(sc.endpoints) : 0;
  return m;
}

std::vector<Call> drive(const Scenario& sc, bool batched) {
  sim::Simulator sim;
  const sim::Rng root(42);
  std::vector<Call> calls;
  const auto on = [&](std::uint32_t ep, const NackMsg& m) {
    const auto id = static_cast<std::uint32_t>(m.missing_seqs.front());
    calls.push_back({sim.now(), ep, id});
    if (ep == sc.reschedules) {
      sim.at(sim.now(), [&calls, &sim, ep, id] {
        calls.push_back({sim.now(), kFollowUp + ep, id});
      });
    }
  };

  net::Channel<NackMsg> channel(sim);
  FanOut<NackMsg> fanout(sim, [&](const NackMsg& m,
                                  const std::vector<std::uint32_t>& eps) {
    if (!sc.group) {
      for (const std::uint32_t ep : eps) on(ep, m);
      return;
    }
    rig::for_each_group_target(
        m, eps, [&] { on(rig::kGroupSender, m); },
        [&](std::size_t r) { on(rig::group_origin(r), m); });
  });
  std::vector<net::SwitchableLoss*> switches;
  for (std::size_t i = 0; i < sc.endpoints; ++i) {
    auto loss = std::make_unique<net::SwitchableLoss>(
        std::make_unique<net::BernoulliLoss>(sc.loss, root.fork("loss", i)),
        root.fork("switch", i));
    switches.push_back(loss.get());
    std::unique_ptr<net::DelayModel> delay;
    if (sc.jitter_step > 0) {
      delay = std::make_unique<StepDelay>(kDelay, sc.jitter_step,
                                          root.fork("delay", i));
    } else {
      delay = std::make_unique<net::FixedDelay>(kDelay);
    }
    if (batched) {
      fanout.add_endpoint(std::move(loss), std::move(delay));
    } else {
      const auto ep = static_cast<std::uint32_t>(i);
      channel.add_receiver(std::move(loss), std::move(delay),
                           [&on, &sc, ep](const NackMsg& m) {
                             // The group's origin filter, per endpoint.
                             if (sc.group && ep != rig::kGroupSender &&
                                 m.origin == ep) {
                               return;
                             }
                             on(ep, m);
                           });
    }
  }
  if (sc.partitioned != kNone) switches[sc.partitioned]->set_down(true);
  const auto send = [&](const NackMsg& m) {
    batched ? fanout.send(m, m.size) : channel.send(m, m.size);
  };
  const auto enable = [&](std::size_t ep, bool on_off) {
    batched ? fanout.set_endpoint_enabled(ep, on_off)
            : channel.set_receiver_enabled(ep, on_off);
  };

  for (const auto& [t, id] : sc.sends) {
    // A marker queued before the send at its fixed-delay arrival instant,
    // and one queued after it, bracket the deliveries there.
    sim.at(t + kDelay, [&calls, &sim, id = id] {
      calls.push_back({sim.now(), kMarker, id});
    });
    sim.at(t, [&, id = id] {
      send(message(sc, id));
      sim.at(sim.now() + kDelay, [&calls, &sim, id] {
        calls.push_back({sim.now(), kMarker + 1, id});
      });
    });
  }
  if (sc.disabled != kNone) {
    sim.at(0.15, [&] { enable(sc.disabled, false); });
  }
  sim.run();

  const auto& stats = batched ? fanout.channel().stats() : channel.stats();
  calls.push_back({0.0, static_cast<std::uint32_t>(stats.delivered),
                   static_cast<std::uint32_t>(stats.dropped)});
  return calls;
}

void expect_same_calls(const Scenario& sc) {
  const auto per_endpoint = drive(sc, false);
  const auto batched = drive(sc, true);
  ASSERT_EQ(per_endpoint.size(), batched.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(per_endpoint[i], batched[i])
        << "call " << i << ": (" << per_endpoint[i].time << ", "
        << per_endpoint[i].ep << ", " << per_endpoint[i].msg << ") vs ("
        << batched[i].time << ", " << batched[i].ep << ", " << batched[i].msg
        << ")";
  }
}

std::vector<std::pair<double, std::uint32_t>> a_few_sends() {
  return {{0.0, 1}, {0.05, 2}, {0.1, 3}, {0.3, 4}, {0.31, 5}};
}

TEST(FanOutOrder, FixedDelay) {
  Scenario sc;
  sc.sends = a_few_sends();
  expect_same_calls(sc);
}

TEST(FanOutOrder, JitteredDelaySplitsOneSendAcrossInstants) {
  Scenario sc;
  sc.jitter_step = 0.05;
  sc.loss = 0.0;
  sc.endpoints = 9;
  sc.sends = a_few_sends();
  expect_same_calls(sc);
}

TEST(FanOutOrder, DisabledEndpoint) {
  Scenario sc;
  sc.disabled = 2;
  sc.sends = a_few_sends();
  expect_same_calls(sc);
}

TEST(FanOutOrder, PartitionedEndpointDrops) {
  Scenario sc;
  sc.partitioned = 1;
  sc.jitter_step = 0.05;
  sc.sends = a_few_sends();
  expect_same_calls(sc);
}

TEST(FanOutOrder, TwoSendsAtOneInstant) {
  Scenario sc;
  sc.sends = {{0.0, 1}, {0.0, 2}, {0.2, 3}, {0.2, 4}, {0.2, 5}};
  expect_same_calls(sc);
  sc.jitter_step = 0.05;
  expect_same_calls(sc);
}

TEST(FanOutOrder, GroupOriginSelfEcho) {
  Scenario sc;
  sc.group = true;
  sc.loss = 0.0;
  sc.sends = {{0.0, 1}, {0.0, 2}, {0.1, 3}, {0.2, 6}, {0.2, 13}};
  expect_same_calls(sc);
  sc.jitter_step = 0.05;
  expect_same_calls(sc);
}

TEST(FanOutOrder, HandlerSchedulingAtNow) {
  Scenario sc;
  sc.reschedules = 3;
  sc.sends = a_few_sends();
  expect_same_calls(sc);
  sc.jitter_step = 0.05;
  expect_same_calls(sc);
}

TEST(FanOut, OneEndpointSendSchedulesOneEvent) {
  sim::Simulator sim;
  int delivered = 0;
  FanOut<DataMsg> fanout(sim, [&](const DataMsg&,
                                  const std::vector<std::uint32_t>& eps) {
    delivered += static_cast<int>(eps.size());
  });
  fanout.add_endpoint(std::make_unique<net::NoLoss>(),
                      std::make_unique<net::FixedDelay>(kDelay));
  for (int i = 0; i < 3; ++i) {
    fanout.send(DataMsg{}, 1000);
    EXPECT_EQ(sim.pending(), 1u);
    sim.run();
  }
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(sim.fired(), 3u);
}

TEST(FanOut, ManyEndpointsOneInstantScheduleOneEvent) {
  sim::Simulator sim;
  std::vector<std::uint32_t> seen;
  FanOut<DataMsg> fanout(sim, [&](const DataMsg&,
                                  const std::vector<std::uint32_t>& eps) {
    seen.insert(seen.end(), eps.begin(), eps.end());
  });
  for (int i = 0; i < 50; ++i) {
    fanout.add_endpoint(std::make_unique<net::NoLoss>(),
                        std::make_unique<net::FixedDelay>(kDelay));
  }
  fanout.send(DataMsg{}, 1000);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  ASSERT_EQ(seen.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(seen[i], i);
}

}  // namespace
}  // namespace sst::core

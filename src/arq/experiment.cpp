#include "arq/experiment.hpp"

#include <memory>

#include "core/monitor.hpp"
#include "core/table.hpp"
#include "net/channel.hpp"
#include "net/delay.hpp"
#include "net/link.hpp"
#include "net/loss.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace sst::arq {

namespace {

std::unique_ptr<net::LossModel> make_loss(
    double rate, const std::vector<std::pair<double, double>>& outages,
    sim::Rng rng) {
  std::unique_ptr<net::LossModel> base;
  if (rate <= 0.0) {
    base = std::make_unique<net::NoLoss>();
  } else {
    base = std::make_unique<net::BernoulliLoss>(rate, rng);
  }
  if (!outages.empty()) {
    return std::make_unique<net::OutageLoss>(std::move(base), outages);
  }
  return base;
}

}  // namespace

HardStateResult run_hard_state(const HardStateConfig& cfg) {
  sim::Simulator sim;
  const sim::Rng root(cfg.seed);

  core::PublisherTable pub;
  core::ConsistencyMonitor monitor(sim, pub);
  core::ConsistencyIntegral consistency({&monitor}, sim.now());
  core::Workload workload(sim, pub, cfg.workload, root.fork("workload"));

  core::ReceiverTable recv_table(sim, /*ttl=*/0.0);  // hard state: no expiry
  consistency.attach(monitor, recv_table);

  // Forward path: sender -> rate-limited link -> lossy channel -> receiver.
  // Reverse path symmetric for ACKs.
  net::Channel<ArqMsg> fwd_channel(sim);
  net::Channel<ArqMsg> rev_channel(sim);

  Receiver* receiver_ptr = nullptr;
  fwd_channel.add_receiver(
      make_loss(cfg.loss_rate, cfg.outages, root.fork("loss")),
      std::make_unique<net::FixedDelay>(cfg.delay),
      [&receiver_ptr](const ArqMsg& msg) {
        if (receiver_ptr != nullptr) receiver_ptr->handle(msg);
      });

  Sender* sender_ptr = nullptr;
  const double ack_loss =
      cfg.ack_loss_rate < 0 ? cfg.loss_rate : cfg.ack_loss_rate;
  rev_channel.add_receiver(
      make_loss(ack_loss, cfg.outages, root.fork("ack-loss")),
      std::make_unique<net::FixedDelay>(cfg.delay),
      [&sender_ptr](const ArqMsg& msg) {
        if (sender_ptr != nullptr) sender_ptr->handle(msg);
      });

  // Optional hostile stages between each rate-limited link and its lossy
  // channel; only built when configured, so FIFO runs are unchanged.
  std::unique_ptr<net::HostileChannel<ArqMsg>> fwd_hostile;
  if (cfg.fwd_hostile.active()) {
    fwd_hostile = std::make_unique<net::HostileChannel<ArqMsg>>(
        sim, cfg.fwd_hostile, root.fork("hostile-fwd"),
        [&fwd_channel](const ArqMsg& msg, sim::Bytes size) {
          fwd_channel.send(msg, size);
        });
  }
  std::unique_ptr<net::HostileChannel<ArqMsg>> ack_hostile;
  if (cfg.ack_hostile.active()) {
    ack_hostile = std::make_unique<net::HostileChannel<ArqMsg>>(
        sim, cfg.ack_hostile, root.fork("hostile-ack"),
        [&rev_channel](const ArqMsg& msg, sim::Bytes size) {
          rev_channel.send(msg, size);
        });
  }

  net::Link<ArqMsg> fwd_link(
      sim, cfg.mu_data,
      [&fwd_channel, &fwd_hostile](const ArqMsg& msg, sim::Bytes size) {
        if (fwd_hostile != nullptr) {
          fwd_hostile->send(msg, size);
        } else {
          fwd_channel.send(msg, size);
        }
      },
      /*queue_limit=*/16);
  net::Link<ArqMsg> rev_link(
      sim, cfg.mu_ack,
      [&rev_channel, &ack_hostile](const ArqMsg& msg, sim::Bytes size) {
        if (ack_hostile != nullptr) {
          ack_hostile->send(msg, size);
        } else {
          rev_channel.send(msg, size);
        }
      },
      /*queue_limit=*/16);

  Sender sender(sim, pub, cfg.sender,
                [&fwd_link](const ArqMsg& msg, sim::Bytes size) {
                  fwd_link.send(msg, size);
                });
  Receiver receiver(sim, recv_table,
                    [&rev_link](const ArqMsg& msg, sim::Bytes size) {
                      rev_link.send(msg, size);
                    });
  sender_ptr = &sender;
  receiver_ptr = &receiver;

  sender.connect();
  workload.start();

  sim.run_until(cfg.warmup);
  consistency.reset(sim.now());
  const ArqSenderStats warm_s = sender.stats();
  const ArqReceiverStats warm_r = receiver.stats();
  const double warm_fwd_bytes = fwd_channel.stats().bytes_sent;
  const double warm_rev_bytes = rev_channel.stats().bytes_sent;

  HardStateResult result;
  std::unique_ptr<sim::PeriodicTimer> sampler;
  core::Timeline timeline(cfg.sample_interval);
  if (cfg.sample_interval > 0) {
    sampler = std::make_unique<sim::PeriodicTimer>(sim);
    sampler->start(cfg.sample_interval,
                   [&] { timeline.sample(consistency, sim.now()); });
  }
  sim.run_until(cfg.warmup + cfg.duration);
  if (sampler) sampler->stop();
  result.timeline = timeline.take();

  result.avg_consistency = consistency.average(sim.now());
  stats::Samples latency = consistency.latency();
  result.mean_latency = latency.mean();
  result.p95_latency = latency.quantile(0.95);

  const ArqSenderStats& s = sender.stats();
  const ArqReceiverStats& r = receiver.stats();
  result.data_tx = s.data_tx - warm_s.data_tx;
  result.retransmits = s.retransmits - warm_s.retransmits;
  result.acks = r.acks_tx - warm_r.acks_tx;
  result.connection_deaths = s.connection_deaths - warm_s.connection_deaths;
  result.reconnects =
      s.connects > warm_s.connects ? s.connects - warm_s.connects : 0;
  result.snapshot_ops = s.snapshot_ops - warm_s.snapshot_ops;
  result.table_flushes = r.flushes - warm_r.flushes;
  result.stale_syns = r.stale_syns - warm_r.stale_syns;
  result.offered_data_kbps =
      (fwd_channel.stats().bytes_sent - warm_fwd_bytes) * 8.0 /
      cfg.duration / 1000.0;
  result.offered_ack_kbps =
      (rev_channel.stats().bytes_sent - warm_rev_bytes) * 8.0 /
      cfg.duration / 1000.0;
  return result;
}

}  // namespace sst::arq

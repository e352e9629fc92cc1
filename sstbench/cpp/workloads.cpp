#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/meanfield.hpp"
#include "core/experiment.hpp"
#include "core/sharded.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hash/fnv.hpp"
#include "runner/runner.hpp"
#include "sim/random.hpp"
#include "sstp/path.hpp"
#include "sstp/session.hpp"

namespace sstbench {
namespace {

using namespace sst;
using Clock = std::chrono::steady_clock;

// Every per-layer metric a traced run reports. A layer the workload never
// enters reports 0.
constexpr std::string_view kLayerMetrics[] = {
    "sim.events",           "sim.events_per_s",     "sim.pending_peak",
    "core.rig_build_s",     "core.warmup_s",        "core.run_s",
    "core.collect_s",       "core.data_tx",         "core.repair_tx",
    "core.nacks_sent",      "core.nacks_suppressed", "core.us_per_nack",
    "monitor.versions_received", "shard.epochs_executed",
    "shard.epochs_skipped", "shard.barrier_wait_s", "shard.root_s",
    "shard.barrier_wait_frac", "shard.speedup_k3",  "runner.tasks",
    "runner.task_p50_ms",   "runner.task_p90_ms",   "runner.task_max_ms",
    "runner.pool_efficiency", "fluid.advance_s",    "fluid.sim_s_per_s",
    "sstp.publish_us_p50",  "sstp.publish_us_p99", "sstp.remove_us_p99",
    "sstp.consistency_us_p50", "sstp.run_s",        "sstp.events",
    "sstp.summary_tx",      "sstp.sig_tx",          "sstp.repair_tx",
    "sstp.forward_kB",      "sstp.feedback_kB",
};

class Digest {
 public:
  void add(std::uint64_t v) { h_ = hash::fnv1a64(v, h_); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view v) { h_ = hash::fnv1a64(v, h_); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = hash::kFnvOffset;
};

void fold(Digest& dg, const core::ExperimentResult& r) {
  for (const double v :
       {r.avg_consistency, r.mean_latency, r.p50_latency, r.p95_latency,
        r.redundant_fraction, r.observed_loss, r.offered_data_kbps,
        r.offered_fb_kbps, r.fluid_cohort, r.fluid_consistency, r.fluid_live,
        r.fluid_occupancy.fresh, r.fluid_occupancy.stale,
        r.fluid_occupancy.inconsistent, r.fluid_occupancy.recovering}) {
    dg.add(v);
  }
  for (const std::uint64_t v :
       {r.data_tx, r.hot_tx, r.cold_tx, r.repair_tx, r.redundant_tx,
        r.nacks_sent, r.nacks_received, r.nacks_suppressed, r.inserts,
        r.updates, r.versions_introduced, r.versions_received,
        std::uint64_t{r.final_live}, std::uint64_t{r.final_hot_depth},
        std::uint64_t{r.final_cold_depth}}) {
    dg.add(v);
  }
  for (const auto& p : r.timeline) {
    dg.add(p.time);
    dg.add(p.consistency);
  }
}

void fold(Digest& dg, const fault::FaultRunResult& r) {
  fold(dg, r.base);
  for (const auto& rec : r.recoveries) {
    dg.add(std::string_view(rec.label));
    for (const double v : {rec.injected_at, rec.cleared_at, rec.recovered_at,
                           rec.deficit, rec.repair_overhead}) {
      dg.add(v);
    }
  }
  for (const double v : r.join_catch_up) dg.add(v);
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Exact work counts of the single-queue core rigs a workload ran.
struct CoreCounts {
  std::uint64_t events = 0;
  std::size_t pending_peak = 0;
  std::uint64_t data_tx = 0;
  std::uint64_t repair_tx = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t nacks_suppressed = 0;
  std::uint64_t versions_received = 0;

  void add(const core::ExperimentResult& r, const sim::Simulator& sim) {
    events += sim.fired();
    data_tx += r.data_tx;
    repair_tx += r.repair_tx;
    nacks_sent += r.nacks_sent;
    nacks_suppressed += r.nacks_suppressed;
    versions_received += r.versions_received;
  }
  void add(const CoreCounts& o) {
    events += o.events;
    pending_peak = std::max(pending_peak, o.pending_peak);
    data_tx += o.data_tx;
    repair_tx += o.repair_tx;
    nacks_sent += o.nacks_sent;
    nacks_suppressed += o.nacks_suppressed;
    versions_received += o.versions_received;
  }
};

/// Per-layer metrics of the core harness and the event queue, derived from
/// the trace's spans and the rigs' exact counts.
void core_layers(const Trace& trace, const CoreCounts& c,
                 std::map<std::string, double>& m) {
  const double warmup = trace.total("core.warmup");
  const double run = trace.total("core.run");
  const double collect = trace.total("core.collect");
  m["core.rig_build_s"] = trace.total("core.rig_build");
  m["core.warmup_s"] = warmup;
  m["core.run_s"] = run;
  m["core.collect_s"] = collect;
  m["core.data_tx"] = static_cast<double>(c.data_tx);
  m["core.repair_tx"] = static_cast<double>(c.repair_tx);
  m["core.nacks_sent"] = static_cast<double>(c.nacks_sent);
  m["core.nacks_suppressed"] = static_cast<double>(c.nacks_suppressed);
  m["core.us_per_nack"] = ratio(run * 1e6, static_cast<double>(c.nacks_sent));
  m["monitor.versions_received"] = static_cast<double>(c.versions_received);
  m["sim.events"] = static_cast<double>(c.events);
  m["sim.pending_peak"] = static_cast<double>(c.pending_peak);
  m["sim.events_per_s"] =
      ratio(static_cast<double>(c.events), warmup + run + collect);
}

/// Drives a constructed single-queue rig to completion. `after_warmup` runs
/// at the warm-up cutoff (the fault injector arms there). Traced runs advance
/// in slices of `slice` sim-s and sample the pending-event count between
/// them; run_until fires the same events in the same order either way, and
/// the digest check holds traced runs to the untraced outputs.
core::ExperimentResult drive(core::Experiment& exp, Trace& trace,
                             double slice, CoreCounts& counts,
                             const std::function<void()>& after_warmup = {}) {
  {
    const Scope s(trace, "core.warmup");
    exp.run_warmup();
  }
  if (after_warmup) after_warmup();
  if (trace.enabled()) {
    const Scope s(trace, "core.run");
    const double end = exp.end_time();
    for (double t = exp.now() + slice; t < end; t += slice) {
      exp.run_until(t);
      counts.pending_peak =
          std::max(counts.pending_peak, exp.simulator().pending());
    }
    exp.run_until(end);
  }
  core::ExperimentResult r;
  {
    const Scope s(trace, "core.collect");
    r = exp.finish();
  }
  counts.add(r, exp.simulator());
  return r;
}

/// Builds a single-queue rig, timing its construction into `setup_s`.
std::unique_ptr<core::Experiment> build_rig(const core::ExperimentConfig& cfg,
                                            Trace& trace, double& setup_s) {
  const Scope s(trace, "core.rig_build");
  const auto t0 = Clock::now();
  auto exp = std::make_unique<core::Experiment>(cfg);
  setup_s += seconds_since(t0);
  return exp;
}

// --------------------------------------------------------- mcast_feedback

core::ExperimentConfig feedback_session(std::size_t receivers,
                                        std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.variant = core::Variant::kFeedback;
  cfg.workload.record_size = 1000;
  cfg.workload.insert_rate = core::insert_rate_from_kbps(15.0, 1000);
  cfg.num_receivers = receivers;
  cfg.mu_data = sim::kbps(45);
  cfg.mu_fb = sim::kbps(64);
  cfg.loss_rate = 0.1;
  cfg.delay = 0.05;
  cfg.seed = seed;
  return cfg;
}

RepResult mcast_feedback(std::uint64_t seed, Size size, Trace& trace) {
  auto cfg = feedback_session(size == Size::kFull ? 1000 : 100, seed);
  cfg.multicast_feedback = true;
  cfg.receiver.nack_slot_max = 1.0;
  cfg.warmup = 5.0;
  cfg.duration = 20.0;

  RepResult out;
  CoreCounts counts;
  const auto t0 = Clock::now();
  auto exp = build_rig(cfg, trace, out.setup_s);
  const auto r = drive(*exp, trace, 1.0, counts);
  exp.reset();
  out.wall_s = seconds_since(t0);

  Digest dg;
  fold(dg, r);
  out.digest = dg.value();
  if (trace.enabled()) core_layers(trace, counts, out.layers);
  return out;
}

// ---------------------------------------------------------- dense_sharded

constexpr const char* kDenseFaults =
    "crash@8+3;partition:0@12+4;leave:1@17;join@19;burst:0.3@22+3";

/// One faulted replication on the engine cfg.shards selects, assembled from
/// the same public pieces fault::run_experiment_with_faults uses, so rig
/// construction can be timed apart from the run.
fault::FaultRunResult faulted_run(const core::ExperimentConfig& cfg,
                                  const fault::FaultPlan& plan, Trace& trace,
                                  double& setup_s, CoreCounts& counts,
                                  core::ShardedRunStats& stats) {
  const fault::InjectorConfig icfg;
  fault::FaultRunResult out;
  if (cfg.shards > 1) {
    std::unique_ptr<core::ShardedExperiment> exp;
    {
      const Scope s(trace, "core.rig_build");
      const auto t0 = Clock::now();
      exp = std::make_unique<core::ShardedExperiment>(
          cfg, fault::fault_barrier_instants(cfg, plan, icfg));
      setup_s += seconds_since(t0);
    }
    fault::FaultInjector inj(exp->simulator(), plan, fault::hooks_for(*exp),
                             icfg);
    exp->set_warmup_hook([&inj] { inj.arm(); });
    {
      const Scope s(trace, "shard.run");
      out.base = exp->run(&stats);
    }
    inj.finalize();
    out.recoveries = inj.records();
    out.join_catch_up = inj.join_catch_up_latencies();
    return out;
  }
  auto exp = build_rig(cfg, trace, setup_s);
  fault::FaultInjector inj(exp->simulator(), plan, fault::hooks_for(*exp),
                           icfg);
  out.base = drive(*exp, trace, 1.0, counts, [&inj] { inj.arm(); });
  inj.finalize();
  out.recoveries = inj.records();
  out.join_catch_up = inj.join_catch_up_latencies();
  return out;
}

RepResult dense_sharded(std::uint64_t seed, Size size, Trace& trace) {
  // 3000 receivers, not 10000: at 10000 the per-receiver cost was about
  // 1.7x that at 3000, the extra being cache misses on a ~110 MB working
  // set, and those are what a busy shared host slows most.
  auto cfg = feedback_session(size == Size::kFull ? 3000 : 300, seed);
  cfg.warmup = 5.0;
  cfg.duration = 25.0;
  const auto plan = fault::FaultPlan::parse(kDenseFaults);

  // The timed run is single-queue. On a shared 4-core host the K=3 crew's
  // wall time swung by up to 2x between runs (every barrier waits for the
  // slowest core), too much for an end-to-end bound.
  RepResult out;
  CoreCounts counts;
  core::ShardedRunStats stats;
  auto t0 = Clock::now();
  const auto r = faulted_run(cfg, plan, trace, out.setup_s, counts, stats);
  out.wall_s = seconds_since(t0);
  Digest dg;
  fold(dg, r);
  out.digest = dg.value();
  if (!trace.enabled()) return out;

  // The traced run also runs the same replication on the K=3 sharded
  // engine (three workers plus the coordinator): it gives the shard crew's
  // metrics and the speed-up, and its outputs must be bit-identical.
  auto k3 = cfg;
  k3.shards = 3;
  double k3_setup = 0.0;
  t0 = Clock::now();
  const auto r3 = faulted_run(k3, plan, trace, k3_setup, counts, stats);
  const double k3_wall = seconds_since(t0);
  Digest dg3;
  fold(dg3, r3);
  out.consistent = dg3.value() == out.digest;

  auto& m = out.layers;
  const double shard_run = trace.total("shard.run");
  core_layers(trace, counts, m);
  m["shard.epochs_executed"] = static_cast<double>(stats.epochs_executed);
  m["shard.epochs_skipped"] = static_cast<double>(stats.epochs_skipped);
  m["shard.barrier_wait_s"] = stats.barrier_wait_seconds;
  m["shard.root_s"] = shard_run - stats.barrier_wait_seconds;
  m["shard.barrier_wait_frac"] = ratio(stats.barrier_wait_seconds, shard_run);
  m["shard.speedup_k3"] = ratio(out.wall_s, k3_wall);
  return out;
}

// ------------------------------------------------------------- paper_grid

constexpr std::size_t kGridJobs = 3;

core::ExperimentConfig grid_point(core::Variant variant, double loss,
                                  double duration) {
  core::ExperimentConfig cfg;
  cfg.variant = variant;
  cfg.workload.record_size = 1000;
  cfg.workload.insert_rate = core::insert_rate_from_kbps(15.0, 1000);
  cfg.mu_data = sim::kbps(42);
  cfg.hot_share = 0.85;
  cfg.mu_fb = variant == core::Variant::kFeedback ? sim::kbps(18) : 0.0;
  cfg.loss_rate = loss;
  cfg.warmup = 200.0;
  cfg.duration = duration;
  return cfg;
}

struct GridOut {
  std::uint64_t digest = 0;
  double consistency = 0.0;
  double setup_s = 0.0;
  double fluid_sim_s = 0.0;
  CoreCounts counts;
};

GridOut run_fluid_task(const core::ExperimentConfig& cfg, Trace& trace) {
  GridOut out;
  std::unique_ptr<analysis::FluidIntegrator> fluid;
  analysis::FluidParams params;
  {
    const Scope s(trace, "fluid.rig_build");
    const auto t0 = Clock::now();
    params = core::fluid_params_from(cfg);
    fluid = std::make_unique<analysis::FluidIntegrator>(params);
    out.setup_s = seconds_since(t0);
  }
  {
    const Scope s(trace, "fluid.advance");
    fluid->advance(params.warmup);
    fluid->reset_stats();
    fluid->advance(params.warmup + params.duration);
  }
  out.fluid_sim_s = params.warmup + params.duration;
  out.consistency = fluid->average_consistency();
  const auto occ = fluid->average_occupancy();
  Digest dg;
  for (const double v :
       {out.consistency, occ.fresh, occ.stale, occ.inconsistent,
        occ.recovering, fluid->live(), fluid->hot_backlog(),
        fluid->repair_backlog(), fluid->announce_tx(), fluid->repair_tx(),
        fluid->nacks_per_receiver(), fluid->redundant_tx()}) {
    dg.add(v);
  }
  out.digest = dg.value();
  return out;
}

RepResult paper_grid(std::uint64_t seed, Size size, Trace& trace) {
  const bool full = size == Size::kFull;
  const double duration = full ? 3000.0 : 300.0;
  const std::size_t reps_per_point = full ? 16 : 2;

  // The two long fluid tasks go first so the pool does not end on them.
  std::vector<core::ExperimentConfig> tasks;
  for (const double cohort : {1e6, 1e7}) {
    auto cfg = grid_point(core::Variant::kFeedback, 0.25, duration);
    cfg.backend = core::Backend::kFluid;
    cfg.fluid_cohort = cohort;
    tasks.push_back(cfg);
  }
  for (const auto variant : {core::Variant::kOpenLoop, core::Variant::kTwoQueue,
                             core::Variant::kFeedback}) {
    for (const double loss : {0.05, 0.25, 0.4}) {
      for (std::size_t r = 0; r < reps_per_point; ++r) {
        tasks.push_back(grid_point(variant, loss, duration));
      }
    }
  }

  std::vector<GridOut> outs(tasks.size());
  runner::Options opt;
  opt.replications = tasks.size();
  opt.jobs = kGridJobs;
  opt.master_seed = seed;

  RepResult out;
  const auto t0 = Clock::now();
  runner::Aggregate agg;
  {
    const Scope pool(trace, "runner.pool");
    const std::int64_t pool_id = pool.id();
    agg = runner::run_replications(
        [&](std::size_t i, std::uint64_t rep_seed) {
          const Scope task(trace, "runner.task", pool_id);
          GridOut& o = outs[i];
          if (tasks[i].backend == core::Backend::kFluid) {
            o = run_fluid_task(tasks[i], trace);
          } else {
            auto cfg = tasks[i];
            cfg.seed = rep_seed;
            auto exp = build_rig(cfg, trace, o.setup_s);
            const auto r = drive(*exp, trace, 10.0, o.counts);
            Digest dg;
            fold(dg, r);
            o.digest = dg.value();
            o.consistency = r.avg_consistency;
          }
          return runner::MetricRow{{"avg_consistency", o.consistency}};
        },
        opt);
  }
  out.wall_s = seconds_since(t0);

  Digest dg;
  CoreCounts counts;
  double fluid_sim_s = 0.0;
  for (const GridOut& o : outs) {
    dg.add(o.digest);
    out.setup_s += o.setup_s;
    counts.add(o.counts);
    fluid_sim_s += o.fluid_sim_s;
  }
  dg.add(agg.mean("avg_consistency"));
  dg.add(agg.ci95("avg_consistency"));
  out.digest = dg.value();
  if (!trace.enabled()) return out;

  auto& m = out.layers;
  core_layers(trace, counts, m);
  std::vector<double> task_s = trace.durations("runner.task");
  double busy = 0.0;
  for (const double d : task_s) busy += d;
  m["runner.tasks"] = static_cast<double>(task_s.size());
  m["runner.task_p50_ms"] = quantile(task_s, 0.5) * 1e3;
  m["runner.task_p90_ms"] = quantile(task_s, 0.9) * 1e3;
  m["runner.task_max_ms"] = quantile(task_s, 1.0) * 1e3;
  m["runner.pool_efficiency"] =
      ratio(busy, static_cast<double>(kGridJobs) * trace.total("runner.pool"));
  const double advance = trace.total("fluid.advance");
  m["fluid.advance_s"] = advance;
  m["fluid.sim_s_per_s"] = ratio(fluid_sim_s, advance);
  return out;
}

// ------------------------------------------------------------- sstp_churn

struct SstpOp {
  bool remove = false;
  std::size_t leaf = 0;
  std::vector<std::uint8_t> data;
};

RepResult sstp_churn(std::uint64_t seed, Size size, Trace& trace) {
  const bool full = size == Size::kFull;
  // Three-level namespace /gG/sS/lL: groups x subdirs x leaves.
  const std::size_t groups = full ? 10 : 5;
  const std::size_t subdirs = full ? 10 : 4;
  const std::size_t leaves = full ? 20 : 10;
  const double run_time = full ? 600.0 : 60.0;
  constexpr double kOpsPerSecond = 20.0;
  constexpr double kRemoveShare = 0.1;
  constexpr double kProbeInterval = 5.0;

  std::vector<sstp::Path> paths;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t s = 0; s < subdirs; ++s) {
      for (std::size_t l = 0; l < leaves; ++l) {
        char name[48];
        std::snprintf(name, sizeof name, "/g%zu/s%zu/l%zu", g, s, l);
        paths.push_back(sstp::Path::parse(name));
      }
    }
  }

  // The script is the benchmark's input, generated from the seed before
  // any timing starts.
  sim::Rng rng(seed);
  const auto payload = [&rng] {
    std::vector<std::uint8_t> data(32 + rng.uniform_int(160));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    return data;
  };
  std::vector<std::vector<std::uint8_t>> initial;
  for (std::size_t i = 0; i < paths.size(); ++i) initial.push_back(payload());
  std::vector<SstpOp> script;
  const auto n_ops = static_cast<std::size_t>(run_time * kOpsPerSecond);
  for (std::size_t k = 0; k < n_ops; ++k) {
    SstpOp op;
    op.remove = rng.bernoulli(kRemoveShare);
    op.leaf = rng.uniform_int(paths.size());
    if (!op.remove) op.data = payload();
    script.push_back(std::move(op));
  }

  sstp::SessionConfig cfg;
  cfg.sender.mu_data = sim::kbps(128);
  cfg.num_receivers = full ? 8 : 2;
  cfg.loss_rate = 0.1;
  cfg.delay = 0.05;
  cfg.seed = seed;

  RepResult out;
  sim::Simulator sim;
  std::size_t pending_peak = 0;
  std::vector<double> probes;
  Digest dg;
  const auto t0 = Clock::now();
  std::unique_ptr<sstp::Session> session;
  {
    const Scope s(trace, "sstp.rig_build");
    session = std::make_unique<sstp::Session>(sim, cfg);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      session->sender().publish(paths[i], initial[i]);
    }
    out.setup_s = seconds_since(t0);
  }
  sstp::Sender& sender = session->sender();
  for (std::size_t k = 0; k < script.size(); ++k) {
    sim.at(static_cast<double>(k + 1) / kOpsPerSecond, [&, k] {
      SstpOp& op = script[k];
      const Scope s(trace, op.remove ? "sstp.remove" : "sstp.publish");
      const bool ok = op.remove
                          ? sender.remove(paths[op.leaf])
                          : sender.publish(paths[op.leaf], std::move(op.data));
      dg.add(std::uint64_t{ok});
    });
  }
  for (double t = kProbeInterval; t <= run_time; t += kProbeInterval) {
    sim.at(t, [&] {
      const Scope s(trace, "sstp.consistency");
      probes.push_back(session->instantaneous_consistency());
    });
  }
  {
    const Scope s(trace, "sstp.run");
    if (trace.enabled()) {
      for (double t = 10.0; t < run_time; t += 10.0) {
        sim.run_until(t);
        pending_peak = std::max(pending_peak, sim.pending());
      }
    }
    sim.run_until(run_time);
  }
  const double avg = session->average_consistency();
  out.wall_s = seconds_since(t0);

  const sstp::SenderStats& st = sender.stats();
  for (const std::uint64_t v :
       {st.data_tx, st.repair_tx, st.summary_tx, st.sig_tx, st.nacks_rx,
        st.nacks_ignored, st.sig_requests_rx, st.reports_rx,
        st.decode_errors, st.rate_warnings, sim.fired()}) {
    dg.add(v);
  }
  for (const double v : {st.bytes_tx, avg, session->forward_bytes(),
                         session->feedback_bytes(), session->observed_loss()}) {
    dg.add(v);
  }
  for (const double c : probes) dg.add(c);
  for (std::size_t r = 0; r < session->receiver_count(); ++r) {
    dg.add(session->receiver_consistency(r));
  }
  const hash::Digest root = sender.tree().root_digest();
  for (const std::uint8_t b : root.bytes()) {
    dg.add(std::uint64_t{b});
  }
  out.digest = dg.value();
  if (!trace.enabled()) return out;

  auto& m = out.layers;
  const double run_s = trace.total("sstp.run");
  const auto us = [&trace](std::string_view name) {
    std::vector<double> v = trace.durations(name);
    for (double& d : v) d *= 1e6;
    return v;
  };
  m["sim.events"] = static_cast<double>(sim.fired());
  m["sim.events_per_s"] = ratio(static_cast<double>(sim.fired()), run_s);
  m["sim.pending_peak"] = static_cast<double>(pending_peak);
  m["sstp.publish_us_p50"] = quantile(us("sstp.publish"), 0.5);
  m["sstp.publish_us_p99"] = quantile(us("sstp.publish"), 0.99);
  m["sstp.remove_us_p99"] = quantile(us("sstp.remove"), 0.99);
  m["sstp.consistency_us_p50"] = quantile(us("sstp.consistency"), 0.5);
  m["sstp.run_s"] = run_s;
  m["sstp.events"] = static_cast<double>(sim.fired());
  m["sstp.summary_tx"] = static_cast<double>(st.summary_tx);
  m["sstp.sig_tx"] = static_cast<double>(st.sig_tx);
  m["sstp.repair_tx"] = static_cast<double>(st.repair_tx);
  m["sstp.forward_kB"] = session->forward_bytes() / 1e3;
  m["sstp.feedback_kB"] = session->feedback_bytes() / 1e3;
  return out;
}

}  // namespace

RepResult run_workload(const std::string& name, std::uint64_t seed, Size size,
                       Trace& trace) {
  RepResult r;
  if (name == "mcast_feedback") {
    r = mcast_feedback(seed, size, trace);
  } else if (name == "dense_sharded") {
    r = dense_sharded(seed, size, trace);
  } else if (name == "paper_grid") {
    r = paper_grid(seed, size, trace);
  } else if (name == "sstp_churn") {
    r = sstp_churn(seed, size, trace);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  if (trace.enabled()) {
    for (const std::string_view key : kLayerMetrics) {
      r.layers.try_emplace(std::string(key), 0.0);
    }
  }
  return r;
}

}  // namespace sstbench

// sstsim — run a soft state (or hard-state baseline) experiment from the
// command line and print every metric; the scriptable front-end to the
// experiment harness.
//
// Examples:
//   sstsim --variant=feedback --lambda-kbps=15 --mu-data-kbps=42 \
//          --mu-fb-kbps=18 --hot-share=0.85 --loss=0.4 --duration=3000
//   sstsim --variant=openloop --lambda-kbps=20 --mu-data-kbps=128 \
//          --death=per-tx --p-death=0.2 --loss=0.1 --timeline=100
//   sstsim --variant=hardstate --lambda-kbps=10 --loss=0.02 \
//          --outage=900:1020
//   sstsim --help
#include <cstdio>
#include <cstring>
#include <string>

#include "arq/experiment.hpp"
#include "core/experiment.hpp"
#include "core/sharded.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "flags.hpp"
#include "net/hostile.hpp"
#include "runner/adapters.hpp"
#include "runner/runner.hpp"

namespace {

using namespace sst;

constexpr const char* kHelp = R"(sstsim — soft state protocol simulator

  --variant=openloop|twoqueue|feedback|hardstate   protocol (default feedback)

workload:
  --lambda-kbps=15        new-record rate (1000-B records)
  --update-rate=0         in-place updates/sec over the live set
  --death=exp|per-tx|fixed|pareto   lifetime model (default exp)
  --p-death=0.1           per-transmission death probability (per-tx)
  --lifetime=120          mean record lifetime seconds (exp/fixed/pareto)
  --record-bytes=1000     announcement size
  --profile=sensor        sensor-style preset: ~120 long-lived 64-B sensors,
                          --lambda-kbps (default 8) all spent on tiny
                          in-place updates, 8 receivers by default. Replaces
                          the workload flags above.

bandwidth & network:
  --mu-data-kbps=45       data bandwidth
  --mu-fb-kbps=0          feedback bandwidth (feedback/hardstate ACK path)
  --hot-share=0.5         hot fraction of data bandwidth
  --loss=0.1              forward loss rate
  --shared-loss=0         backbone loss shared by all receivers
  --bursty                Gilbert-Elliott loss (mean --loss, burst 4)
  --delay=0.01            one-way propagation delay seconds
  --receivers=1           subscriber count
  --multicast-fb          shared feedback group with slotting/damping
  --slot=0.5              NACK slot max (with --multicast-fb)
  --outage=START:END[,START:END...]   total outage windows (seconds)
  --hostile=SPEC          hostile forward path: ';'-separated fields
                          reorder=PROB:MAX_EXTRA, dup=PROB[:CONT[:MAX[:SPR]]],
                          partition=START:END[,...], e.g.
                          --hostile='reorder=0.3:0.2;dup=0.1:0.5'
  --fb-hostile=SPEC       same, on the feedback (hardstate: ACK) path

fault injection (soft-state variants):
  --faults=SCRIPT         scripted fault timeline; ';'- or ','-separated
                          events of kind[:arg]@start[+duration], e.g.
                          --faults='crash@900+120;partition:0@600+60;
                          leave:1@400;join@1200;burst:0.5@1500+30;
                          bw:0.25@300+100'. Prints per-fault recovery time,
                          consistency deficit, and repair overhead.
  --recovery-threshold=0.9   consistency level that counts as recovered

run control:
  --duration=2000 --warmup=200 --seed=1
  --timeline=0            sample c(t) every N seconds (0 off)
  --scheduler=stride|lottery|wfq|drr|hier
  --shards=1              event-engine shards for EACH replication: K > 1
                          partitions the receivers across K worker threads
                          advanced in conservative-lookahead epochs; covers
                          --multicast-fb and --faults runs too. Output is
                          byte-identical for any supported K; unsupported
                          combinations (fluid backend, feedback with
                          --delay=0) warn and fall back to the single-queue
                          engine, and K > --receivers clamps. With --jobs=0
                          the replication pool leaves room for the shard
                          crews (jobs = ceil(hardware / shards)).

population tier (soft-state variants):
  --backend=discrete      discrete = event simulation of --receivers
                          fluid    = mean-field ODE cohort only (no RNG;
                                     byte-identical for any --jobs)
                          hybrid   = both, population-weighted blend
  --cohort=1e6            fluid/hybrid cohort size (receivers)

Monte-Carlo replication (sst::runner):
  --replications=1        independent replications; each runs with seed
                          Rng(--seed).fork("replication", i). With N > 1 the
                          single-run report is replaced by mean ± 95% CI per
                          metric plus the canonical sst-mc-v1 JSON document.
  --jobs=0                worker threads (0 = hardware concurrency). Pure
                          execution detail: output is byte-identical for any
                          value.
)";

std::vector<std::pair<double, double>> parse_outages(const std::string& s) {
  std::vector<std::pair<double, double>> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const auto colon = s.find(':', pos);
    if (colon == std::string::npos) break;
    auto comma = s.find(',', colon);
    if (comma == std::string::npos) comma = s.size();
    out.emplace_back(std::atof(s.substr(pos, colon - pos).c_str()),
                     std::atof(s.substr(colon + 1, comma - colon - 1).c_str()));
    pos = comma + 1;
  }
  return out;
}

void print_timeline(const std::vector<core::TimelinePoint>& timeline) {
  if (timeline.empty()) return;
  std::printf("\n  time_s  c(t)\n");
  for (const auto& p : timeline) {
    std::printf("  %6.0f  %.4f\n", p.time, p.consistency);
  }
}

/// Monte-Carlo options shared by all variants. Replications default to 1:
/// the classic single-run report stays the default (and byte-identical to
/// what this tool printed before the runner existed).
/// Parses a --hostile / --fb-hostile spec into `out`; false (after printing
/// the error) on malformed input. An absent flag leaves `out` inactive.
bool parse_hostile(const tools::Flags& flags, const char* name,
                   net::HostileConfig& out) {
  const std::string spec = flags.str(name, "");
  if (spec.empty()) return true;
  try {
    out = net::HostileConfig::parse(spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "--%s: %s\n", name, e.what());
    return false;
  }
  return true;
}

runner::Options mc_options(const tools::Flags& flags) {
  runner::Options opt;
  opt.replications =
      static_cast<std::size_t>(flags.num("replications", 1.0));
  opt.jobs = static_cast<std::size_t>(flags.num("jobs", 0.0));
  opt.master_seed = static_cast<std::uint64_t>(flags.num("seed", 1));
  return opt;
}

/// Replicated-run report: one mean ± CI line per metric, then the canonical
/// document (the same schema every bench emits) between markers.
void print_aggregate(const std::string& variant, const runner::Options& opt,
                     const runner::Aggregate& agg) {
  std::printf("variant            %s\n", variant.c_str());
  std::printf("replications       %zu (master seed %llu)\n",
              agg.replications(),
              static_cast<unsigned long long>(opt.master_seed));
  std::printf("\n  %-26s %14s %12s\n", "metric", "mean", "ci95");
  for (const auto& m : agg.metrics()) {
    std::printf("  %-26s %14.4f %12.4f\n", m.name.c_str(), m.stats.mean(),
                m.stats.ci95_half_width());
  }
  runner::Json params = runner::Json::object();
  params.set("variant", runner::Json::string(variant));
  std::vector<runner::SweepPoint> points;
  points.push_back({std::move(params), agg});
  const runner::Json doc = runner::mc_document("sstsim", opt, points);
  std::printf("\nBEGIN-JSON\n%sEND-JSON\n", doc.dump(2).c_str());
}

int run_hard(const tools::Flags& flags) {
  arq::HardStateConfig cfg;
  if (flags.str("profile", "") == "sensor") {
    cfg.workload = core::sensor_workload(flags.num("lambda-kbps", 8.0));
  } else {
    cfg.workload.insert_rate = core::insert_rate_from_kbps(
        flags.num("lambda-kbps", 10.0),
        static_cast<sim::Bytes>(flags.num("record-bytes", 1000)));
    cfg.workload.update_rate = flags.num("update-rate", 0.0);
    cfg.workload.death_mode = core::DeathMode::kExponentialLifetime;
    cfg.workload.mean_lifetime = flags.num("lifetime", 120.0);
  }
  if (!parse_hostile(flags, "hostile", cfg.fwd_hostile) ||
      !parse_hostile(flags, "fb-hostile", cfg.ack_hostile)) {
    return 2;
  }
  cfg.mu_data = sim::kbps(flags.num("mu-data-kbps", 45.0));
  cfg.mu_ack = sim::kbps(flags.num("mu-fb-kbps", 15.0));
  cfg.loss_rate = flags.num("loss", 0.1);
  cfg.delay = flags.num("delay", 0.01);
  cfg.outages = parse_outages(flags.str("outage", ""));
  cfg.duration = flags.num("duration", 2000.0);
  cfg.warmup = flags.num("warmup", 200.0);
  cfg.seed = static_cast<std::uint64_t>(flags.num("seed", 1));
  cfg.sample_interval = flags.num("timeline", 0.0);
  if (flags.num("shards", 1.0) != 1.0) {
    std::fprintf(stderr,
                 "warning: --shards ignored: --variant=hardstate runs on the "
                 "ARQ connection engine, which has no sharded "
                 "implementation (only the soft-state announce/listen "
                 "engine shards)\n");
  }
  const runner::Options mc = mc_options(flags);
  flags.reject_unknown();

  if (mc.replications > 1) {
    print_aggregate("hardstate", mc, runner::run_replicated(cfg, mc));
    return 0;
  }

  const auto r = arq::run_hard_state(cfg);
  std::printf("variant            hardstate\n");
  std::printf("avg_consistency    %.4f\n", r.avg_consistency);
  std::printf("mean_latency_s     %.3f\n", r.mean_latency);
  std::printf("p95_latency_s      %.3f\n", r.p95_latency);
  std::printf("data_tx            %llu (retransmits %llu)\n",
              static_cast<unsigned long long>(r.data_tx),
              static_cast<unsigned long long>(r.retransmits));
  std::printf("connection_deaths  %llu (snapshot ops %llu, flushes %llu)\n",
              static_cast<unsigned long long>(r.connection_deaths),
              static_cast<unsigned long long>(r.snapshot_ops),
              static_cast<unsigned long long>(r.table_flushes));
  std::printf("offered_kbps       data %.2f + ack %.2f\n",
              r.offered_data_kbps, r.offered_ack_kbps);
  print_timeline(r.timeline);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = sst::tools::Flags::parse(argc, argv);
  if (flags.flag("help")) {
    std::fputs(kHelp, stdout);
    return 0;
  }

  const std::string variant = flags.str("variant", "feedback");
  if (variant == "hardstate") return run_hard(flags);

  core::ExperimentConfig cfg;
  if (variant == "openloop") {
    cfg.variant = core::Variant::kOpenLoop;
  } else if (variant == "twoqueue") {
    cfg.variant = core::Variant::kTwoQueue;
  } else if (variant == "feedback") {
    cfg.variant = core::Variant::kFeedback;
  } else {
    std::fprintf(stderr, "unknown --variant=%s\n", variant.c_str());
    return 2;
  }

  const bool sensor = flags.str("profile", "") == "sensor";
  if (sensor) {
    cfg.workload = core::sensor_workload(flags.num("lambda-kbps", 8.0));
  } else {
    const auto record_bytes =
        static_cast<sim::Bytes>(flags.num("record-bytes", 1000));
    cfg.workload.record_size = record_bytes;
    cfg.workload.insert_rate = core::insert_rate_from_kbps(
        flags.num("lambda-kbps", 15.0), record_bytes);
    cfg.workload.update_rate = flags.num("update-rate", 0.0);
    const std::string death = flags.str("death", "exp");
    if (death == "per-tx") {
      cfg.workload.death_mode = core::DeathMode::kPerTransmission;
    } else if (death == "fixed") {
      cfg.workload.death_mode = core::DeathMode::kFixedLifetime;
    } else if (death == "pareto") {
      cfg.workload.death_mode = core::DeathMode::kParetoLifetime;
    } else {
      cfg.workload.death_mode = core::DeathMode::kExponentialLifetime;
    }
    cfg.workload.p_death = flags.num("p-death", 0.1);
    cfg.workload.mean_lifetime = flags.num("lifetime", 120.0);
  }
  if (!parse_hostile(flags, "hostile", cfg.fwd_hostile) ||
      !parse_hostile(flags, "fb-hostile", cfg.fb_hostile)) {
    return 2;
  }

  cfg.mu_data = sim::kbps(flags.num("mu-data-kbps", 45.0));
  cfg.mu_fb = sim::kbps(flags.num("mu-fb-kbps", 0.0));
  cfg.hot_share = flags.num("hot-share", 0.5);
  cfg.loss_rate = flags.num("loss", 0.1);
  cfg.shared_loss_rate = flags.num("shared-loss", 0.0);
  cfg.bursty_loss = flags.flag("bursty");
  cfg.delay = flags.num("delay", 0.01);
  cfg.num_receivers =
      static_cast<std::size_t>(flags.num("receivers", sensor ? 8 : 1));
  cfg.multicast_feedback = flags.flag("multicast-fb");
  cfg.receiver.nack_slot_max = flags.num("slot", 0.5);
  cfg.outages = parse_outages(flags.str("outage", ""));
  cfg.duration = flags.num("duration", 2000.0);
  cfg.warmup = flags.num("warmup", 200.0);
  cfg.seed = static_cast<std::uint64_t>(flags.num("seed", 1));
  cfg.sample_interval = flags.num("timeline", 0.0);

  const std::string backend = flags.str("backend", "discrete");
  if (backend == "discrete") {
    cfg.backend = core::Backend::kDiscrete;
  } else if (backend == "fluid") {
    cfg.backend = core::Backend::kFluid;
  } else if (backend == "hybrid") {
    cfg.backend = core::Backend::kHybrid;
  } else {
    std::fprintf(stderr, "unknown --backend=%s\n", backend.c_str());
    return 2;
  }
  cfg.fluid_cohort = flags.num("cohort", 1e6);

  const std::string sched = flags.str("scheduler", "stride");
  if (sched == "lottery") cfg.scheduler = core::SchedulerKind::kLottery;
  if (sched == "wfq") cfg.scheduler = core::SchedulerKind::kWfq;
  if (sched == "drr") cfg.scheduler = core::SchedulerKind::kDrr;
  if (sched == "hier") cfg.scheduler = core::SchedulerKind::kHierarchical;

  const std::string faults_script = flags.str("faults", "");
  fault::InjectorConfig inj_cfg;
  inj_cfg.threshold = flags.num("recovery-threshold", 0.9);

  const double shards_req = flags.num("shards", 1.0);
  if (!(shards_req >= 1.0)) {
    std::fprintf(stderr, "--shards must be an integer >= 1\n");
    return 2;
  }
  cfg.shards = static_cast<std::size_t>(shards_req);
  if (cfg.shards > cfg.num_receivers) {
    const std::size_t clamped =
        cfg.num_receivers > 0 ? cfg.num_receivers : 1;
    std::fprintf(stderr,
                 "warning: --shards=%zu exceeds --receivers=%zu; using %zu\n",
                 cfg.shards, cfg.num_receivers, clamped);
    cfg.shards = clamped;
  }
  if (cfg.shards > 1) {
    std::string why;
    if (!core::sharded_supported(cfg, why)) {
      std::fprintf(stderr,
                   "warning: --shards unsupported for this configuration "
                   "(%s); using the single-queue engine\n",
                   why.c_str());
      cfg.shards = 1;
    }
  }

  runner::Options mc = mc_options(flags);
  mc.threads_per_replication = cfg.shards;
  flags.reject_unknown();

  // A malformed script, or a plan the backend cannot take (the pure-fluid
  // backend has no event engine), is bad input.
  fault::FaultRunResult faulted;
  if (!faults_script.empty()) {
    try {
      const auto plan = fault::FaultPlan::parse(faults_script);
      if (mc.replications > 1) {
        print_aggregate(variant, mc,
                        runner::run_replicated(cfg, plan, inj_cfg, mc));
        return 0;
      }
      faulted = fault::run_experiment_with_faults(cfg, plan, inj_cfg);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "--faults: %s\n", e.what());
      return 2;
    }
  } else if (mc.replications > 1) {
    print_aggregate(variant, mc, runner::run_replicated(cfg, mc));
    return 0;
  }

  const core::ExperimentResult r =
      faults_script.empty() ? core::run_experiment(cfg) : faulted.base;
  const auto& recoveries = faulted.recoveries;
  const auto& join_catch_up = faulted.join_catch_up;
  std::printf("variant            %s\n", variant.c_str());
  std::printf("avg_consistency    %.4f\n", r.avg_consistency);
  std::printf("mean_latency_s     %.3f (p50 %.3f, p95 %.3f)\n",
              r.mean_latency, r.p50_latency, r.p95_latency);
  std::printf("data_tx            %llu (hot %llu, cold %llu, repairs %llu)\n",
              static_cast<unsigned long long>(r.data_tx),
              static_cast<unsigned long long>(r.hot_tx),
              static_cast<unsigned long long>(r.cold_tx),
              static_cast<unsigned long long>(r.repair_tx));
  std::printf("redundant_fraction %.4f\n", r.redundant_fraction);
  std::printf("nacks              sent %llu, received %llu, suppressed %llu\n",
              static_cast<unsigned long long>(r.nacks_sent),
              static_cast<unsigned long long>(r.nacks_received),
              static_cast<unsigned long long>(r.nacks_suppressed));
  std::printf("observed_loss      %.4f\n", r.observed_loss);
  std::printf("offered_kbps       data %.2f + fb %.2f\n",
              r.offered_data_kbps, r.offered_fb_kbps);
  std::printf("workload           %llu inserts, %llu updates, live %zu\n",
              static_cast<unsigned long long>(r.inserts),
              static_cast<unsigned long long>(r.updates), r.final_live);
  if (cfg.backend != core::Backend::kDiscrete) {
    std::printf("fluid_cohort       %.0f receivers, c %.4f, live/receiver "
                "%.2f\n",
                r.fluid_cohort, r.fluid_consistency, r.fluid_live);
  }
  if (!recoveries.empty()) {
    std::printf("\n  fault            injected  cleared  recovery_s  deficit  "
                "repair_pkts\n");
    for (const auto& rec : recoveries) {
      std::printf("  %-16s %8.1f %8.1f  ", rec.label.c_str(),
                  rec.injected_at, rec.cleared_at);
      if (rec.recovered()) {
        std::printf("%10.2f", rec.recovery_time());
      } else {
        std::printf("%10s", "never");
      }
      std::printf("  %7.2f  %11.0f\n", rec.deficit, rec.repair_overhead);
    }
    for (std::size_t i = 0; i < join_catch_up.size(); ++i) {
      if (join_catch_up[i] >= 0) {
        std::printf("  join %zu catch-up  %.2f s\n", i, join_catch_up[i]);
      } else {
        std::printf("  join %zu catch-up  never\n", i);
      }
    }
  }
  print_timeline(r.timeline);
  return 0;
}

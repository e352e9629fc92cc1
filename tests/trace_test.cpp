// Cross-cutting harness features (heterogeneous receivers).
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace sst {
namespace {

TEST(Harness, HeterogeneousReceiverLossRates) {
  core::ExperimentConfig cfg;
  cfg.variant = core::Variant::kOpenLoop;
  cfg.workload.insert_rate = core::insert_rate_from_kbps(10.0, 1000);
  cfg.workload.death_mode = core::DeathMode::kExponentialLifetime;
  cfg.workload.mean_lifetime = 120.0;
  cfg.mu_data = sim::kbps(64);
  cfg.num_receivers = 2;
  cfg.receiver_loss_rates = {0.02, 0.5};  // one clean, one terrible
  cfg.duration = 1500.0;
  cfg.warmup = 200.0;
  const auto r = core::run_experiment(cfg);
  // Mixed population: average sits between the all-clean and all-lossy
  // extremes (sanity band).
  EXPECT_GT(r.avg_consistency, 0.6);
  EXPECT_LT(r.avg_consistency, 0.99);
  // Observed loss blends the two rates.
  EXPECT_NEAR(r.observed_loss, 0.26, 0.05);
}

}  // namespace
}  // namespace sst

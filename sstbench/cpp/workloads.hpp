// workloads.hpp — the four benchmark workloads (see ../README.md for why
// each exists and what it loads).
//
// Each workload is a batch run: a fixed amount of simulated work, timed to
// completion on the host. It drives the libraries only through their public
// entry points and folds every simulated output into one FNV digest, which
// the caller compares with the expected value.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "trace.hpp"

namespace sstbench {

enum class Size : std::uint8_t {
  kFull,   // the benchmark proper
  kSmoke,  // a few hundred milliseconds, for the benchmark's own tests
};

struct RepResult {
  std::uint64_t digest = 0;
  double wall_s = 0.0;   // host time of the whole workload
  double setup_s = 0.0;  // host time building rigs, summed over rigs
  /// False when two runs that must agree did not (dense_sharded's traced
  /// K=1 and K=3 digests).
  bool consistent = true;
  /// Per-layer metrics, filled only when the trace is enabled.
  std::map<std::string, double> layers;
};

/// Runs one repetition of workload `name` with input seed `seed`.
/// Throws std::invalid_argument for an unknown name.
RepResult run_workload(const std::string& name, std::uint64_t seed, Size size,
                       Trace& trace);

}  // namespace sstbench

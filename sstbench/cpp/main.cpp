// sstbench — runs repetitions of one benchmark workload and prints, for
// each, its digest, host timings and (when traced) per-layer metrics as one
// JSON line. sstbench/run.py drives it; see ../README.md.
//
//   sstbench --workload NAME [--size full|smoke]
//   sstbench --manifest
//
// The program reads one repetition per line from standard input,
// "SEED TRACE [SPANS]", and answers each with one line, or with
// {"error": true} when the workload threw, until standard input ends. All
// repetitions share one process, so later ones reuse memory the earlier
// ones made resident; peak_rss_mb is then the process's peak so far.
//
// Exit codes: 0 ok, 1 the spans could not be written, 2 bad arguments, 3 the
// build is an SST_CHECK or sanitizer build, whose timings measure another
// program.
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

#if defined(SST_CHECK_ENABLED)
constexpr bool kCheckBuild = true;
#else
constexpr bool kCheckBuild = false;
#endif

constexpr bool kSanitized = std::string_view(SSTBENCH_SANITIZE).size() > 0
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
                            || true
#endif
    ;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int usage(const char* why) {
  std::fprintf(stderr,
               "sstbench: %s\nusage: sstbench --workload NAME "
               "[--size full|smoke] < \"SEED TRACE [SPANS]\" lines\n"
               "       sstbench --manifest\n",
               why);
  return 2;
}

/// Runs one repetition and prints its result line. Throws what the
/// workload throws; returns false when the spans cannot be written.
bool run_one(const std::string& workload, std::uint64_t seed,
             sstbench::Size size, bool traced, const std::string& spans) {
  sstbench::Trace trace(traced);
  const double cpu0 = cpu_seconds();
  const auto r = sstbench::run_workload(workload, seed, size, trace);
  const double cpu_s = cpu_seconds() - cpu0;
  if (traced && !spans.empty() && !trace.write(spans)) {
    std::fprintf(stderr, "sstbench: cannot write %s\n", spans.c_str());
    return false;
  }
  std::printf(
      "{\"digest\": \"%016llx\", \"consistent\": %s, \"wall_s\": %.9g, "
      "\"setup_s\": %.9g, \"cpu_s\": %.9g, \"peak_rss_mb\": %.9g, "
      "\"layers\": {",
      static_cast<unsigned long long>(r.digest),
      r.consistent ? "true" : "false", r.wall_s, r.setup_s, cpu_s,
      peak_rss_mb());
  const char* sep = "";
  for (const auto& [name, value] : r.layers) {
    std::printf("%s\"%s\": %.9g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return true;
}

/// Answers repetition requests from standard input until it ends.
int serve(const std::string& workload, sstbench::Size size) {
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::uint64_t seed = 0;
    int traced = 0;
    std::string spans;
    if (!(in >> seed >> traced) || (traced != 0 && traced != 1)) {
      return usage("bad repetition line");
    }
    in >> spans;
    try {
      if (!run_one(workload, seed, size, traced == 1, spans)) return 1;
    } catch (const std::exception& e) {
      // The message goes to standard error; the line only marks the failure.
      std::fprintf(stderr, "sstbench: %s\n", e.what());
      std::printf("{\"error\": true}\n");
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  sstbench::Size size = sstbench::Size::kFull;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--manifest") {
      std::printf(
          "{\"compiler\": \"%s\", \"build_type\": \"%s\", \"sst_check\": %s, "
          "\"sst_sanitize\": \"%s\", \"sanitized\": %s}\n",
          SSTBENCH_COMPILER, SSTBENCH_BUILD_TYPE,
          kCheckBuild ? "true" : "false", SSTBENCH_SANITIZE,
          kSanitized ? "true" : "false");
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value after a flag");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--size") {
      if (value != "full" && value != "smoke") return usage("bad --size");
      size = value == "full" ? sstbench::Size::kFull : sstbench::Size::kSmoke;
    } else {
      return usage("unknown flag");
    }
  }
  if (workload.empty()) return usage("--workload is required");
  if (kCheckBuild || kSanitized) {
    std::fprintf(stderr,
                 "sstbench: refusing to time an SST_CHECK or sanitizer "
                 "build; rebuild without them\n");
    return 3;
  }
  return serve(workload, size);
}

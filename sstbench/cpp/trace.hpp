// trace.hpp — the benchmark's span recorder.
//
// Spans are recorded only here, in the benchmark, around the public calls it
// makes into each layer: name, start, end (host seconds since the recorder
// was created) and the enclosing span. They stay in memory and are written
// out once the workload ends. A disabled recorder records nothing, so the
// untraced run measures the program alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sstbench {

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;  // index of the enclosing span; -1 at top level
};

class Trace {
 public:
  explicit Trace(bool enabled);

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under `parent`, or under the calling thread's innermost
  /// open span when `parent` is kInherit. Returns -1 when disabled.
  static constexpr std::int64_t kInherit = -2;
  std::int64_t open(std::string_view name, std::int64_t parent = kInherit);
  void close(std::int64_t id);

  /// Durations, in seconds, of every span called `name`, in opening order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  [[nodiscard]] double total(std::string_view name) const;

  /// Writes one JSON object per line: {"name", "start", "end", "parent"}.
  bool write(const std::string& path) const;

 private:
  [[nodiscard]] double now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Opens a span for the lifetime of the scope.
class Scope {
 public:
  Scope(Trace& trace, std::string_view name,
        std::int64_t parent = Trace::kInherit);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Trace& trace_;
  std::int64_t id_;
};

/// Host seconds elapsed since `t0`.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace sstbench

#include "trace.hpp"

#include <cstdio>

namespace sstbench {

namespace {
// Innermost open span of this thread, per recorder use: runner worker
// threads start with none and name their parent explicitly.
thread_local std::int64_t t_current = -1;
}  // namespace

Trace::Trace(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Trace::now() const { return seconds_since(epoch_); }

std::int64_t Trace::open(std::string_view name, std::int64_t parent) {
  if (!enabled_) return -1;
  if (parent == kInherit) parent = t_current;
  const double start = now();
  std::int64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{std::string(name), start, start, parent});
  }
  t_current = id;
  return id;
}

void Trace::close(std::int64_t id) {
  if (id < 0) return;
  const double end = now();
  const std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = end;
  t_current = span.parent;
}

std::vector<double> Trace::durations(std::string_view name) const {
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

double Trace::total(std::string_view name) const {
  double sum = 0.0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

bool Trace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%lld}\n",
                 s.name.c_str(), s.start, s.end,
                 static_cast<long long>(s.parent));
  }
  return std::fclose(f) == 0;
}

Scope::Scope(Trace& trace, std::string_view name, std::int64_t parent)
    : trace_(trace), id_(trace.open(name, parent)) {}

Scope::~Scope() { trace_.close(id_); }

}  // namespace sstbench

// known_bad.cpp — sstlint self-test fixture (never compiled).
//
// Seeds exactly ONE violation of every line rule; the self-test asserts
// each rule fires exactly once here, so a rule that silently stops matching
// (or starts double-reporting) fails `tools/sstlint.py --self-test`.
// Scanned under the virtual path src/stats/known_bad.cpp so the
// path-scoped rules (wall-clock, float-accum) apply.
#include "check/corrupt.hpp"  // corrupt-include: test-only header

#include <chrono>
#include <cstdlib>
#include <set>
#include <unordered_map>

namespace fixture {

struct KnownBad {
  void tick() {
    for (const auto& kv : members_) use(kv.second);  // unordered-iter
    last_ =                                          // wall-clock:
        std::chrono::steady_clock::now().time_since_epoch().count();
    jitter_ = std::rand() % 7;                       // raw-rand
    acc_ += 0.1;                                     // float-accum
    auto rng = sim::Rng();                           // rng-seed
    use(rng);
    sim::ShardCrew crew(4, [this](std::size_t s) {   // shard-capture
      use(s);
    });
    use(crew);
  }

  template <class T>
  void use(const T&) {}

  std::unordered_map<int, int> members_;
  std::set<const KnownBad*> order_;  // ptr-key: ASLR-dependent ordering
  long long last_ = 0;
  int jitter_ = 0;
  double acc_ = 0.0;
};

}  // namespace fixture

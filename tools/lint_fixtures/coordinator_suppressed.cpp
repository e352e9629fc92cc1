// Fixture: coordinator_bad.cpp under suppression — zero findings,
// root-reach suppressed EXACTLY twice and fence-read EXACTLY once (the
// self-test pins the counts, so a coordinator check that silently stops
// firing is caught even under its allow()). Never compiled — scanned
// textually by tools/sstlint.py --self-test.
#include "check/annotate.hpp"

namespace fixture {

class Engine {
 public:
  void run();

 private:
  void worker_epoch(unsigned long s) SST_REQUIRES_SHARD;
  void crash_hook() SST_REQUIRES_COORDINATOR;

  unsigned long paused_ SST_ROOT_ONLY = 0;
  std::vector<int> log_ SST_EPOCH_SHARED;
};

void Engine::crash_hook() {
  ++paused_;          // sstlint: allow(root-reach)
  (void)log_.size();  // sstlint: allow(fence-read)
}

void Engine::worker_epoch(unsigned long) {
  crash_hook();  // sstlint: allow(root-reach)
}

void Engine::run() {
  sim::ShardCrew crew(2, [this](unsigned long s) { worker_epoch(s); });
}

}  // namespace fixture

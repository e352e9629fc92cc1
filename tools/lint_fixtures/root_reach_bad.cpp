// Fixture: root-reach MUST fire exactly once.
//
// worker_epoch() is a shard-worker entry point (SST_REQUIRES_SHARD without
// SST_REQUIRES_ROOT, and it is the ShardCrew lambda's target); through the
// call graph it reaches bump_root(), which touches SST_ROOT_ONLY state.
// Never compiled — scanned textually by tools/sstlint.py --self-test.
#include "check/annotate.hpp"

namespace fixture {

class Engine {
 public:
  void run();

 private:
  void worker_epoch(unsigned long s) SST_REQUIRES_SHARD;
  void bump_root();

  unsigned long epochs_ SST_ROOT_ONLY = 0;
};

void Engine::bump_root() { ++epochs_; }

void Engine::worker_epoch(unsigned long) { bump_root(); }

void Engine::run() {
  sim::ShardCrew crew(2, [this](unsigned long s) { worker_epoch(s); });
}

}  // namespace fixture

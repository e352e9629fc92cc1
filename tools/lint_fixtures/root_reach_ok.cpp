// Fixture: root-reach MUST stay quiet.
//
// The same shape as root_reach_bad.cpp, but the worker touches only
// SST_SHARD_LOCAL state; the root-only member is reached exclusively from
// the root-side method (SST_REQUIRES_ROOT), which no worker entry calls.
// Never compiled — scanned textually by tools/sstlint.py --self-test.
#include "check/annotate.hpp"

namespace fixture {

class Engine {
 public:
  void run();

 private:
  void worker_epoch(unsigned long s) SST_REQUIRES_SHARD;
  void bump_root() SST_REQUIRES_ROOT;

  unsigned long epochs_ SST_ROOT_ONLY = 0;
  unsigned long local_ticks_ SST_SHARD_LOCAL = 0;
};

void Engine::bump_root() { ++epochs_; }

void Engine::worker_epoch(unsigned long) { ++local_ticks_; }

void Engine::run() {
  bump_root();
  sim::ShardCrew crew(2, [this](unsigned long s) { worker_epoch(s); });
}

}  // namespace fixture

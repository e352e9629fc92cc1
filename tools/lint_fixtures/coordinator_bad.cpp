// Fixture: the coordinator pair on the fault path — root-reach MUST
// fire exactly twice and fence-read exactly once.
//
// crash_hook() is a fault hook declared SST_REQUIRES_COORDINATOR (root AND
// shard: every worker parked between barriers). worker_epoch() — a
// shard-worker entry — calls it, which is exactly the protocol violation
// the coordinator extension exists to catch: one root-reach finding for the
// call site itself, one for the SST_ROOT_ONLY member the hook touches. The
// hook also reads the SST_EPOCH_SHARED log without holding or asserting the
// fence — SST_REQUIRES_COORDINATOR does NOT grant it — so fence-read must
// fire once. Never compiled — scanned textually by tools/sstlint.py
// --self-test.
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
  ++paused_;          // root state: fine for the coordinator, fatal here
  (void)log_.size();  // epoch-shared without the fence
}

void Engine::worker_epoch(unsigned long) { crash_hook(); }

void Engine::run() {
  sim::ShardCrew crew(2, [this](unsigned long s) { worker_epoch(s); });
}

}  // namespace fixture

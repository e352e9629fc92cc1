// Fixture: the coordinator pair MUST stay quiet.
//
// The same fault hook, used correctly: crash_hook() is called only from the
// root-side driver between barriers and touches root-only AND shard-local
// state — SST_REQUIRES_COORDINATOR grants both domains at once. The
// half-recognition failure mode (reading the pair as shard-only) would turn
// the hook into a worker entry and flag its paused_ touch; this fixture
// pins that it does not. The epoch-shared read is fenced by an asserted
// exclusive hold, the sanctioned shape for the parked-worker window. Never
// compiled — scanned textually by tools/sstlint.py --self-test.
#include "check/annotate.hpp"

namespace fixture {

class Engine {
 public:
  void run();

 private:
  void worker_epoch(unsigned long s) SST_REQUIRES_SHARD;
  void crash_hook() SST_REQUIRES_COORDINATOR;

  unsigned long paused_ SST_ROOT_ONLY = 0;
  unsigned long local_ticks_ SST_SHARD_LOCAL = 0;
  std::vector<int> log_ SST_EPOCH_SHARED;
};

void Engine::crash_hook() {
  ++paused_;       // root half of the pair
  ++local_ticks_;  // shard half: every worker is parked
  // Fault hooks fire at fence-snapped instants: between barriers the
  // coordinator holds the epoch fence exclusively.
  ::sst::check::epoch_fence.assert_held();
  (void)log_.size();
}

void Engine::worker_epoch(unsigned long) { ++local_ticks_; }

void Engine::run() {
  crash_hook();
  sim::ShardCrew crew(2, [this](unsigned long s) { worker_epoch(s); });
}

}  // namespace fixture

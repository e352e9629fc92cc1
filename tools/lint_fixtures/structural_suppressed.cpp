// Fixture: every structural rule violated once, every violation suppressed
// with an allow() comment. The self-test asserts EXACTLY one suppression
// per structural rule, so a rule that silently stops firing is caught even
// under its allow(). The crew wiring's shard-capture and the loop's
// unordered-iter line-rule hits are pinned as findings. Never compiled.
#include "check/annotate.hpp"

namespace fixture {

class Engine {
 public:
  void run();
  unsigned long peek() const;

 private:
  void worker_epoch(unsigned long s) SST_REQUIRES_SHARD;

  std::unordered_map<int, double> due_;
  sim::Simulator* sim_;
  unsigned long epochs_ SST_ROOT_ONLY = 0;
  std::vector<int> log_ SST_EPOCH_SHARED;
};

void Engine::worker_epoch(unsigned long) {
  ++epochs_;  // sstlint: allow(root-reach)
}

unsigned long Engine::peek() const {
  return log_.size();  // sstlint: allow(fence-read)
}

void Engine::run() {
  sim::ShardCrew crew(2, [this](unsigned long s) { worker_epoch(s); });
  int local = 0;
  sim_->after(1.0, [&local] { ++local; });  // sstlint: allow(ref-capture)
  for (const auto& [key, when] : due_) {  // sstlint: allow(iter-taint)
    sim_->at(when, [key] { (void)key; });
  }
  sched::LotteryScheduler sched{sim::Rng(3)};  // sstlint: allow(rng-reseed)
  (void)sched;
}

}  // namespace fixture

// Fixture: fence-read MUST stay quiet.
//
// Both sanctioned shapes: publish() carries SST_REQUIRES_FENCE on its
// declaration (the exclusive writer), scan() asserts the shared fence with
// the protocol justification (the reader). Never compiled — scanned
// textually by tools/sstlint.py --self-test.
#include "check/annotate.hpp"

namespace fixture {

class Engine {
 public:
  void publish(int v) SST_REQUIRES_FENCE;
  unsigned long scan();

 private:
  std::vector<int> log_ SST_EPOCH_SHARED;
};

void Engine::publish(int v) { log_.push_back(v); }

unsigned long Engine::scan() {
  // Worker side of the fixture's imaginary protocol: the barrier grants a
  // SHARED fence for the duration of the epoch.
  ::sst::check::epoch_fence.assert_held_shared();
  return log_.size();
}

}  // namespace fixture

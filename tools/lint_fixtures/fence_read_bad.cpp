// Fixture: fence-read MUST fire exactly once.
//
// peek() touches an SST_EPOCH_SHARED member with no
// SST_REQUIRES_FENCE[_SHARED] annotation and no epoch_fence assert:
// barrier-published state read outside any fence-scoped region. Never
// compiled — scanned textually by tools/sstlint.py
// --self-test.
#include "check/annotate.hpp"

namespace fixture {

class Engine {
 public:
  unsigned long peek() const;

 private:
  std::vector<int> log_ SST_EPOCH_SHARED;
};

unsigned long Engine::peek() const {
  return log_.size();  // no fence held or asserted
}

}  // namespace fixture

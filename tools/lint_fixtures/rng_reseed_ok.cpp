// Fixture: rng-reseed MUST stay quiet.
//
// The sanctioned shape: a NAMED root stream declared with its literal seed
// (visible in the seed plan), children forked from it by tag. Never
// compiled — scanned textually by tools/sstlint.py
// --self-test.

namespace fixture {

double lottery_mean() {
  sim::Rng root(3);  // the named root stream for this fixture
  sched::LotteryScheduler sched{root.fork("lottery")};
  return sched.weight(0);
}

}  // namespace fixture

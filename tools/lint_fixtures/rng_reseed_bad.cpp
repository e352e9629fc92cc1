// Fixture: rng-reseed MUST fire exactly once.
//
// A literal-seeded Rng TEMPORARY: the stream has no name, so the
// experiment seed plan cannot account for it, and two call sites writing
// Rng(3) silently share draws. Never compiled — scanned by --self-test.

namespace fixture {

double lottery_mean() {
  sched::LotteryScheduler sched{sim::Rng(3)};  // nameless stream
  return sched.weight(0);
}

}  // namespace fixture

// Fixture: a stale structural allow next to a live one in the same file.
//
// The first allow(rng-reseed) suppresses a real literal-seeded temporary;
// the second sits on a named root stream, which rng-reseed never flags, so
// it suppresses nothing. Staleness is judged per line: the live directive
// must not cover the stale one, so the self-test pins one suppression AND
// one bad-suppression. Never compiled — scanned by tools/sstlint.py
// --self-test.

namespace fixture {

double lottery_mean() {
  sched::LotteryScheduler sched{sim::Rng(3)};  // sstlint: allow(rng-reseed)
  sim::Rng root(4);  // sstlint: allow(rng-reseed)
  return sched.weight(0) + root.uniform();
}

}  // namespace fixture

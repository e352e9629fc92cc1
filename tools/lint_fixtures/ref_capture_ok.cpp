// Fixture: ref-capture MUST stay quiet.
//
// By-value and `this` captures into the event machinery are fine, and a
// by-reference lambda that is invoked immediately (never scheduled) is not
// the rule's business. Never compiled — scanned by tools/sstlint.py
// --self-test.

namespace fixture {

struct Widget {
  void poke();
  int hits = 0;
};

void schedule_ok(sim::Simulator& sim, Widget* w, std::vector<int>& items) {
  const int snapshot = 7;
  sim.after(1.0, [w, snapshot] { w->hits += snapshot; });
  sim.at(2.0, [w] { w->poke(); });

  int total = items.at(0);  // vector::at with no lambda: not a sink use
  auto fold = [&total](int x) { total += x; };  // immediate, never scheduled
  fold(snapshot);
}

}  // namespace fixture

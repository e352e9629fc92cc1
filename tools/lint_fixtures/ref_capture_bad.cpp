// Fixture: ref-capture MUST fire exactly once.
//
// A lambda scheduled into the simulator captures a stack local by
// reference; the event runs after this frame has returned, so the capture
// dangles. Never compiled — scanned textually by tools/sstlint.py
// --self-test.

namespace fixture {

void schedule_tick(sim::Simulator& sim) {
  int local = 0;
  sim.after(1.0, [&local] { ++local; });  // dangles once this frame returns
}

}  // namespace fixture

// Fixture: iter-taint MUST fire exactly once.
//
// The loop ranges over an unordered member and its body schedules an event
// per entry: the event queue's insertion order inherits the hash table's
// bucket layout, which is not reproducible across library versions. Never
// compiled — scanned textually by tools/sstlint.py
// --self-test.

namespace fixture {

class Registry {
 public:
  void flush();

 private:
  std::unordered_map<int, double> due_;
  sim::Simulator* sim_;
};

void Registry::flush() {
  for (const auto& [key, when] : due_) {
    sim_->at(when, [key] { (void)key; });  // schedule order = hash order
  }
}

}  // namespace fixture

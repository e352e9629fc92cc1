// Fixture: iter-taint MUST stay quiet.
//
// The sorted-snapshot idiom: the unordered loop only collects keys into a
// vector (no ordered sink in its body or call closure); the schedule then
// walks the SORTED snapshot. This is exactly the case the unordered-iter
// regex cannot distinguish for a braced body. Never compiled — scanned by
// tools/sstlint.py --self-test.

namespace fixture {

class Registry {
 public:
  void flush();

 private:
  std::unordered_map<int, double> due_;
  sim::Simulator* sim_;
};

void Registry::flush() {
  std::vector<int> keys;
  for (const auto& [key, when] : due_) keys.push_back(key);  // snapshot only
  std::sort(keys.begin(), keys.end());
  for (const int key : keys) {
    sim_->at(due_.at(key), [key] { (void)key; });
  }
}

}  // namespace fixture

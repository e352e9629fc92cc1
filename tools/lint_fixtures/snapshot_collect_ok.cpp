// sstlint fixture: sorted-snapshot collect loops must NOT trip
// unordered-iter — in both braceless shapes (body on the for line, body on
// the following line). Never compiled.
#include <algorithm>
#include <unordered_map>
#include <vector>

namespace fixture {

class Table {
 public:
  std::vector<int> sorted_keys() const {
    std::vector<int> keys;
    for (const auto& kv : members_) keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  std::vector<int> sorted_keys_two_line() const {
    std::vector<int> keys;
    for (const auto& kv : members_)
      keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  std::unordered_map<int, int> members_;
};

}  // namespace fixture

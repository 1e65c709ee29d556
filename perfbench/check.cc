#include "check.h"

#include <unordered_map>
#include <utility>

namespace perfbench {

std::string CompareSequence(const std::vector<uint64_t>& expected,
                            const std::vector<uint64_t>& delivered) {
  std::unordered_map<uint64_t, int64_t> seen;
  seen.reserve(delivered.size());
  for (size_t i = 0; i < delivered.size(); ++i) {
    if (++seen[delivered[i]] > 1) {
      return "duplicated record " + std::to_string(delivered[i]) +
             " at position " + std::to_string(i);
    }
  }
  std::unordered_map<uint64_t, size_t> position;
  position.reserve(expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    position.emplace(expected[i], i);
    if (seen.find(expected[i]) == seen.end()) {
      return "dropped record " + std::to_string(expected[i]) +
             " (expected position " + std::to_string(i) + ")";
    }
  }
  for (size_t i = 0; i < delivered.size(); ++i) {
    if (position.find(delivered[i]) == position.end()) {
      return "unexpected record " + std::to_string(delivered[i]) +
             " at position " + std::to_string(i);
    }
  }
  for (size_t i = 0; i < delivered.size(); ++i) {
    if (delivered[i] != expected[i]) {
      return "reordered: position " + std::to_string(i) + " holds " +
             std::to_string(delivered[i]) + ", expected " +
             std::to_string(expected[i]);
    }
  }
  return "";
}

std::string SelfTest() {
  std::vector<uint64_t> expected;
  for (uint64_t i = 0; i < 100; ++i) expected.push_back(i * 7 + 3);

  struct Case {
    const char* damage;
    std::vector<uint64_t> delivered;
  };
  std::vector<Case> cases;
  {
    auto d = expected;
    d.erase(d.begin() + 40);
    cases.push_back({"dropped", d});
  }
  {
    auto d = expected;
    d.insert(d.begin() + 41, d[40]);
    cases.push_back({"duplicated", d});
  }
  {
    auto d = expected;
    std::swap(d[40], d[41]);
    cases.push_back({"reordered", d});
  }

  std::string problems;
  if (!CompareSequence(expected, expected).empty()) {
    problems += "clean sequence flagged; ";
  }
  for (const Case& c : cases) {
    const std::string verdict = CompareSequence(expected, c.delivered);
    if (verdict.rfind(c.damage, 0) != 0) {
      problems += std::string(c.damage) + " record not flagged (got '" +
                  verdict + "'); ";
    }
  }

  // The fold the reprocessing check relies on must see the same damage.
  auto fold = [](const std::vector<uint64_t>& v) {
    uint64_t f = 0;
    for (uint64_t x : v) f = FoldRecord(f, x);
    return f;
  };
  for (const Case& c : cases) {
    if (fold(c.delivered) == fold(expected)) {
      problems += std::string(c.damage) + " record not seen by the fold; ";
    }
  }
  return problems;
}

}  // namespace perfbench

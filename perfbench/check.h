// Output checks of the benchmark. Each compares what the program delivered
// with a reference the benchmark derives from its own seeded generator, so a
// fault in the program cannot hide in the reference.
#ifndef LIQUID_PERFBENCH_CHECK_H_
#define LIQUID_PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Compares a delivered sequence of record identities with the expected one.
/// Returns "" when they are equal, otherwise a message that starts with the
/// first kind of damage found: "dropped", "duplicated", "unexpected" or
/// "reordered".
std::string CompareSequence(const std::vector<uint64_t>& expected,
                            const std::vector<uint64_t>& delivered);

/// Order-sensitive fold of a per-key record sequence; the reprocessing job
/// keeps it in its store and the reference recomputes it from the history.
inline uint64_t FoldRecord(uint64_t fold, uint64_t value) {
  return (fold ^ value) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
}

/// Feeds the checks a dropped, a duplicated and a reordered record (and a
/// clean copy); returns "" when each damage is flagged and the clean copy
/// passes, otherwise what went unnoticed.
std::string SelfTest();

}  // namespace perfbench

#endif  // LIQUID_PERFBENCH_CHECK_H_

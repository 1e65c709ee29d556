#ifndef LIQUID_TESTS_TEST_UTIL_H_
#define LIQUID_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "messaging/metadata.h"
#include "storage/log.h"
#include "storage/record.h"
#include "storage/record_batch.h"

/// GTest helpers for Status/Result expressions. Status and Result<T> are
/// [[nodiscard]] (see common/nodiscard.h), so a test that exercises a
/// fallible API for its side effect must still check the outcome — these
/// macros make that one line and produce a readable failure message.

// The Status is copied by value: with `auto&&`, LIQUID_ASSERT_OK(r.status())
// on a temporary Result would bind a reference into an object that dies
// before the ASSERT statement runs (stack-use-after-scope under ASan).
#define LIQUID_ASSERT_OK(expr)                                          \
  do {                                                                  \
    const ::liquid::Status _liquid_st =                                 \
        ::liquid::internal::ToStatus((expr));                           \
    ASSERT_TRUE(_liquid_st.ok())                                        \
        << #expr << " -> " << _liquid_st.ToString();                    \
  } while (0)

#define LIQUID_EXPECT_OK(expr)                                          \
  do {                                                                  \
    const ::liquid::Status _liquid_st =                                 \
        ::liquid::internal::ToStatus((expr));                           \
    EXPECT_TRUE(_liquid_st.ok())                                        \
        << #expr << " -> " << _liquid_st.ToString();                    \
  } while (0)

namespace liquid {

/// Reads the records of `log` the way every reader does: the encoded frames
/// from Log::ReadEncoded, decoded with EncodedBatch::DecodeAll (appending to
/// `out`).
inline Status ReadRecords(const storage::Log& log, int64_t offset,
                          size_t max_bytes, std::vector<storage::Record>* out) {
  storage::EncodedBatch batch;
  LIQUID_RETURN_NOT_OK(log.ReadEncoded(offset, max_bytes, &batch));
  return batch.DecodeAll(out);
}

/// The records a consumer gets to see from `fetch` (control markers and
/// aborted data dropped, as Consumer::Poll does).
inline std::vector<storage::Record> FetchedRecords(
    const messaging::FetchResponse& fetch) {
  std::vector<storage::Record> out;
  size_t next_frame = 0;
  const Status st = messaging::DecodeVisible(fetch.batch, fetch.aborted,
                                             SIZE_MAX, &next_frame, &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

}  // namespace liquid

#endif  // LIQUID_TESTS_TEST_UTIL_H_

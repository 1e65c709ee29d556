// TSan stress for the group-commit + page-cache machinery: concurrent
// appenders race each other as sync-round leaders (most batches await
// durability, so leaders fsync while other appenders write and wait),
// alongside readers copying out of cache pages, cache eviction forced by a
// small capacity, and retention deleting segments. Run under -fsanitize=thread by scripts/check.sh; the
// assertions here are secondary to the data-race detection.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "storage/disk.h"
#include "storage/log.h"
#include "storage/page_cache.h"
#include "storage/record_batch.h"

#include "test_util.h"

namespace liquid::storage {
namespace {

TEST(LogGroupCommitStressTest, AppendersRaceAsSyncLeadersAndReaders) {
  MemDisk disk;
  SimulatedClock clock(1000);
  // Small pages and capacity so eviction and copy-on-extend fire constantly
  // under the readers.
  PageCacheConfig cache_config;
  cache_config.page_size = 512;
  cache_config.capacity_bytes = 16 << 10;
  cache_config.flush_after_ms = 0;
  PageCache cache(cache_config, &clock);

  LogConfig config;
  config.segment_bytes = 32 << 10;  // Roll segments mid-run too.
  // Retention drops old segments mid-run, so it must wait out the sync
  // round that may be flushing them.
  config.retention_bytes = 96 << 10;
  config.sync_mode = SyncMode::kEveryBatch;
  auto opened = Log::Open(&disk, &cache, "stress/", config, &clock);
  LIQUID_ASSERT_OK(opened.status());
  std::unique_ptr<Log> log = std::move(opened).value();

  Counter* syncs = MetricsRegistry::Default()->GetCounter(
      "liquid.log.stress.group_commit_syncs");
  const int64_t syncs_before = syncs->value();

  constexpr int kAppenders = 4;
  constexpr int kReaders = 2;
  constexpr int kBatchesPerAppender = 100;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> awaited_max_end{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kBatchesPerAppender; ++i) {
        std::vector<Record> batch;
        for (int r = 0; r < 5; ++r) {
          batch.push_back(Record::KeyValue(
              "k" + std::to_string(t) + "-" + std::to_string(i),
              std::string(64, 'v')));
        }
        auto result = log->AppendBatch(&batch);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        // Three in four batches are acknowledged: their waits race to lead
        // sync rounds; the rest ride along in a later round.
        if (i % 4 != 3) {
          const int64_t end = batch.back().offset + 1;
          LIQUID_ASSERT_OK(log->AwaitDurable(end));
          int64_t seen = awaited_max_end.load();
          while (end > seen &&
                 !awaited_max_end.compare_exchange_weak(seen, end)) {
          }
          // An acked append must be covered by the durable watermark.
          ASSERT_GE(log->durable_offset(), end);
        }
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      int64_t cursor = 0;
      while (!stop.load(std::memory_order_acquire)) {
        EncodedBatch out;
        Status st = log->ReadEncoded(cursor, 8 << 10, &out);
        if (st.ok() && !out.empty()) {
          // Frames must decode from the gathered buffer even as appenders
          // extend and evict the pages it was copied from.
          std::vector<Record> decoded;
          ASSERT_TRUE(out.DecodeAll(&decoded).ok());
          ASSERT_EQ(decoded.front().offset, out.base_offset());
          cursor = out.last_offset() + 1;
        } else {
          cursor = 0;  // Wrap and rescan from the head.
        }
      }
    });
  }

  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(log->ApplyRetention().ok());
      std::this_thread::yield();
    }
  });

  for (int t = 0; t < kAppenders; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kAppenders; t < threads.size(); ++t) threads[t].join();

  const int64_t total = kAppenders * kBatchesPerAppender * 5;
  EXPECT_EQ(log->end_offset(), total);
  EXPECT_GE(log->durable_offset(), awaited_max_end.load());
  EXPECT_GE(disk.sync_ops(), 1);
  // Coalescing can only reduce rounds: never more than one per wait.
  EXPECT_LE(syncs->value() - syncs_before,
            kAppenders * kBatchesPerAppender * 3 / 4);
}

}  // namespace
}  // namespace liquid::storage

// Group-commit durability (DESIGN.md §6c): sync_mode semantics, the
// durable-offset watermark, inline group commit (concurrent waiters share
// one fsync round), fsync failure handling, truncation, and the E7b-style
// crash invariant — records acknowledged durable survive a crash (simulated by
// truncating the backing store to its fsynced prefix), unacknowledged ones
// may be lost, and survivors are always an offset prefix.

#include "storage/log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "storage/disk.h"

#include "test_util.h"

namespace liquid::storage {
namespace {

std::vector<Record> KeyedBatch(int count, const std::string& prefix = "k") {
  std::vector<Record> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(
        Record::KeyValue(prefix + std::to_string(i), "v" + std::to_string(i)));
  }
  return out;
}

class LogGroupCommitTest : public ::testing::Test {
 protected:
  std::unique_ptr<Log> OpenLog(SyncMode mode,
                               const std::string& prefix = "g0/") {
    LogConfig config;
    config.sync_mode = mode;
    auto log = Log::Open(&disk_, nullptr, prefix, config, &clock_);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    return std::move(log).value();
  }

  /// Appends one batch without waiting for durability; returns its end.
  Result<int64_t> AppendOnly(Log* log, int records) {
    auto batch = KeyedBatch(records);
    LIQUID_ASSIGN_OR_RETURN(EncodedBatch encoded, log->AppendBatch(&batch));
    return encoded.last_offset() + 1;
  }

  /// Appends one batch and, under kEveryBatch, waits until it is durable —
  /// the acknowledgment path.
  Status Append(Log* log, int records) {
    LIQUID_ASSIGN_OR_RETURN(int64_t end, AppendOnly(log, records));
    if (log->config().sync_mode == SyncMode::kNone) return Status::OK();
    return log->AwaitDurable(end);
  }

  int64_t CountRecords(Log* log) {
    std::vector<Record> out;
    EXPECT_TRUE(ReadRecords(*log, 0, 64 << 20, &out).ok());
    return static_cast<int64_t>(out.size());
  }

  MemDisk disk_;
  SimulatedClock clock_{1000};
};

TEST_F(LogGroupCommitTest, NoneNeverAdvancesDurableOffset) {
  auto log = OpenLog(SyncMode::kNone);
  LIQUID_ASSERT_OK(Append(log.get(), 5));
  EXPECT_EQ(log->durable_offset(), 0);
  EXPECT_EQ(disk_.sync_ops(), 0);
  // Nothing to wait for: kNone never fsyncs, so the wait refuses at once
  // instead of blocking forever.
  EXPECT_TRUE(log->AwaitDurable(5).IsFailedPrecondition());
}

TEST_F(LogGroupCommitTest, EveryBatchSyncsInline) {
  // One appender: each acknowledgment is its own round, one fsync per batch.
  auto log = OpenLog(SyncMode::kEveryBatch);
  for (int i = 0; i < 3; ++i) {
    LIQUID_ASSERT_OK(Append(log.get(), 5));
    EXPECT_EQ(log->durable_offset(), log->end_offset());
  }
  EXPECT_EQ(disk_.sync_ops(), 3);
}

TEST_F(LogGroupCommitTest, AwaitedGroupAppendBecomesDurable) {
  // Appends only write; the wait runs the fsync.
  auto log = OpenLog(SyncMode::kEveryBatch);
  LIQUID_ASSERT_OK(AppendOnly(log.get(), 5).status());
  EXPECT_EQ(log->durable_offset(), 0);
  EXPECT_EQ(disk_.sync_ops(), 0);
  LIQUID_ASSERT_OK(log->AwaitDurable(5));
  EXPECT_EQ(log->durable_offset(), 5);
  EXPECT_EQ(disk_.sync_ops(), 1);
}

TEST_F(LogGroupCommitTest, AckIsPrefixOrdered) {
  // Awaiting one batch implies every earlier batch is durable too: a sync
  // round always covers a prefix of the committed offsets.
  auto log = OpenLog(SyncMode::kEveryBatch);
  for (int i = 0; i < 5; ++i) {
    LIQUID_ASSERT_OK(AppendOnly(log.get(), 10).status());
  }
  LIQUID_ASSERT_OK(Append(log.get(), 1));
  EXPECT_EQ(log->durable_offset(), log->end_offset());
  EXPECT_EQ(disk_.sync_ops(), 1);
}

TEST_F(LogGroupCommitTest, ConcurrentWaitersShareOneSync) {
  auto log = OpenLog(SyncMode::kEveryBatch);
  Counter* syncs = MetricsRegistry::Default()->GetCounter(
      "liquid.log.g0.group_commit_syncs");
  const int64_t syncs_before = syncs->value();

  // Hold the first round's fsync until released.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> first{true};
  disk_.SetSyncFaultHook([&](const std::string&) {
    if (first.exchange(false)) {
      entered.set_value();
      released.wait();
    }
    return Status::OK();
  });

  std::vector<std::future<Status>> acks;
  acks.push_back(std::async(std::launch::async,
                            [&] { return Append(log.get(), 5); }));
  entered.get_future().wait();  // Round 1 leads with offsets [0, 5).

  // Three more appends commit while round 1's fsync is held — no log lock
  // is held across it — and wait: they share the next round.
  for (int i = 0; i < 3; ++i) {
    LIQUID_ASSERT_OK(AppendOnly(log.get(), 5).status());
  }
  EXPECT_EQ(log->end_offset(), 20);
  for (int64_t end : {10, 15, 20}) {
    acks.push_back(std::async(std::launch::async,
                              [&log, end] { return log->AwaitDurable(end); }));
  }
  release.set_value();
  for (auto& ack : acks) LIQUID_EXPECT_OK(ack.get());

  EXPECT_EQ(syncs->value() - syncs_before, 2);
  EXPECT_EQ(log->durable_offset(), 20);
  disk_.SetSyncFaultHook(nullptr);
}

TEST_F(LogGroupCommitTest, AckedRecordsSurviveCrashUnackedTailMayNot) {
  // The E7b invariant, extended to single-node durability: acknowledged
  // means fsynced, so a crash (backing store truncated to the synced
  // prefix) keeps every acked record; the un-awaited tail appended while
  // fsyncs were failing is legally lost — and what survives is a prefix.
  int64_t acked_end = 0;
  {
    auto log = OpenLog(SyncMode::kEveryBatch);
    for (int i = 0; i < 4; ++i) {
      LIQUID_ASSERT_OK(Append(log.get(), 5));
    }
    acked_end = log->end_offset();
    ASSERT_EQ(acked_end, 20);

    // Fail all further fsyncs so the tail cannot become durable.
    disk_.SetSyncFaultHook(
        [](const std::string&) { return Status::IOError("injected"); });
    LIQUID_ASSERT_OK(AppendOnly(log.get(), 5).status());
    EXPECT_FALSE(Append(log.get(), 5).ok());
    EXPECT_EQ(log->durable_offset(), acked_end);

    disk_.SimulateCrash();
  }

  disk_.SetSyncFaultHook(nullptr);
  auto log = OpenLog(SyncMode::kEveryBatch);
  EXPECT_EQ(log->end_offset(), acked_end);
  EXPECT_EQ(CountRecords(log.get()), acked_end);
}

TEST_F(LogGroupCommitTest, FailedSyncFailsAckAndLaterAppendsRecover) {
  auto log = OpenLog(SyncMode::kEveryBatch);
  LIQUID_ASSERT_OK(Append(log.get(), 5));

  std::atomic<bool> fail{true};
  disk_.SetSyncFaultHook([&fail](const std::string&) {
    return fail.load() ? Status::IOError("injected") : Status::OK();
  });
  Status st = Append(log.get(), 5);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(log->durable_offset(), 5);

  // The next waiter leads a fresh round, which covers the previously
  // failed range too.
  fail.store(false);
  LIQUID_ASSERT_OK(Append(log.get(), 5));
  EXPECT_EQ(log->durable_offset(), 15);
}

TEST_F(LogGroupCommitTest, EveryBatchSurvivesCrashCompletely) {
  {
    auto log = OpenLog(SyncMode::kEveryBatch);
    for (int i = 0; i < 3; ++i) {
      LIQUID_ASSERT_OK(Append(log.get(), 5));
    }
    disk_.SimulateCrash();
  }
  auto log = OpenLog(SyncMode::kEveryBatch);
  EXPECT_EQ(log->end_offset(), 15);
  EXPECT_EQ(CountRecords(log.get()), 15);
}

TEST_F(LogGroupCommitTest, TruncateKeepsDurablePrefixAcrossCrash) {
  // Truncation rewrites the surviving part of the last segment; the copy
  // must be fsynced too, or the crash takes the durable prefix with it.
  {
    auto log = OpenLog(SyncMode::kEveryBatch);
    LIQUID_ASSERT_OK(Append(log.get(), 10));
    LIQUID_ASSERT_OK(log->Truncate(5));
    disk_.SimulateCrash();
  }
  auto log = OpenLog(SyncMode::kEveryBatch);
  EXPECT_EQ(log->end_offset(), 5);
  EXPECT_EQ(CountRecords(log.get()), 5);
}

TEST_F(LogGroupCommitTest, TruncateLowersDurableWatermark) {
  auto log = OpenLog(SyncMode::kEveryBatch);
  LIQUID_ASSERT_OK(Append(log.get(), 10));
  LIQUID_ASSERT_OK(log->Truncate(5));
  EXPECT_EQ(log->durable_offset(), 5);

  // Offsets 5-9 are new records now: with every fsync failing, their wait
  // cannot succeed on the strength of the truncated ones.
  disk_.SetSyncFaultHook(
      [](const std::string&) { return Status::IOError("injected"); });
  LIQUID_ASSERT_OK(AppendOnly(log.get(), 5).status());
  EXPECT_FALSE(log->AwaitDurable(10).ok());
  EXPECT_EQ(log->durable_offset(), 5);
  disk_.SetSyncFaultHook(nullptr);
}

TEST_F(LogGroupCommitTest, AwaitDurableFailsFastAfterTruncation) {
  // With no thread to sync on its own, a wait for offsets a truncation
  // removed must return at once rather than hang (Broker::Produce drops its
  // locks between the append and the wait, and a leader change can
  // truncate in that gap).
  auto log = OpenLog(SyncMode::kEveryBatch);
  auto end = AppendOnly(log.get(), 10);
  LIQUID_ASSERT_OK(end.status());
  LIQUID_ASSERT_OK(log->Truncate(4));
  auto wait = std::async(std::launch::async,
                         [&log, &end] { return log->AwaitDurable(*end); });
  ASSERT_EQ(wait.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_FALSE(wait.get().ok());
}

}  // namespace
}  // namespace liquid::storage

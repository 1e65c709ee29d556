// Broker-level group commit: on a sync_mode=every_batch topic every ack
// waits for the fsync covering it (Broker::Produce awaits durability with
// the replica lock released), so the E7b invariant extends to single-node
// crashes — acknowledged records survive the broker losing everything that
// was never fsynced; batches whose sync failed are NOT acknowledged and may
// be lost, and a fetch never sees a record before it is durable.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"
#include "storage/log.h"

#include "test_util.h"

namespace liquid::messaging {
namespace {

class GroupCommitProduceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_brokers = 1;
    cluster_ = std::make_unique<Cluster>(config, &clock_);
    ASSERT_TRUE(cluster_->Start().ok());
    TopicConfig topic;
    topic.partitions = 1;
    topic.replication_factor = 1;
    topic.log.sync_mode = storage::SyncMode::kEveryBatch;
    ASSERT_TRUE(cluster_->CreateTopic("t", topic).ok());
  }

  Status ProduceOne(AckMode acks, const std::string& value) {
    auto leader = cluster_->LeaderFor(tp_);
    if (!leader.ok()) return leader.status();
    std::vector<storage::Record> batch{storage::Record::KeyValue("k", value)};
    return (*leader)->Produce(tp_, std::move(batch), acks).status();
  }

  int64_t CountFetchable() {
    auto leader = cluster_->LeaderFor(tp_);
    EXPECT_TRUE(leader.ok()) << leader.status().ToString();
    int64_t count = 0;
    int64_t cursor = 0;
    while (true) {
      auto fetch = (*leader)->Fetch(tp_, cursor, 1 << 20, -1);
      if (!fetch.ok() || fetch->batch.empty()) break;
      count += static_cast<int64_t>(fetch->batch.record_count());
      cursor = fetch->next_fetch_offset;
    }
    return count;
  }

  const TopicPartition tp_{"t", 0};
  SimulatedClock clock_{1000};
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(GroupCommitProduceTest, AcksAllWaitsForGroupDurability) {
  for (int i = 0; i < 10; ++i) {
    LIQUID_ASSERT_OK(ProduceOne(AckMode::kAll, "v" + std::to_string(i)));
  }
  // Every acked record is fsynced: one sync round per produce, and the
  // backing store would survive losing all unsynced bytes.
  EXPECT_GE(cluster_->disk(0)->sync_ops(), 1);
  cluster_->disk(0)->SimulateCrash();
  ASSERT_TRUE(cluster_->StopBroker(0).ok());
  ASSERT_TRUE(cluster_->RestartBroker(0).ok());
  EXPECT_EQ(CountFetchable(), 10);
}

TEST_F(GroupCommitProduceTest, FailedGroupSyncFailsTheAck) {
  LIQUID_ASSERT_OK(ProduceOne(AckMode::kAll, "durable"));
  cluster_->disk(0)->SetSyncFaultHook(
      [](const std::string&) { return Status::IOError("injected"); });
  // No ack level can be honoured while fsync fails: under every_batch even
  // acks=1 promises that the leader's copy is durable.
  EXPECT_FALSE(ProduceOne(AckMode::kAll, "lost?").ok());
  EXPECT_FALSE(ProduceOne(AckMode::kLeader, "unsynced").ok());

  // Crash: only the fsynced prefix survives — exactly the acked-all data.
  cluster_->disk(0)->SimulateCrash();
  cluster_->disk(0)->SetSyncFaultHook(nullptr);
  ASSERT_TRUE(cluster_->StopBroker(0).ok());
  ASSERT_TRUE(cluster_->RestartBroker(0).ok());
  EXPECT_EQ(CountFetchable(), 1);
}

TEST_F(GroupCommitProduceTest, FsyncRunsOutsideTheReplicaLock) {
  auto leader = cluster_->LeaderFor(tp_);
  LIQUID_ASSERT_OK(leader.status());
  Broker* broker = *leader;
  Counter* appended = MetricsRegistry::Default()->GetCounter(
      "liquid.broker.0.partition." + tp_.ToString() + ".append_records");
  const int64_t appended_before = appended->value();

  // Hold the first fsync until released.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> first{true};
  cluster_->disk(0)->SetSyncFaultHook([&](const std::string&) {
    if (first.exchange(false)) {
      entered.set_value();
      released.wait();
    }
    return Status::OK();
  });
  auto produce = [&](AckMode acks, const std::string& value) {
    std::vector<storage::Record> batch{storage::Record::KeyValue("k", value)};
    return broker->Produce(tp_, std::move(batch), acks).status();
  };
  auto a = std::async(std::launch::async,
                      [&] { return produce(AckMode::kAll, "a"); });
  entered.get_future().wait();

  // While producer a's fsync is held, producer b on the same partition
  // appends: the fsync does not hold the replica lock. (The append counter
  // is read without any broker lock, so this check cannot hang.)
  auto b = std::async(std::launch::async,
                      [&] { return produce(AckMode::kLeader, "b"); });
  bool landed = false;
  for (int i = 0; i < 500 && !landed; ++i) {
    landed = appended->value() - appended_before == 2;
    if (!landed) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(landed) << "second append blocked behind the first fsync";
  if (landed) {
    // Neither record is durable yet, so a consumer sees neither.
    EXPECT_EQ(CountFetchable(), 0);
  }

  release.set_value();
  LIQUID_EXPECT_OK(a.get());
  LIQUID_EXPECT_OK(b.get());
  cluster_->disk(0)->SetSyncFaultHook(nullptr);
  EXPECT_EQ(CountFetchable(), 2);
}

}  // namespace
}  // namespace liquid::messaging

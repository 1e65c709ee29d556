#ifndef LIQUID_MESSAGING_CLUSTER_H_
#define LIQUID_MESSAGING_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "coord/coordination_service.h"
#include "messaging/access_control.h"
#include "messaging/broker.h"
#include "messaging/metadata.h"
#include "storage/disk.h"

namespace liquid::messaging {

/// Cluster-wide configuration.
struct ClusterConfig {
  int num_brokers = 3;
  BrokerConfig broker;
  /// Latency model of each broker's simulated disk.
  storage::DiskLatencyModel disk_latency;
};

/// The messaging-layer cluster (Fig. 3): brokers, the coordination service,
/// and topic administration. Brokers' disks are owned here so that a broker
/// "process" can crash (Stop) and restart against its surviving disk.
///
/// Replication catch-up (the follower pull path) is driven by the caller
/// through ReplicationTick(), which keeps tests deterministic.
class Cluster {
 public:
  Cluster(ClusterConfig config, Clock* clock);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts all brokers (one becomes controller).
  Status Start();

  /// Creates a topic: assigns partition replicas round-robin over alive
  /// brokers, records state in the coordination service, and instructs the
  /// chosen brokers to become leaders/followers.
  Status CreateTopic(const std::string& name, const TopicConfig& config);

  Result<TopicConfig> GetTopicConfig(const std::string& topic) const;
  std::vector<std::string> Topics() const;
  /// All partitions of `topic` (NotFound if the topic does not exist).
  Result<std::vector<TopicPartition>> PartitionsOf(const std::string& topic) const;

  Result<PartitionState> GetPartitionState(const TopicPartition& tp) const;

  /// The broker currently leading `tp`, or NotLeader/Unavailable.
  Result<Broker*> LeaderFor(const TopicPartition& tp);

  Broker* broker(int id);
  /// The simulated disk behind broker `id` (benches and crash tests install
  /// fault hooks / inspect fsync counts through this). Outlives the broker:
  /// the disk survives StopBroker so a RestartBroker can recover from it.
  storage::MemDisk* disk(int id);
  std::vector<int> BrokerIds() const;
  std::vector<int> AliveBrokerIds() const;

  /// Simulates a broker crash (controller re-elects partition leaders).
  Status StopBroker(int id);

  /// Restarts a stopped broker against its surviving disk; it resumes its
  /// replicas as followers and catches up through replication.
  Status RestartBroker(int id);

  /// One replication pull pass on every alive broker.
  void ReplicationTick();

  /// Retention + compaction pass on every alive broker.
  void RunLogMaintenance();

  coord::CoordinationService* coord() { return &coord_; }
  Clock* clock() { return clock_; }
  /// Cluster-wide ACLs, enforced by every broker on client requests (§2.1).
  AccessController* acls() { return &acls_; }

  /// The id of the current controller broker, or -1.
  int ControllerId() const;

 private:
  const ClusterConfig config_;
  Clock* const clock_;
  coord::CoordinationService coord_;
  AccessController acls_;

  mutable Mutex mu_;
  std::map<int, std::unique_ptr<storage::MemDisk>> disks_ GUARDED_BY(mu_);
  std::map<int, std::unique_ptr<Broker>> brokers_ GUARDED_BY(mu_);
  std::map<std::string, TopicConfig> topics_ GUARDED_BY(mu_);
};

}  // namespace liquid::messaging

#endif  // LIQUID_MESSAGING_CLUSTER_H_

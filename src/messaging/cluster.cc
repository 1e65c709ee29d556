#include "messaging/cluster.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/logging.h"

namespace liquid::messaging {

Cluster::Cluster(ClusterConfig config, Clock* clock)
    : config_(config), clock_(clock) {}

Cluster::~Cluster() {
  // Stop brokers gracefully so controller churn during teardown is bounded.
  std::vector<Broker*> to_stop;
  {
    MutexLock lock(&mu_);
    for (auto& [id, broker] : brokers_) to_stop.push_back(broker.get());
  }
  for (Broker* broker : to_stop) broker->Stop();
}

Status Cluster::Start() {
  // Bootstrap the persistent coordination namespace. Creation is idempotent
  // across restarts: AlreadyExists is fine, anything else is fatal.
  const int64_t session = coord_.CreateSession();
  auto bootstrap = [&](const std::string& path) -> Status {
    auto created = coord_.Create(session, path, "", coord::NodeKind::kPersistent);
    if (!created.ok() && !created.status().IsAlreadyExists()) {
      return created.status();
    }
    return Status::OK();
  };
  LIQUID_RETURN_NOT_OK(bootstrap(paths::BrokersRoot()));
  LIQUID_RETURN_NOT_OK(bootstrap(paths::BrokerIds()));
  LIQUID_RETURN_NOT_OK(bootstrap(paths::TopicsRoot()));
  {
    MutexLock lock(&mu_);
    for (int id = 0; id < config_.num_brokers; ++id) {
      disks_[id] = std::make_unique<storage::MemDisk>(config_.disk_latency);
      brokers_[id] = std::make_unique<Broker>(id, this, disks_[id].get(),
                                              clock_, config_.broker);
    }
  }
  for (int id : BrokerIds()) {
    LIQUID_RETURN_NOT_OK(broker(id)->Start());
  }
  return Status::OK();
}

Status Cluster::CreateTopic(const std::string& name, const TopicConfig& config) {
  if (config.partitions < 1 || config.replication_factor < 1) {
    return Status::InvalidArgument("bad topic config for " + name);
  }
  std::vector<int> alive = AliveBrokerIds();
  if (static_cast<int>(alive.size()) < config.replication_factor) {
    return Status::InvalidArgument("replication factor exceeds alive brokers");
  }
  {
    MutexLock lock(&mu_);
    if (topics_.count(name)) {
      return Status::AlreadyExists("topic exists: " + name);
    }
    topics_[name] = config;
  }

  // Admin session for persistent metadata nodes.
  const int64_t session = coord_.CreateSession();
  if (!coord_.Exists(paths::TopicsRoot())) {
    auto root = coord_.Create(session, paths::TopicsRoot(), "",
                              coord::NodeKind::kPersistent);
    // A concurrent CreateTopic may have won the race; that is fine.
    if (!root.ok() && !root.status().IsAlreadyExists()) return root.status();
  }
  auto created = coord_.Create(session, paths::Topic(name), "",
                               coord::NodeKind::kPersistent);
  if (!created.ok()) return created.status();
  LIQUID_RETURN_NOT_OK(coord_
                           .Create(session, paths::Partitions(name),
                                   std::to_string(config.partitions),
                                   coord::NodeKind::kPersistent)
                           .status());

  for (int p = 0; p < config.partitions; ++p) {
    const TopicPartition tp{name, p};
    PartitionState state;
    for (int r = 0; r < config.replication_factor; ++r) {
      state.replicas.push_back(
          alive[(p + r) % static_cast<int>(alive.size())]);
    }
    state.leader = state.replicas.front();
    state.leader_epoch = 0;
    state.isr = state.replicas;
    LIQUID_RETURN_NOT_OK(coord_
                             .Create(session, paths::PartitionStatePath(tp),
                                     state.Serialize(),
                                     coord::NodeKind::kPersistent)
                             .status());
    for (int replica_id : state.replicas) {
      Broker* b = broker(replica_id);
      if (b == nullptr) continue;
      Status st = replica_id == state.leader
                      ? b->BecomeLeader(tp, state, config)
                      : b->BecomeFollower(tp, state, config);
      LIQUID_RETURN_NOT_OK(st);
    }
  }
  return Status::OK();
}

Result<TopicConfig> Cluster::GetTopicConfig(const std::string& topic) const {
  MutexLock lock(&mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound("no such topic: " + topic);
  return it->second;
}

std::vector<std::string> Cluster::Topics() const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  for (const auto& [name, config] : topics_) out.push_back(name);
  return out;
}

Result<std::vector<TopicPartition>> Cluster::PartitionsOf(
    const std::string& topic) const {
  MutexLock lock(&mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound("no such topic: " + topic);
  std::vector<TopicPartition> out;
  for (int p = 0; p < it->second.partitions; ++p) {
    out.push_back(TopicPartition{topic, p});
  }
  return out;
}

Result<PartitionState> Cluster::GetPartitionState(
    const TopicPartition& tp) const {
  auto data = const_cast<coord::CoordinationService&>(coord_).Get(
      paths::PartitionStatePath(tp));
  if (!data.ok()) return data.status();
  return PartitionState::Parse(*data);
}

Result<Broker*> Cluster::LeaderFor(const TopicPartition& tp) {
  LIQUID_ASSIGN_OR_RETURN(PartitionState state, GetPartitionState(tp));
  if (state.leader < 0) {
    return Status::Unavailable("partition offline: " + tp.ToString());
  }
  Broker* b = broker(state.leader);
  if (b == nullptr || !b->alive()) {
    return Status::Unavailable("leader down: " + tp.ToString());
  }
  return b;
}

Broker* Cluster::broker(int id) {
  MutexLock lock(&mu_);
  auto it = brokers_.find(id);
  return it == brokers_.end() ? nullptr : it->second.get();
}

storage::MemDisk* Cluster::disk(int id) {
  MutexLock lock(&mu_);
  auto it = disks_.find(id);
  return it == disks_.end() ? nullptr : it->second.get();
}

std::vector<int> Cluster::BrokerIds() const {
  MutexLock lock(&mu_);
  std::vector<int> out;
  for (const auto& [id, broker] : brokers_) out.push_back(id);
  return out;
}

std::vector<int> Cluster::AliveBrokerIds() const {
  // Query liveness after dropping mu_: Broker::alive() takes the broker's
  // lock, and brokers call back into Cluster accessors while holding it
  // (Broker::mu_ -> Cluster::mu_), so the reverse order would deadlock.
  std::vector<std::pair<int, Broker*>> brokers;
  {
    MutexLock lock(&mu_);
    brokers.reserve(brokers_.size());
    for (const auto& [id, broker] : brokers_) {
      brokers.emplace_back(id, broker.get());
    }
  }
  std::vector<int> out;
  for (const auto& [id, broker] : brokers) {
    if (broker->alive()) out.push_back(id);
  }
  return out;
}

Status Cluster::StopBroker(int id) {
  Broker* b = broker(id);
  if (b == nullptr) return Status::NotFound("no such broker");
  b->Stop();
  return Status::OK();
}

Status Cluster::RestartBroker(int id) {
  storage::MemDisk* disk;
  {
    MutexLock lock(&mu_);
    auto it = disks_.find(id);
    if (it == disks_.end()) return Status::NotFound("no such broker");
    disk = it->second.get();
    // The old Broker object is the "crashed process"; replace it with a new
    // one over the surviving disk.
    brokers_[id] =
        std::make_unique<Broker>(id, this, disk, clock_, config_.broker);
  }
  Broker* b = broker(id);
  LIQUID_RETURN_NOT_OK(b->Start());
  // Resume hosted partitions from the cluster metadata.
  for (const std::string& topic : Topics()) {
    auto config = GetTopicConfig(topic);
    if (!config.ok()) continue;
    auto partitions = PartitionsOf(topic);
    if (!partitions.ok()) continue;
    for (const TopicPartition& tp : *partitions) {
      auto state = GetPartitionState(tp);
      if (!state.ok()) continue;
      if (std::find(state->replicas.begin(), state->replicas.end(), id) ==
          state->replicas.end()) {
        continue;
      }
      Status st = state->leader == id ? b->BecomeLeader(tp, *state, *config)
                                      : b->BecomeFollower(tp, *state, *config);
      if (!st.ok()) {
        LIQUID_LOG_WARN << "restart: resume " << tp.ToString() << " on broker "
                        << id << " failed: " << st.ToString();
      }
    }
  }
  return Status::OK();
}

void Cluster::ReplicationTick() {
  for (int id : AliveBrokerIds()) {
    Broker* b = broker(id);
    if (b == nullptr) continue;
    // Periodic: a failed pass is retried on the next tick; log so repeated
    // failures are visible rather than silently stalling replication.
    if (Status st = b->ReplicateFromLeaders(); !st.ok()) {
      LIQUID_LOG_WARN << "replication tick failed on broker " << id << ": "
                      << st.ToString();
    }
  }
}

void Cluster::RunLogMaintenance() {
  for (int id : AliveBrokerIds()) {
    Broker* b = broker(id);
    if (b == nullptr) continue;
    // Periodic, same retry-next-tick contract as replication.
    if (Status st = b->RunLogMaintenance(); !st.ok()) {
      LIQUID_LOG_WARN << "log maintenance failed on broker " << id << ": "
                      << st.ToString();
    }
  }
}

int Cluster::ControllerId() const {
  auto data = const_cast<coord::CoordinationService&>(coord_).Get(
      paths::Controller());
  if (!data.ok()) return -1;
  return std::atoi(data->c_str());
}

}  // namespace liquid::messaging

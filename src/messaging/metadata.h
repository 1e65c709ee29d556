#ifndef LIQUID_MESSAGING_METADATA_H_
#define LIQUID_MESSAGING_METADATA_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/log.h"

namespace liquid::messaging {

/// Identifies one partition of one topic.
struct TopicPartition {
  std::string topic;
  int partition = 0;

  bool operator==(const TopicPartition& other) const {
    return partition == other.partition && topic == other.topic;
  }
  bool operator<(const TopicPartition& other) const {
    if (topic != other.topic) return topic < other.topic;
    return partition < other.partition;
  }

  // liquid-lint: allow(hot-alloc): formats a partition name on demand; hot paths reach this only on traced/error/log branches and callers that must own a string key.
  std::string ToString() const { return topic + "-" + std::to_string(partition); }
};

/// Hash functor so TopicPartition can key unordered containers.
struct TopicPartitionHash {
  size_t operator()(const TopicPartition& tp) const {
    return std::hash<std::string>()(tp.topic) * 31 +
           static_cast<size_t>(tp.partition);
  }
};

/// Per-topic configuration set at creation time.
struct TopicConfig {
  int partitions = 1;
  int replication_factor = 1;
  storage::LogConfig log;
  /// Produce with acks=all fails unless at least this many replicas
  /// (including the leader) are in sync.
  int min_insync_replicas = 1;
  /// If the ISR is empty on failover, allow electing a non-ISR replica
  /// (availability over durability).
  bool unclean_leader_election = false;
};

/// Replication state of one partition, maintained by the controller in the
/// coordination service (§4.3).
struct PartitionState {
  int leader = -1;       // Broker id; -1 = offline.
  int leader_epoch = 0;  // Bumped on every leader change.
  std::vector<int> replicas;
  std::vector<int> isr;  // In-sync replicas, always a subset of replicas.

  std::string Serialize() const;
  static Result<PartitionState> Parse(const std::string& data);
};

/// Durability level requested by a producer (§4.3 performance/durability
/// trade-off).
enum class AckMode {
  kNone = 0,  // Fire and forget: acknowledged before even the local append.
  kLeader = 1,  // Acknowledged after the leader's local append.
  kAll = -1,    // Acknowledged after every ISR member has the data.
};

/// Broker reply to a produce request: where the batch landed in the log.
struct ProduceResponse {
  int64_t base_offset = -1;
  int64_t log_end_offset = -1;
  /// Quota verdict (§4.5): how long the caller must back off before its next
  /// request. The broker never sleeps on the request path — clients enforce
  /// their own throttle (see Producer), keeping broker threads available.
  int64_t throttle_ms = 0;
};

/// The data of one aborted transaction on a partition: records of `pid` with
/// offsets in [first_offset, last_offset) never reach read_committed
/// consumers. `last_offset` is the abort marker's own offset.
struct AbortedRange {
  int64_t pid = storage::kNoProducerId;
  int64_t first_offset = 0;
  int64_t last_offset = 0;
};

/// Broker reply to a fetch request: the stored frames plus the log offsets a
/// consumer needs to track its position and compute lag (high_watermark −
/// position).
struct FetchResponse {
  /// The log's encoded frames, byte for byte (the encode-once path: each
  /// frame's CRC was checked once, when the log gathered it). Replica fetches
  /// get the full log and append these bytes verbatim. Consumer fetches are
  /// trimmed to the high watermark (read_committed: the last stable offset)
  /// but still hold control markers and aborted data; the client drops those
  /// while decoding (DecodeVisible).
  storage::EncodedBatch batch;
  /// read_committed consumer fetches only: the aborted transactions whose
  /// ranges overlap `batch`.
  std::vector<AbortedRange> aborted;
  int64_t high_watermark = 0;
  int64_t log_start_offset = 0;
  int64_t log_end_offset = 0;
  /// Where the consumer should fetch next: one past the last frame in
  /// `batch`, which may be beyond the last record a consumer gets to see.
  int64_t next_fetch_offset = 0;
  /// Same client-side throttle contract as ProduceResponse::throttle_ms.
  int64_t throttle_ms = 0;
};

/// Decodes the frames of `batch` from index `*next_frame` on, appending to
/// `out` every record an application may see: control markers and records
/// inside an `aborted` range are dropped. Stops once `max_records` records
/// were appended or the batch ends, and advances `*next_frame` past every
/// frame it consumed. Runs in the client, outside every broker lock, and does
/// not check CRCs again (the log checked each frame when it gathered it).
Status DecodeVisible(const storage::EncodedBatch& batch,
                     const std::vector<AbortedRange>& aborted,
                     size_t max_records, size_t* next_frame,
                     std::vector<storage::Record>* out);

/// Coordination-service paths used by brokers and the controller.
namespace paths {

inline std::string BrokersRoot() { return "/brokers"; }
inline std::string BrokerIds() { return "/brokers/ids"; }
inline std::string Broker(int id) {
  return "/brokers/ids/" + std::to_string(id);
}
inline std::string Controller() { return "/controller"; }
inline std::string TopicsRoot() { return "/topics"; }
inline std::string Topic(const std::string& topic) { return "/topics/" + topic; }
inline std::string Partitions(const std::string& topic) {
  return "/topics/" + topic + "/partitions";
}
inline std::string PartitionStatePath(const TopicPartition& tp) {
  return "/topics/" + tp.topic + "/partitions/" + std::to_string(tp.partition);
}

}  // namespace paths

}  // namespace liquid::messaging

#endif  // LIQUID_MESSAGING_METADATA_H_

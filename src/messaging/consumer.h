#ifndef LIQUID_MESSAGING_CONSUMER_H_
#define LIQUID_MESSAGING_CONSUMER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "messaging/group_coordinator.h"
#include "messaging/metadata.h"
#include "messaging/offset_manager.h"
#include "storage/record.h"
#include "storage/record_batch.h"

namespace liquid::messaging {

class Cluster;

/// A record delivered to a consumer, tagged with its origin partition.
struct ConsumerRecord {
  TopicPartition tp;
  storage::Record record;
};

/// Consumer tuning knobs; the group name also scopes committed offsets and
/// the `liquid.consumer.<group>.*` metrics.
struct ConsumerConfig {
  std::string group = "default";
  size_t fetch_max_bytes = 1 << 20;
  /// Where to start on a partition with no committed offset.
  bool start_from_earliest = true;
  /// Client id charged against broker-side byte-rate quotas (§4.5); empty
  /// means unquoted.
  std::string client_id;
  /// Hide transactional data until its transaction commits (exactly-once
  /// reads); aborted data and control markers are never delivered.
  bool read_committed = false;
  /// Unified retry discipline (DESIGN.md §7) for transient fetch failures
  /// inside one Poll: leader re-resolve plus short jittered backoff. Kept
  /// small — an exhausted budget just defers the partition to the next poll.
  RetryPolicy retry{.max_attempts = 3, .max_backoff_ms = 4};
};

/// Subscribing client of the messaging layer (§3.1). Pull-based: Poll()
/// fetches from the leaders of the partitions assigned to this member by the
/// group coordinator, tracking per-partition positions; Commit() checkpoints
/// positions (optionally with metadata annotations) in the offset manager.
class Consumer {
 public:
  Consumer(Cluster* cluster, OffsetManager* offsets,
           GroupCoordinator* coordinator, std::string member_id,
           ConsumerConfig config);
  ~Consumer();

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Joins the group, subscribing to `topics`; triggers a rebalance.
  Status Subscribe(const std::vector<std::string>& topics);

  /// Returns up to max_records records across assigned partitions
  /// (round-robin). A partition is served first from the undelivered rest of
  /// its last fetch, and fetched again only once that is used up. Returns an
  /// empty vector when no new committed data exists.
  LIQUID_HOT_PATH
  Result<std::vector<ConsumerRecord>> Poll(size_t max_records);

  /// Checkpoints current positions for all assigned partitions.
  Status Commit();

  /// Checkpoints with metadata annotations (e.g. {"version","v2"}) — §4.2.
  Status CommitWithAnnotations(
      const std::map<std::string, std::string>& annotations);

  /// Moves the position of `tp` (must be assigned).
  Status Seek(const TopicPartition& tp, int64_t offset);

  /// Rewinds every assigned partition to the first record at/after ts_ms
  /// (metadata-based access, §3.1).
  Status SeekToTimestamp(int64_t ts_ms);

  /// Current position of `tp` (next offset to fetch).
  Result<int64_t> Position(const TopicPartition& tp) const;

  /// Snapshot of all positions (for transactional offset commits).
  std::map<TopicPartition, int64_t> Positions() const;

  /// Leaves the group WITHOUT committing (crash simulation / transactional
  /// jobs that commit offsets through the transaction coordinator).
  Status CloseWithoutCommit();

  std::vector<TopicPartition> Assignment() const;

  /// Leaves the group (triggers a rebalance for surviving members).
  Status Close();

  const std::string& member_id() const { return member_id_; }

 private:
  /// The undelivered rest of one partition's last fetch, still encoded.
  struct PendingFetch {
    storage::EncodedBatch batch;
    std::vector<AbortedRange> aborted;
    /// Index of the first frame of `batch` not yet decoded.
    size_t next_frame = 0;
    int64_t next_fetch_offset = 0;
    int64_t high_watermark = 0;
  };

  /// Re-fetches the assignment if the group generation moved; initializes
  /// positions of newly assigned partitions from committed offsets.
  Status RefreshAssignmentLocked() REQUIRES(mu_);

  Cluster* cluster_;
  OffsetManager* offsets_;
  GroupCoordinator* coordinator_;
  const std::string member_id_;
  const ConsumerConfig config_;

  // Cached handles into MetricsRegistry::Default()
  // ("liquid.consumer.<group>.*"), resolved once in the constructor; the
  // registry never erases entries so the pointers stay valid.
  Counter* records_counter_ = nullptr;
  Gauge* lag_gauge_ = nullptr;
  Histogram* e2e_latency_us_ = nullptr;
  RetryMetrics retry_metrics_{};

  mutable Mutex mu_;
  // Live per-partition lag gauges ("...lag.<topic>-<p>") plus the last
  // observed lag values, so the group-total gauge can be recomputed as the
  // sum over everything this member has seen.
  std::map<TopicPartition, Gauge*> partition_lag_gauges_ GUARDED_BY(mu_);
  std::map<TopicPartition, int64_t> partition_lag_ GUARDED_BY(mu_);
  std::vector<std::string> topics_ GUARDED_BY(mu_);
  int64_t generation_ GUARDED_BY(mu_) = -1;
  std::vector<TopicPartition> assignment_ GUARDED_BY(mu_);
  std::map<TopicPartition, int64_t> positions_ GUARDED_BY(mu_);
  /// Dropped on Seek, SeekToTimestamp and any assignment change, so a
  /// position set from outside is never shadowed by stale frames.
  std::map<TopicPartition, PendingFetch> pending_ GUARDED_BY(mu_);
  // Round-robin over assigned partitions.
  size_t poll_cursor_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace liquid::messaging

#endif  // LIQUID_MESSAGING_CONSUMER_H_

#ifndef LIQUID_STORAGE_LOG_H_
#define LIQUID_STORAGE_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/disk.h"
#include "storage/log_segment.h"
#include "storage/page_cache.h"
#include "storage/record.h"
#include "storage/record_batch.h"

namespace liquid::storage {

/// When appended bytes are fsynced to stable storage (DESIGN.md §6c).
enum class SyncMode {
  /// Never fsync from the append path; flush-behind only (the page cache /
  /// OS decide). Fastest, and the pre-sync_mode behaviour — a crash loses
  /// the unflushed tail. This is Kafka's production default.
  kNone,
  /// Every acknowledgment waits for an fsync covering its offsets (Kafka's
  /// flush.messages=1). Appends only write; Log::AwaitDurable runs the
  /// fsync inline, and concurrent waiters share one (group commit).
  kEveryBatch,
};

/// Per-log (i.e. per topic-partition) configuration, mirroring Kafka's
/// segment / retention / compaction knobs the paper discusses in §4.1.
struct LogConfig {
  /// Roll to a new segment once the active one reaches this size.
  size_t segment_bytes = 1 << 20;
  /// Sparse-index granularity inside each segment.
  size_t index_interval_bytes = 4096;
  /// Delete whole segments older than this (<= 0: keep forever).
  int64_t retention_ms = -1;
  /// Delete oldest segments while the log exceeds this size (<= 0: unbounded).
  int64_t retention_bytes = -1;
  /// Keyed topics (changelogs) may be compacted: only the latest record per
  /// key is retained in cleaned segments.
  bool compaction_enabled = false;
  /// During compaction, drop tombstones too (they have already served their
  /// delete-propagation purpose once every consumer saw them).
  bool compaction_drops_tombstones = false;
  /// Durability of the append path; see SyncMode.
  SyncMode sync_mode = SyncMode::kNone;
};

/// Outcome of one compaction pass, reported for the E4 bench.
struct CompactionStats {
  int64_t records_before = 0;
  int64_t records_after = 0;
  uint64_t bytes_before = 0;
  uint64_t bytes_after = 0;
  int segments_cleaned = 0;
};

/// An append-only, segmented, offset-addressed commit log — the storage
/// behind one topic-partition (§3.1 "each topic is realized as a distributed
/// commit log, in which each partition is append-only and keeps an ordered,
/// immutable sequence of messages with a unique identifier called an offset").
///
/// Thread-safe. Appends go through a reserve → encode → ordered-commit
/// pipeline: offsets are reserved under a short-held mutex, record encoding
/// (the CPU-heavy part — CRCs cover the offset field, so encoding can only
/// happen after reservation) runs with no lock held, and writers then commit
/// in reservation order under the exclusive lock. Concurrent appenders thus
/// overlap their encoding work instead of serializing on it. Truncation,
/// retention and compaction drain the pipeline first; reads are shared.
class Log {
 public:
  /// Opens the log stored under `name_prefix` (e.g. "events-0/"), recovering
  /// existing segments. `cache` may be null.
  static Result<std::unique_ptr<Log>> Open(Disk* disk, PageCache* cache,
                                           const std::string& name_prefix,
                                           const LogConfig& config, Clock* clock);

  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  /// Appends records in place, assigning consecutive offsets (and the current
  /// time to records whose timestamp is 0) so the caller sees the assignment,
  /// and returns their one-time wire encoding as a shared immutable buffer
  /// (the encode-once hot path: the caller forwards the same bytes to
  /// followers without re-encoding). Never fsyncs: see AwaitDurable.
  LIQUID_HOT_PATH
  Result<EncodedBatch> AppendBatch(std::vector<Record>* records);

  /// All offsets below this have been fsynced (only advanced under
  /// kEveryBatch; stays 0 under kNone).
  int64_t durable_offset() const;

  /// Under kEveryBatch, blocks until offsets below `end_offset` are fsynced
  /// (inline group commit, DESIGN.md §6c). The first waiter not yet covered
  /// leads a sync round: it snapshots the committed end, fsyncs the dirty
  /// segments with no log lock held, and publishes the result; waiters that
  /// arrive meanwhile share the round (or lead the next one). A non-OK
  /// return means the batch was NOT acknowledged durable — it may or may
  /// not survive a crash: the covering fsync failed, or a truncation
  /// removed offsets below `end_offset`. Callers release their own locks
  /// first so that other appenders keep landing while this one syncs.
  /// FailedPrecondition under kNone, which never fsyncs.
  Status AwaitDurable(int64_t end_offset) EXCLUDES(append_mu_);

  /// Appends a pre-encoded batch carrying offsets (encode-once replication
  /// path: the leader's bytes land on the follower's disk verbatim, keeping
  /// its offsets and gaps). Never fsyncs: see AwaitDurable.
  Status AppendEncoded(const EncodedBatch& batch);

  /// Reads the encoded frames with offset in [offset, end_offset()), gathering
  /// up to `max_bytes` (at least one frame when any exists) into one shared
  /// buffer. Requests below start_offset() are clamped forward to it
  /// (retention may have deleted the prefix); requests at or past
  /// end_offset() return an empty batch. Every frame's CRC is checked here,
  /// once; callers decode with EncodedBatch::DecodeAll.
  LIQUID_HOT_PATH
  Status ReadEncoded(int64_t offset, size_t max_bytes, EncodedBatch* out) const;

  /// First offset with a timestamp >= ts_ms (metadata-based rewind, §3.1).
  Result<int64_t> OffsetForTimestamp(int64_t ts_ms) const;

  /// Oldest available offset (advances when retention deletes segments).
  int64_t start_offset() const;
  /// One past the newest offset.
  int64_t end_offset() const;

  uint64_t size_bytes() const;
  int segment_count() const;

  /// Deletes all records with offset >= offset (follower reconciliation after
  /// leader change). Under kEveryBatch the rewritten survivors are fsynced
  /// before this returns, and durable_offset() drops to at most `offset`.
  Status Truncate(int64_t offset);

  /// Applies time/size retention using the injected clock; returns the number
  /// of deleted segments.
  Result<int> ApplyRetention();

  /// Runs one compaction pass over all closed segments (§4.1 "log
  /// compaction"). No-op unless config.compaction_enabled.
  Result<CompactionStats> Compact();

  const LogConfig& config() const { return config_; }

 private:
  Log(Disk* disk, PageCache* cache, std::string name_prefix, LogConfig config,
      Clock* clock);

  Status OpenExisting();
  Status RollLocked(int64_t base_offset) REQUIRES(mu_);
  LogSegment* ActiveLocked() REQUIRES(mu_) { return segments_.back().get(); }
  Status AppendBatchLocked(const EncodedBatch& batch) REQUIRES(mu_);

  /// Blocks until no append reservation is outstanding. Callers hold
  /// append_mu_ through their whole mutation so no new reservation can slip
  /// in, then resync the pipeline counters to next_offset_ when done.
  void DrainAppendsLocked() REQUIRES(append_mu_);

  /// DrainAppendsLocked, then also waits out an in-flight sync round: for
  /// truncation, retention and compaction, which drop segments the round
  /// may be flushing.
  void QuiesceLocked() REQUIRES(append_mu_);

  /// Flushes every segment dirty at call time. The shared log lock is held
  /// only to list them, so appends and reads proceed during the fsyncs;
  /// callers set syncing_ first so that no segment is dropped meanwhile.
  Status SyncDirtySegments() const EXCLUDES(mu_);

  Disk* const disk_;
  PageCache* const cache_;
  const std::string name_prefix_;
  const LogConfig config_;
  Clock* const clock_;

  /// Guards log structure: one writer (committing appends, truncation,
  /// retention, compaction) or many readers. Acquired after append_mu_ when
  /// both are held.
  mutable SharedMutex mu_;
  std::vector<std::unique_ptr<LogSegment>> segments_ GUARDED_BY(mu_);
  int64_t next_offset_ GUARDED_BY(mu_) = 0;
  int64_t start_offset_ GUARDED_BY(mu_) = 0;

  /// Guards the append pipeline's reservation window. Held only for counter
  /// updates (never across encoding or I/O), so reservation is cheap even
  /// under heavy producer concurrency. All group-commit bookkeeping lives
  /// under this same mutex (DESIGN.md §5a: a sync round snapshots under
  /// append_mu_, fsyncs with no lock held, republishes under append_mu_).
  mutable Mutex append_mu_;
  CondVar append_cv_{&append_mu_};
  /// Next offset to hand to a reserving appender.
  int64_t reserved_offset_ GUARDED_BY(append_mu_) = 0;
  /// All appends below this offset have committed (in reservation order).
  int64_t committed_offset_ GUARDED_BY(append_mu_) = 0;

  /// Group-commit state (kEveryBatch only). All offsets below
  /// durable_offset_ are fsynced.
  int64_t durable_offset_ GUARDED_BY(append_mu_) = 0;
  /// When the last sync round failed, the committed end it covered (else
  /// 0); last_sync_error_ holds why. Waiters below it fail their ack; a
  /// later waiter leads a fresh round.
  int64_t sync_failed_upto_ GUARDED_BY(append_mu_) = 0;
  Status last_sync_error_ GUARDED_BY(append_mu_);
  /// A sync round is in flight (its leader fsyncs with no lock held).
  bool syncing_ GUARDED_BY(append_mu_) = false;
  /// Wakes waiters, and QuiesceLocked, when a sync round ends.
  CondVar durable_cv_{&append_mu_};

  /// Hot-path metric handles, resolved once at construction
  /// (OBSERVABILITY.md: hot paths never do registry name lookups).
  Counter* fetch_copied_bytes_;
  Counter* group_commit_batches_;
  Counter* group_commit_syncs_;
};

}  // namespace liquid::storage

#endif  // LIQUID_STORAGE_LOG_H_

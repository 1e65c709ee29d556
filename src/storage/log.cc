#include "storage/log.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <unordered_map>

#include "common/fault.h"

namespace liquid::storage {

namespace {

// Every frame of `segment` in one shared buffer. Truncation and compaction
// rewrite a segment from these frames byte for byte, never re-encoding.
Result<EncodedBatch> ReadWholeSegment(const LogSegment& segment) {
  std::string bytes;
  std::vector<BatchFrame> frames;
  LIQUID_RETURN_NOT_OK(segment.ReadEncoded(
      segment.base_offset(), segment.size_bytes(), &bytes, &frames));
  return EncodedBatch::FromParts(
      std::make_shared<const std::string>(std::move(bytes)), std::move(frames));
}

}  // namespace

Log::Log(Disk* disk, PageCache* cache, std::string name_prefix, LogConfig config,
         Clock* clock)
    : disk_(disk),
      cache_(cache),
      name_prefix_(std::move(name_prefix)),
      config_(config),
      clock_(clock) {
  // Hot-path metric handles, resolved once: registry entries are never
  // erased, so the fetch/append paths skip the name lookup entirely.
  std::string instance = name_prefix_;
  while (!instance.empty() && instance.back() == '/') instance.pop_back();
  MetricsRegistry* global = MetricsRegistry::Default();
  const std::string prefix = "liquid.log." + instance + ".";
  fetch_copied_bytes_ = global->GetCounter(prefix + "fetch_copied_bytes");
  group_commit_batches_ = global->GetCounter(prefix + "group_commit_batches");
  group_commit_syncs_ = global->GetCounter(prefix + "group_commit_syncs");
}

Result<std::unique_ptr<Log>> Log::Open(Disk* disk, PageCache* cache,
                                       const std::string& name_prefix,
                                       const LogConfig& config, Clock* clock) {
  std::unique_ptr<Log> log(new Log(disk, cache, name_prefix, config, clock));
  LIQUID_RETURN_NOT_OK(log->OpenExisting());
  return log;
}

Status Log::OpenExisting() {
  LIQUID_ASSIGN_OR_RETURN(std::vector<std::string> names,
                          disk_->List(name_prefix_));
  std::vector<int64_t> base_offsets;
  for (const auto& name : names) {
    if (name.size() < name_prefix_.size() + 4 ||
        name.compare(name.size() - 4, 4, ".log") != 0) {
      continue;
    }
    const std::string digits =
        name.substr(name_prefix_.size(), name.size() - name_prefix_.size() - 4);
    base_offsets.push_back(std::strtoll(digits.c_str(), nullptr, 10));
  }
  std::sort(base_offsets.begin(), base_offsets.end());

  MutexLock pipeline_lock(&append_mu_);
  WriterMutexLock lock(&mu_);
  LogSegment::Config seg_config{config_.index_interval_bytes};
  for (int64_t base : base_offsets) {
    auto segment =
        LogSegment::Open(disk_, cache_, name_prefix_, base, seg_config);
    if (!segment.ok()) return segment.status();
    segments_.push_back(std::move(segment).value());
  }
  if (segments_.empty()) {
    auto segment = LogSegment::Open(disk_, cache_, name_prefix_, 0, seg_config);
    if (!segment.ok()) return segment.status();
    segments_.push_back(std::move(segment).value());
  }
  start_offset_ = segments_.front()->base_offset();
  next_offset_ = segments_.back()->next_offset();
  reserved_offset_ = next_offset_;
  committed_offset_ = next_offset_;
  // Recovery defines the log's contents: whatever survived on disk is by
  // definition the durable state, so the bookkeeping restarts at the
  // recovered end (acknowledgments were only ever given for synced bytes).
  durable_offset_ = next_offset_;
  return Status::OK();
}

Status Log::RollLocked(int64_t base_offset) {
  LogSegment::Config seg_config{config_.index_interval_bytes};
  auto segment =
      LogSegment::Open(disk_, cache_, name_prefix_, base_offset, seg_config);
  if (!segment.ok()) return segment.status();
  // liquid-lint: allow(hot-alloc): segment roll runs once per segment_bytes of appends; amortized to ~zero per record.
  segments_.push_back(std::move(segment).value());
  return Status::OK();
}

Status Log::AppendBatchLocked(const EncodedBatch& batch) {
  // Large batches are split at segment boundaries so that a single huge
  // append (e.g. a changelog flush) still produces closed segments that
  // retention and compaction can work on. Each chunk is a cheap view into
  // the shared buffer, never a re-encode.
  const std::vector<BatchFrame>& frames = batch.frames();
  size_t i = 0;
  while (i < frames.size()) {
    if (ActiveLocked()->size_bytes() >= config_.segment_bytes) {
      LIQUID_RETURN_NOT_OK(RollLocked(frames[i].offset));
    }
    uint64_t bytes = ActiveLocked()->size_bytes();
    size_t j = i;
    while (j < frames.size()) {
      if (j > i && bytes + frames[j].len > config_.segment_bytes) break;
      bytes += frames[j].len;
      ++j;
    }
    const EncodedBatch chunk = EncodedBatch::FromParts(
        batch.buffer(),
        std::vector<BatchFrame>(frames.begin() + i, frames.begin() + j));
    LIQUID_RETURN_NOT_OK(ActiveLocked()->AppendEncoded(chunk));
    i = j;
  }
  return Status::OK();
}

void Log::DrainAppendsLocked() {
  append_cv_.Wait([this]() REQUIRES(append_mu_) {
    return committed_offset_ == reserved_offset_;
  });
}

void Log::QuiesceLocked() {
  // Both conditions must hold at once with append_mu_ held; each wait
  // releases the mutex, so loop until neither had to wait.
  while (true) {
    DrainAppendsLocked();
    if (!syncing_) return;
    durable_cv_.Wait([this]() REQUIRES(append_mu_) { return !syncing_; });
  }
}

Status Log::SyncDirtySegments() const {
  // Chaos surface (DESIGN.md §7): a failing or stalling fsync. The round's
  // leader gets the injected error, and so does every waiter it covered —
  // the ack contract must stay honest.
  LIQUID_FAULT_POINT("log.sync.before");
  // Each segment's size at listing time bounds what its fsync may claim;
  // bytes appended during the fsync belong to the next round.
  std::vector<std::pair<LogSegment*, uint64_t>> dirty;
  {
    ReaderMutexLock lock(&mu_);
    for (const auto& segment : segments_) {
      // liquid-lint: allow(hot-alloc): one entry per dirty segment (usually just the active one) per sync round, not per record.
      if (segment->dirty()) dirty.emplace_back(segment.get(), segment->size_bytes());
    }
  }
  for (const auto& [segment, size] : dirty) {
    // liquid-lint: allow(hot-block): reachable only from AwaitDurable under sync_mode=every_batch, whose contract IS one blocking fsync per sync round; no log lock is held (DESIGN.md section 6c).
    LIQUID_RETURN_NOT_OK(segment->Flush(size));
  }
  return Status::OK();
}

Status Log::AwaitDurable(int64_t end_offset) {
  if (config_.sync_mode != SyncMode::kEveryBatch) {
    return Status::FailedPrecondition("sync_mode=none never fsyncs");
  }
  group_commit_batches_->Increment();
  int64_t target = 0;
  {
    MutexLock lock(&append_mu_);
    while (true) {
      if (durable_offset_ >= end_offset) return Status::OK();
      // A truncation removed offsets we wait for: they can never become
      // durable, and waiting would hang (no thread syncs on its own).
      if (committed_offset_ < end_offset) {
        return Status::Aborted("log truncated below the awaited offset");
      }
      if (!syncing_) break;
      // liquid-lint: allow(hot-block): the durability wait IS the product semantic of every_batch acks — bounded by the in-flight sync round, whose leader holds no log lock (DESIGN.md section 6c).
      durable_cv_.Wait([this]() REQUIRES(append_mu_) { return !syncing_; });
      // The last round failed and covered us: its error is our ack.
      if (durable_offset_ < end_offset && sync_failed_upto_ >= end_offset) {
        return last_sync_error_;
      }
    }
    // Lead a round covering everything committed so far, this caller's
    // offsets included. No truncation can interleave: it waits for
    // syncing_ to clear (QuiesceLocked).
    syncing_ = true;
    target = committed_offset_;
  }
  const Status st = SyncDirtySegments();
  MutexLock lock(&append_mu_);
  syncing_ = false;
  if (st.ok()) {
    durable_offset_ = std::max(durable_offset_, target);
    sync_failed_upto_ = 0;
    last_sync_error_ = Status::OK();
    group_commit_syncs_->Increment();
  } else {
    sync_failed_upto_ = target;
    last_sync_error_ = st;
  }
  durable_cv_.SignalAll();
  return st;
}

int64_t Log::durable_offset() const {
  MutexLock lock(&append_mu_);
  return durable_offset_;
}

Result<EncodedBatch> Log::AppendBatch(std::vector<Record>* records) {
  if (records->empty()) return Status::InvalidArgument("empty append");
  // Chaos surface: reject/delay the append before any offset is reserved.
  LIQUID_FAULT_POINT("log.append.before");

  // Phase 1: reserve the offset range (short critical section).
  int64_t base;
  {
    MutexLock lock(&append_mu_);
    base = reserved_offset_;
    reserved_offset_ += static_cast<int64_t>(records->size());
  }

  // Phase 2: stamp and encode with no lock held. This is where the CPU time
  // goes (CRC32C over every payload byte), and concurrent appenders overlap
  // here freely.
  const int64_t now = clock_->NowMs();
  int64_t offset = base;
  for (Record& record : *records) {
    record.offset = offset++;
    if (record.timestamp_ms == 0) record.timestamp_ms = now;
  }
  const EncodedBatch batch = EncodedBatch::Encode(*records);

  // Phase 3: wait for our turn, so bytes land on disk in offset order.
  {
    MutexLock lock(&append_mu_);
    // liquid-lint: allow(hot-block): bounded turn-ordering wait of the append pipeline: predecessors commit already-encoded bytes without doing I/O under this lock (see section 5a).
    append_cv_.Wait([this, base]() REQUIRES(append_mu_) {
      return committed_offset_ == base;
    });
  }

  // Phase 4: write under the exclusive log lock.
  Status write_status;
  {
    WriterMutexLock lock(&mu_);
    write_status = AppendBatchLocked(batch);
    if (write_status.ok()) next_offset_ = batch.last_offset() + 1;
  }

  // Phase 5: commit and wake successors. Committed advances even on a write
  // error — otherwise every queued appender behind us would deadlock; the
  // failed range simply becomes an offset gap (gaps are legal in this log).
  {
    MutexLock lock(&append_mu_);
    committed_offset_ = base + static_cast<int64_t>(records->size());
    append_cv_.SignalAll();
  }
  LIQUID_RETURN_NOT_OK(write_status);
  return batch;
}

Status Log::AppendEncoded(const EncodedBatch& batch) {
  if (batch.empty()) return Status::OK();
  const int64_t end = batch.last_offset() + 1;
  MutexLock pipeline_lock(&append_mu_);
  DrainAppendsLocked();
  {
    WriterMutexLock lock(&mu_);
    if (batch.base_offset() < next_offset_) {
      return Status::InvalidArgument("offsets overlap existing log");
    }
    LIQUID_RETURN_NOT_OK(AppendBatchLocked(batch));
    next_offset_ = end;
  }
  reserved_offset_ = end;
  committed_offset_ = end;
  return Status::OK();
}

Status Log::ReadEncoded(int64_t offset, size_t max_bytes,
                        EncodedBatch* out) const {
  ReaderMutexLock lock(&mu_);
  *out = EncodedBatch();
  offset = std::max(offset, start_offset_);
  if (offset >= next_offset_) return Status::OK();
  auto it = std::upper_bound(segments_.begin(), segments_.end(), offset,
                             [](int64_t target, const auto& seg) {
                               return target < seg->base_offset();
                             });
  if (it != segments_.begin()) --it;
  std::string bytes;
  std::vector<BatchFrame> frames;
  while (it != segments_.end() && bytes.size() < max_bytes) {
    const size_t before = frames.size();
    LIQUID_RETURN_NOT_OK(
        (*it)->ReadEncoded(offset, max_bytes - bytes.size(), &bytes, &frames));
    if (frames.size() > before) {
      offset = frames.back().offset + 1;
      // The budget ended inside this segment: stop here. The next segment
      // would still hand over its first frame ("at least one frame"), and
      // the caller's next fetch offset would then skip this segment's rest.
      if (offset < (*it)->next_offset()) break;
    }
    ++it;
  }
  fetch_copied_bytes_->Increment(static_cast<int64_t>(bytes.size()));
  // liquid-lint: allow(hot-alloc): one shared immutable buffer per fetch is the encode-once contract (DESIGN.md section 5); move of the gathered bytes, not a copy.
  *out = EncodedBatch::FromParts(
      std::make_shared<const std::string>(std::move(bytes)), std::move(frames));
  return Status::OK();
}

Result<int64_t> Log::OffsetForTimestamp(int64_t ts_ms) const {
  ReaderMutexLock lock(&mu_);
  for (const auto& segment : segments_) {
    if (segment->empty()) continue;
    if (segment->max_timestamp_ms() < ts_ms) continue;
    auto result = segment->OffsetForTimestamp(ts_ms);
    if (result.ok()) return result;
    if (!result.status().IsNotFound()) return result.status();
  }
  return Status::NotFound("no record at or after timestamp");
}

int64_t Log::start_offset() const {
  ReaderMutexLock lock(&mu_);
  return start_offset_;
}

int64_t Log::end_offset() const {
  ReaderMutexLock lock(&mu_);
  return next_offset_;
}

uint64_t Log::size_bytes() const {
  ReaderMutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& segment : segments_) total += segment->size_bytes();
  return total;
}

int Log::segment_count() const {
  ReaderMutexLock lock(&mu_);
  return static_cast<int>(segments_.size());
}

Status Log::Truncate(int64_t offset) {
  MutexLock pipeline_lock(&append_mu_);
  QuiesceLocked();
  WriterMutexLock lock(&mu_);
  const auto resync = [this]() REQUIRES(append_mu_, mu_) {
    reserved_offset_ = next_offset_;
    committed_offset_ = next_offset_;
    durable_offset_ = std::min(durable_offset_, next_offset_);
    sync_failed_upto_ = std::min(sync_failed_upto_, next_offset_);
  };
  if (offset >= next_offset_) return Status::OK();
  if (offset <= start_offset_) {
    // Everything goes: drop all segments and restart at `offset`.
    for (auto& segment : segments_) LIQUID_RETURN_NOT_OK(segment->Drop());
    segments_.clear();
    next_offset_ = offset;
    start_offset_ = offset;
    resync();
    LIQUID_RETURN_NOT_OK(RollLocked(offset));
    return Status::OK();
  }
  // Drop whole segments with base >= offset.
  while (!segments_.empty() && segments_.back()->base_offset() >= offset) {
    LIQUID_RETURN_NOT_OK(segments_.back()->Drop());
    segments_.pop_back();
  }
  // Partially truncate the now-last segment by rewriting its survivors: the
  // frames below `offset`, byte for byte.
  LogSegment* rewritten = nullptr;
  if (!segments_.empty() && segments_.back()->next_offset() > offset) {
    LogSegment* last = segments_.back().get();
    LIQUID_ASSIGN_OR_RETURN(EncodedBatch survivors, ReadWholeSegment(*last));
    survivors.TrimToOffset(offset);
    const int64_t base = last->base_offset();
    LIQUID_RETURN_NOT_OK(last->Drop());
    segments_.pop_back();
    LogSegment::Config seg_config{config_.index_interval_bytes};
    auto segment = LogSegment::Open(disk_, cache_, name_prefix_, base, seg_config);
    if (!segment.ok()) return segment.status();
    LIQUID_RETURN_NOT_OK((*segment)->AppendEncoded(survivors));
    rewritten = segment->get();
    segments_.push_back(std::move(segment).value());
  }
  if (segments_.empty()) {
    next_offset_ = offset;
    start_offset_ = std::min(start_offset_, offset);
    resync();
    LIQUID_RETURN_NOT_OK(RollLocked(offset));
  }
  next_offset_ = offset;
  resync();
  if (rewritten != nullptr && config_.sync_mode == SyncMode::kEveryBatch) {
    // The rewrite replaced fsynced bytes with unsynced copies: sync them
    // now, or a crash would lose records that were acknowledged durable.
    if (Status st = rewritten->Flush(rewritten->size_bytes()); !st.ok()) {
      durable_offset_ = std::min(durable_offset_, rewritten->base_offset());
      return st;
    }
  }
  return Status::OK();
}

Result<int> Log::ApplyRetention() {
  MutexLock pipeline_lock(&append_mu_);
  QuiesceLocked();
  WriterMutexLock lock(&mu_);
  const int64_t now = clock_->NowMs();
  int deleted = 0;
  // Never delete the active (last) segment.
  while (segments_.size() > 1) {
    LogSegment* oldest = segments_.front().get();
    bool expired = false;
    if (config_.retention_ms > 0 && !oldest->empty() &&
        now - oldest->max_timestamp_ms() > config_.retention_ms) {
      expired = true;
    }
    if (!expired && config_.retention_bytes > 0) {
      uint64_t total = 0;
      for (const auto& segment : segments_) total += segment->size_bytes();
      if (total > static_cast<uint64_t>(config_.retention_bytes)) expired = true;
    }
    if (!expired) break;
    LIQUID_RETURN_NOT_OK(oldest->Drop());
    segments_.erase(segments_.begin());
    start_offset_ = segments_.front()->base_offset();
    ++deleted;
  }
  return deleted;
}

Result<CompactionStats> Log::Compact() {
  MutexLock pipeline_lock(&append_mu_);
  QuiesceLocked();
  WriterMutexLock lock(&mu_);
  CompactionStats stats;
  if (!config_.compaction_enabled || segments_.size() < 2) return stats;

  // Phase 1: build the key -> newest offset map across the WHOLE log (the
  // active segment contributes newest offsets but is never rewritten).
  std::unordered_map<std::string, int64_t> latest;
  std::vector<Record> records;
  for (const auto& segment : segments_) {
    LIQUID_ASSIGN_OR_RETURN(EncodedBatch batch, ReadWholeSegment(*segment));
    records.clear();
    LIQUID_RETURN_NOT_OK(batch.DecodeAll(&records));
    for (const Record& record : records) {
      if (record.has_key) latest[record.key] = record.offset;
    }
  }

  // Phase 2: gather the live frames of every closed segment, byte for byte.
  const size_t closed = segments_.size() - 1;
  std::string kept;
  std::vector<BatchFrame> kept_frames;
  for (size_t i = 0; i < closed; ++i) {
    LogSegment* segment = segments_[i].get();
    stats.bytes_before += segment->size_bytes();
    LIQUID_ASSIGN_OR_RETURN(EncodedBatch batch, ReadWholeSegment(*segment));
    records.clear();
    LIQUID_RETURN_NOT_OK(batch.DecodeAll(&records));
    for (size_t r = 0; r < records.size(); ++r) {
      const Record& record = records[r];
      ++stats.records_before;
      bool keep = true;
      if (record.has_key) {
        keep = latest[record.key] == record.offset;
        if (keep && record.is_tombstone && config_.compaction_drops_tombstones) {
          keep = false;
        }
      }
      if (!keep) continue;
      BatchFrame frame = batch.frames()[r];
      kept.append(batch.buffer()->data() + frame.pos, frame.len);
      frame.pos = kept.size() - frame.len;
      kept_frames.push_back(frame);
    }
    ++stats.segments_cleaned;
  }
  const EncodedBatch survivors = EncodedBatch::FromParts(
      std::make_shared<const std::string>(std::move(kept)),
      std::move(kept_frames));

  // Phase 3: swap in cleaned segments. (Kafka swaps atomically via .cleaned /
  // .swap files; with the simulated disk we rebuild in place, which is safe
  // because the disk outlives us and the active segment is untouched.)
  const int64_t first_base = segments_.front()->base_offset();
  for (size_t i = 0; i < closed; ++i) {
    LIQUID_RETURN_NOT_OK(segments_[i]->Drop());
  }
  segments_.erase(segments_.begin(), segments_.begin() + closed);

  LogSegment::Config seg_config{config_.index_interval_bytes};
  auto cleaned =
      LogSegment::Open(disk_, cache_, name_prefix_, first_base, seg_config);
  if (!cleaned.ok()) return cleaned.status();
  LIQUID_RETURN_NOT_OK((*cleaned)->AppendEncoded(survivors));
  stats.records_after = static_cast<int64_t>(survivors.record_count());
  stats.bytes_after = (*cleaned)->size_bytes();
  segments_.insert(segments_.begin(), std::move(cleaned).value());
  start_offset_ = segments_.front()->base_offset();
  return stats;
}

}  // namespace liquid::storage

#include "storage/log_segment.h"

#include <algorithm>
#include <cstdio>

#include "common/coding.h"

namespace liquid::storage {

namespace {

std::string SegmentFileName(const std::string& prefix, int64_t base_offset) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020lld", static_cast<long long>(base_offset));
  return prefix + buf + ".log";
}

// Reads in chunks of this size while scanning forward from an index position.
constexpr size_t kScanChunkBytes = 128 * 1024;

// A record frame is never smaller than its fixed header fields (see
// DecodeRecord's minimum-length check); bounds frame-count reservations.
constexpr size_t kMinFrameBytes = 4 + 4 + 8 + 8 + 8 + 4 + 4 + 1 + 2;

}  // namespace

LogSegment::LogSegment(Disk* disk, std::unique_ptr<File> file,
                       std::string file_name, int64_t base_offset,
                       const Config& config)
    : disk_(disk),
      file_(std::move(file)),
      file_name_(std::move(file_name)),
      base_offset_(base_offset),
      config_(config),
      next_offset_(base_offset) {}

Result<std::unique_ptr<LogSegment>> LogSegment::Open(
    Disk* disk, PageCache* cache, const std::string& name_prefix,
    int64_t base_offset, const Config& config) {
  const std::string name = SegmentFileName(name_prefix, base_offset);
  auto file_result = disk->OpenOrCreate(name);
  if (!file_result.ok()) return file_result.status();
  std::unique_ptr<File> file = std::move(file_result).value();
  if (cache != nullptr) {
    // liquid-lint: allow(hot-alloc): one-time segment open on the amortized roll path (once per segment_bytes of appends).
    file = std::make_unique<CachedFile>(std::move(file), cache);
  }
  // liquid-lint: allow(hot-alloc): one-time segment open on the amortized roll path.
  std::unique_ptr<LogSegment> segment(
      new LogSegment(disk, std::move(file), name, base_offset, config));
  LIQUID_RETURN_NOT_OK(segment->Recover());
  return segment;
}

Status LogSegment::Recover() {
  const uint64_t file_size = file_->Size();
  uint64_t pos = 0;
  std::string buffer;
  size_t buffer_base = 0;  // File position of buffer[0].
  while (pos < file_size) {
    // Ensure the buffer holds a full record starting at pos.
    const size_t in_buf = pos - buffer_base;
    if (in_buf >= buffer.size() || buffer.size() - in_buf < 4) {
      LIQUID_RETURN_NOT_OK(file_->ReadAt(pos, kScanChunkBytes, &buffer));
      buffer_base = pos;
    }
    Slice cursor(buffer.data() + (pos - buffer_base),
                 buffer.size() - (pos - buffer_base));
    if (cursor.size() < 4) break;
    const uint32_t length = DecodeFixed32(cursor.data());
    if (cursor.size() < 4 + static_cast<size_t>(length)) {
      if (buffer_base + buffer.size() >= file_size) break;  // Corrupt tail.
      // Record spans past the buffer: refill starting at pos.
      LIQUID_RETURN_NOT_OK(
          file_->ReadAt(pos, std::max<size_t>(kScanChunkBytes, 4 + length),
                        &buffer));
      buffer_base = pos;
      cursor = Slice(buffer);
      if (cursor.size() < 4 + static_cast<size_t>(length)) break;
    }
    RecordFrameHeader header;
    Status st = DecodeRecordHeader(cursor, &header, /*verify_crc=*/true);
    if (!st.ok()) break;  // Corrupt tail: truncate here.
    MaybeIndex(header.offset, pos, header.timestamp_ms, header.encoded_size);
    next_offset_ = header.offset + 1;
    max_timestamp_ms_ = std::max(max_timestamp_ms_, header.timestamp_ms);
    pos += header.encoded_size;
  }
  end_pos_ = pos;
  if (pos < file_size) {
    LIQUID_RETURN_NOT_OK(file_->Truncate(pos));
  }
  return Status::OK();
}

void LogSegment::MaybeIndex(int64_t offset, uint64_t position,
                            int64_t timestamp_ms, size_t record_bytes) {
  if (index_.empty() || bytes_since_index_ >= config_.index_interval_bytes) {
    index_.push_back(IndexEntry{offset, position});
    if (time_index_.empty() || timestamp_ms > time_index_.back().timestamp_ms) {
      time_index_.push_back(TimeIndexEntry{timestamp_ms, offset});
    }
    bytes_since_index_ = 0;
  }
  bytes_since_index_ += record_bytes;
}

Status LogSegment::AppendEncoded(const EncodedBatch& batch) {
  if (batch.empty()) return Status::OK();
  const Slice bytes = batch.bytes();
  const size_t base_pos = batch.frames().front().pos;
  uint64_t pos = end_pos_;
  for (const BatchFrame& frame : batch.frames()) {
    if (frame.offset < next_offset_) {
      return Status::InvalidArgument("non-monotonic offset in segment append");
    }
    MaybeIndex(frame.offset, pos + (frame.pos - base_pos), frame.timestamp_ms,
               frame.len);
    next_offset_ = frame.offset + 1;
    max_timestamp_ms_ = std::max(max_timestamp_ms_, frame.timestamp_ms);
  }
  LIQUID_RETURN_NOT_OK(file_->Append(bytes));
  end_pos_ = pos + bytes.size();
  return Status::OK();
}

Status LogSegment::Flush(uint64_t size) {
  LIQUID_RETURN_NOT_OK(file_->Sync());
  // The owning Log runs one sync round at a time and excludes it from
  // truncation, so flushes never race each other; the watermark only needs
  // to stay monotonic against a stale `size`.
  if (size > synced_pos_.load(std::memory_order_relaxed)) {
    // order: release pairs with dirty()'s acquire (see the header).
    synced_pos_.store(size, std::memory_order_release);
  }
  return Status::OK();
}

Status LogSegment::ReadEncoded(int64_t from_offset, size_t max_bytes,
                               std::string* buf,
                               std::vector<BatchFrame>* frames) const {
  if (from_offset >= next_offset_) return Status::OK();
  uint64_t pos = LookupPosition(from_offset);
  // The gather loop stops once max_bytes accumulate (or the segment ends), so
  // both outputs can be reserved up front instead of regrowing per frame.
  const size_t bound =
      static_cast<size_t>(std::min<uint64_t>(max_bytes, end_pos_ - pos));
  buf->reserve(buf->size() + bound);
  frames->reserve(frames->size() + bound / kMinFrameBytes + 1);
  size_t gathered = 0;
  std::string buffer;
  uint64_t buffer_base = 0;
  bool have_buffer = false;
  while (pos < end_pos_) {
    if (!have_buffer || pos < buffer_base ||
        pos - buffer_base + 4 > buffer.size()) {
      LIQUID_RETURN_NOT_OK(file_->ReadAt(pos, kScanChunkBytes, &buffer));
      buffer_base = pos;
      have_buffer = true;
      if (buffer.size() < 4) break;
    }
    Slice cursor(buffer.data() + (pos - buffer_base),
                 buffer.size() - (pos - buffer_base));
    const uint32_t length = DecodeFixed32(cursor.data());
    if (cursor.size() < 4 + static_cast<size_t>(length)) {
      LIQUID_RETURN_NOT_OK(file_->ReadAt(
          pos, std::max<size_t>(kScanChunkBytes, 4 + length), &buffer));
      buffer_base = pos;
      cursor = Slice(buffer);
      if (cursor.size() < 4 + static_cast<size_t>(length)) {
        return Status::Corruption("segment read hit truncated record");
      }
    }
    RecordFrameHeader header;
    LIQUID_RETURN_NOT_OK(
        DecodeRecordHeader(cursor, &header, /*verify_crc=*/true));
    pos += header.encoded_size;
    if (header.offset < from_offset) continue;
    if (gathered > 0 && gathered + header.encoded_size > max_bytes) break;
    BatchFrame frame;
    frame.offset = header.offset;
    frame.timestamp_ms = header.timestamp_ms;
    frame.leader_epoch = header.leader_epoch;
    frame.traced = header.traced;
    frame.is_control = header.is_control;
    frame.pos = buf->size();
    frame.len = header.encoded_size;
    buf->append(cursor.data(), header.encoded_size);
    frames->push_back(frame);
    gathered += header.encoded_size;
    if (gathered >= max_bytes) break;
  }
  return Status::OK();
}

uint64_t LogSegment::LookupPosition(int64_t target_offset) const {
  if (index_.empty()) return 0;
  // Greatest entry with entry.offset <= target_offset.
  auto it = std::upper_bound(
      index_.begin(), index_.end(), target_offset,
      [](int64_t target, const IndexEntry& e) { return target < e.offset; });
  if (it == index_.begin()) return 0;
  --it;
  return it->position;
}

Result<int64_t> LogSegment::OffsetForTimestamp(int64_t ts_ms) const {
  // The sparse time index narrows the scan; then scan records for precision.
  int64_t start = base_offset_;
  auto it = std::upper_bound(time_index_.begin(), time_index_.end(), ts_ms,
                             [](int64_t target, const TimeIndexEntry& e) {
                               return target < e.timestamp_ms;
                             });
  if (it != time_index_.begin()) {
    --it;
    start = it->offset;
  }
  // Frame headers carry the timestamp: no payload is decoded.
  std::string bytes;
  std::vector<BatchFrame> frames;
  int64_t cursor = start;
  while (cursor < next_offset_) {
    bytes.clear();
    frames.clear();
    LIQUID_RETURN_NOT_OK(ReadEncoded(cursor, kScanChunkBytes, &bytes, &frames));
    if (frames.empty()) break;
    for (const BatchFrame& frame : frames) {
      if (frame.timestamp_ms >= ts_ms) return frame.offset;
    }
    cursor = frames.back().offset + 1;
  }
  return Status::NotFound("no record at or after timestamp");
}

Status LogSegment::Drop() {
  file_.reset();
  return disk_->Remove(file_name_);
}

}  // namespace liquid::storage

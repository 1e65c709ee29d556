#include "messaging/metadata.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace liquid::messaging {

namespace {

std::string JoinInts(const std::vector<int>& values) {
  std::ostringstream out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ',';
    out << values[i];
  }
  return out.str();
}

Result<std::vector<int>> SplitInts(const std::string& text) {
  std::vector<int> out;
  if (text.empty()) return out;
  out.reserve(static_cast<size_t>(
                  std::count(text.begin(), text.end(), ',')) + 1);
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) return Status::Corruption("empty int in list");
    out.push_back(std::atoi(item.c_str()));
  }
  return out;
}

}  // namespace

std::string PartitionState::Serialize() const {
  std::ostringstream out;
  out << leader << ';' << leader_epoch << ';' << JoinInts(replicas) << ';'
      << JoinInts(isr);
  return out.str();
}

Result<PartitionState> PartitionState::Parse(const std::string& data) {
  std::istringstream in(data);
  std::string leader_s, epoch_s, replicas_s, isr_s;
  if (!std::getline(in, leader_s, ';') || !std::getline(in, epoch_s, ';') ||
      !std::getline(in, replicas_s, ';')) {
    return Status::Corruption("bad partition state: " + data);
  }
  std::getline(in, isr_s, ';');  // May legitimately be empty.
  PartitionState state;
  state.leader = std::atoi(leader_s.c_str());
  state.leader_epoch = std::atoi(epoch_s.c_str());
  LIQUID_ASSIGN_OR_RETURN(state.replicas, SplitInts(replicas_s));
  LIQUID_ASSIGN_OR_RETURN(state.isr, SplitInts(isr_s));
  return state;
}

Status DecodeVisible(const storage::EncodedBatch& batch,
                     const std::vector<AbortedRange>& aborted,
                     size_t max_records, size_t* next_frame,
                     std::vector<storage::Record>* out) {
  const std::vector<storage::BatchFrame>& frames = batch.frames();
  size_t i = *next_frame;
  out->reserve(out->size() + std::min(max_records, frames.size() - i));
  size_t appended = 0;
  for (; i < frames.size() && appended < max_records; ++i) {
    if (frames[i].is_control) continue;  // Header-only check, no decode.
    Slice input(batch.buffer()->data() + frames[i].pos, frames[i].len);
    storage::Record& record = out->emplace_back();
    const Status st =
        storage::DecodeRecord(&input, &record, /*verify_crc=*/false);
    if (!st.ok()) {
      out->pop_back();
      return st;
    }
    const auto covers = [&record](const AbortedRange& range) {
      return record.producer_id == range.pid &&
             record.offset >= range.first_offset &&
             record.offset < range.last_offset;
    };
    if (std::any_of(aborted.begin(), aborted.end(), covers)) {
      out->pop_back();
    } else {
      ++appended;
    }
  }
  *next_frame = i;
  return Status::OK();
}

}  // namespace liquid::messaging

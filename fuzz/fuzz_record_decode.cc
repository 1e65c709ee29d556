/// Fuzz target: commit-log record decode (storage/record.cc).
///
/// The record frame is the broker's untrusted ingest surface: on-disk
/// segments run through DecodeRecordHeader (CRC checked) and clients decode
/// the gathered frames with DecodeRecord (CRC not checked again). Any input
/// must either decode or return a Status — never crash, never read out of
/// bounds, with or without the CRC check. Records that do decode must
/// round-trip through EncodeRecord.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/slice.h"
#include "storage/record.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  liquid::Slice input(reinterpret_cast<const char*>(data), size);
  liquid::storage::Record record;
  while (true) {
    const liquid::Status st = liquid::storage::DecodeRecord(&input, &record);
    if (!st.ok()) break;
    // Round-trip invariant: a frame the decoder accepted re-encodes to a
    // frame that decodes back to the same logical record.
    std::string encoded;
    liquid::storage::EncodeRecord(record, &encoded);
    liquid::Slice again(encoded);
    liquid::storage::Record copy;
    // Trace fields round-trip too. A frame with the traced attribute bit set
    // but trace_id == 0 decodes to a logically untraced record, which
    // re-encodes WITHOUT the trace block — that is still the same logical
    // record, so comparing the decoded fields (not the bytes) is correct.
    if (!liquid::storage::DecodeRecord(&again, &copy).ok() ||
        copy.offset != record.offset || copy.key != record.key ||
        copy.value != record.value || copy.is_tombstone != record.is_tombstone ||
        copy.has_key != record.has_key || copy.is_control != record.is_control ||
        copy.trace_id != record.trace_id ||
        (record.traced() && (copy.span_id != record.span_id ||
                             copy.ingest_us != record.ingest_us))) {
      __builtin_trap();
    }
  }

  // Segment scans parse frame headers, and clients decode gathered frames
  // without a second CRC check: both must be just as safe on forged bytes.
  liquid::Slice frames(reinterpret_cast<const char*>(data), size);
  liquid::storage::RecordFrameHeader header;
  while (liquid::storage::DecodeRecordHeader(frames, &header,
                                             /*verify_crc=*/false)
             .ok()) {
    frames.RemovePrefix(header.encoded_size);
  }
  liquid::Slice unchecked(reinterpret_cast<const char*>(data), size);
  while (liquid::storage::DecodeRecord(&unchecked, &record,
                                       /*verify_crc=*/false)
             .ok()) {
  }
  return 0;
}

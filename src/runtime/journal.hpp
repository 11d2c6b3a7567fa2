// Write-ahead journal of the analysis server (crash tolerance layer).
//
// Every batch the server ingests is appended here as a CRC32-framed,
// length-prefixed binary record *before* it folds into streaming state, so
// a server crash loses no acknowledged delivery: restart loads the newest
// checkpoint and replays the journal suffix through the normal ingest path.
//
// Durability model: appends buffer in user space and drain to the file in
// large writes (`commit`), with no fsync anywhere — a process crash keeps
// everything committed to the OS page cache, a torn in-flight frame at the
// crash instant is expected and salvaged away on read. The byte/commit
// budget of the writer is obs-instrumented so the durability cost is a
// measured quantity, not a guess.
//
// Frame layout (little-endian, after the one-line file header):
//   u32 payload_len | u32 crc32(payload) | payload
//   payload: u8 kind | i32 rank | u64 seq | u32 count | count * record
//   record:  i32 sensor_id | i32 rank | f32 metric | f32 reserved |
//            f64 t_begin | f64 t_end | f64 avg | f64 min | u32 count |
//            u32 flags                       (= kRecordWireBytes bytes)
// Kinds: 0 = batch delivery, 1 = stale-rank mark (seq/count unused),
//        2 = standard update — a peer shard's (sensor, group) standard-time
//            minimum broadcast by the sharded tier. Field reuse keeps the
//            wire format unchanged: rank carries the sensor id, seq the
//            group (as u32), and a single carrier record holds the value in
//            avg_duration. See make_standard_frame / decode_standard_frame.
//        3 = rank-rejoin mark (elastic revival; seq/count unused)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/vfs.hpp"
#include "runtime/types.hpp"

namespace vsensor::rt {

enum class JournalFrameKind : uint8_t {
  Batch = 0,
  StaleRank = 1,
  Standard = 2,
  /// Elastic revival: rank rejoined after a stale verdict (seq/count
  /// unused, like StaleRank). Replay re-lifts the exclusion in fold order.
  RankRejoin = 3,
};

struct JournalFrame {
  JournalFrameKind kind = JournalFrameKind::Batch;
  int32_t rank = -1;
  uint64_t seq = 0;  ///< transport sequence number (Batch frames)
  std::vector<SliceRecord> records;
};

/// Encoded size of a frame carrying `records` records, computed without
/// encoding it: 8 header bytes (len, crc), 17 payload header bytes (kind,
/// rank, seq, count), then the records.
constexpr size_t journal_frame_bytes(size_t records) {
  return 8 + 17 + records * kRecordWireBytes;
}

/// The one frame encoder: append a frame (length + CRC + payload) to `out`,
/// records straight from the caller's span. The writer encodes into its
/// buffer with it; every other serialization goes through it too.
void append_journal_frame(std::string& out, JournalFrameKind kind,
                          int32_t rank, uint64_t seq,
                          std::span<const SliceRecord> records);

/// Serialize one frame exactly as the writer appends it (header + CRC +
/// payload). Exposed so tests and the crash injector can construct torn
/// prefixes of a real frame.
std::string encode_journal_frame(const JournalFrame& frame);

/// Build a Standard frame from one broadcast standard minimum (see the
/// field-reuse note in the header comment).
JournalFrame make_standard_frame(int32_t sensor_id, int32_t group,
                                 double value);

/// Decoded Standard frame payload, or unset if the frame is not a
/// well-formed Standard frame (wrong kind, missing carrier record, or a
/// value no real standard can take). Recovery skips malformed frames.
struct StandardFrameView {
  int32_t sensor_id = 0;
  int32_t group = 0;
  double value = 0.0;
};
std::optional<StandardFrameView> decode_standard_frame(
    const JournalFrame& frame);

struct JournalWriterConfig {
  /// User-space buffer; appends drain to the file once it exceeds this.
  size_t buffer_bytes = 64 * 1024;
  /// Group commit: force a drain every N appended frames (1 = every frame
  /// is on the file — i.e. durable against process crash — before the
  /// ingest that wrote it returns; larger values trade a wider crash
  /// window for fewer writes).
  uint64_t commit_every_frames = 1;
};

class JournalWriter {
 public:
  /// Opens `path` truncated (through `vfs`; null = the real filesystem)
  /// and writes the header. Never throws: an open failure leaves the
  /// writer unhealthy — appends keep buffering, commits keep failing, and
  /// the owner decides whether to retry (reopen_truncated) or degrade.
  JournalWriter(std::string path, JournalWriterConfig cfg = {},
                io::Vfs* vfs = nullptr);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Append one frame, encoded straight into the buffer (commits per the
  /// config). Returns false when an auto-commit drain failed — the frame
  /// stays buffered, so a later commit() retry can still land it. Not
  /// thread-safe: the owning server serializes appends with its ingest
  /// order.
  bool append(JournalFrameKind kind, int32_t rank, uint64_t seq,
              std::span<const SliceRecord> records);
  bool append(const JournalFrame& frame) {
    return append(frame.kind, frame.rank, frame.seq, frame.records);
  }

  /// Drain the user-space buffer to the file (no fsync). Returns false on
  /// failure; partial progress (a short write) is accounted — the written
  /// prefix leaves the buffer, the rest stays for the next retry.
  bool commit();

  /// Truncate the journal to an empty file (after a checkpoint made its
  /// content redundant), reset the frame counter, and clear any failed
  /// state. Returns false when the reopen itself failed (still unhealthy).
  bool reopen_truncated();

  /// Drop everything still buffered in user space — the portion of history
  /// a process crash destroys. The file keeps only committed bytes. This
  /// models intentional loss and does NOT count toward lost_bytes().
  void discard_buffer();

  /// Drop the buffer *as loss* (degraded-mode entry: the owner stops
  /// journaling and the buffered acked-but-undrained bytes are gone).
  /// Returns the byte count dropped.
  size_t drop_buffer_as_lost();

  /// Stream open and no unrecovered failure.
  bool healthy() const { return file_ != nullptr; }

  const std::string& path() const { return path_; }
  uint64_t appended_frames() const { return appended_frames_; }
  uint64_t appended_bytes() const { return appended_bytes_; }
  uint64_t commits() const { return commits_; }
  uint64_t committed_bytes() const { return committed_bytes_; }
  size_t buffered_bytes() const { return buf_.size(); }
  /// Failed vfs operations (open/append/flush) this writer observed.
  uint64_t io_errors() const { return io_errors_; }
  /// Appended-and-acknowledged bytes that never reached the file: dropped
  /// at degraded entry or silently un-drained at teardown. Also mirrored
  /// into the obs counter `journal.lost_bytes`.
  uint64_t lost_bytes() const { return lost_bytes_; }
  const std::string& last_error() const { return last_error_; }

 private:
  bool open_truncated();
  void record_error(std::string what);
  void add_lost(size_t bytes);

  std::string path_;
  JournalWriterConfig cfg_;
  io::Vfs* vfs_;
  std::unique_ptr<io::File> file_;
  std::string buf_;
  uint64_t frames_since_commit_ = 0;
  uint64_t appended_frames_ = 0;
  uint64_t appended_bytes_ = 0;
  uint64_t commits_ = 0;
  uint64_t committed_bytes_ = 0;
  uint64_t io_errors_ = 0;
  uint64_t lost_bytes_ = 0;
  std::string last_error_;
};

/// Result of reading a journal file back. Reading never throws on corrupt
/// or truncated content: the valid frame prefix is salvaged and the damage
/// is described, so recovery can proceed with what survived.
struct JournalLoad {
  std::vector<JournalFrame> frames;
  uint64_t valid_bytes = 0;    ///< bytes covered by header + intact frames
  uint64_t total_bytes = 0;    ///< file size as read
  uint64_t torn_bytes = 0;     ///< trailing bytes dropped by salvage
  bool header_valid = false;
  /// Human-readable description of any salvage action ("" = clean load).
  std::string warning;

  bool clean() const { return header_valid && torn_bytes == 0; }
};

/// Load `path`, salvaging the valid prefix (see JournalLoad). A missing
/// file loads as empty-with-warning; a bad header yields zero frames.
JournalLoad load_journal(const std::string& path);

}  // namespace vsensor::rt

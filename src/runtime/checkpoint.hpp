// Checkpoint/restore of the analysis server (crash tolerance layer).
//
// A checkpoint is one versioned, CRC-protected binary snapshot of
// everything the server must remember to continue a run after a crash:
//  * the complete StreamingDetector state (running minima, Welford
//    accumulators, standard-free matrix cell sums, per-rank last slices,
//    stale set, flag counters) — every double carried byte-exact;
//  * the server's cumulative delivery counters (records, bytes, batches),
//    so delivery accounting stays continuous across the restart;
//  * the per-rank delivery watermarks (SeqTracker), which make replaying a
//    journal suffix that overlaps the checkpoint idempotent — a batch at
//    or below its rank's watermark is skipped, never double-counted;
//  * sanity fields (sensor count, ranks, run time) so a checkpoint is
//    never restored into a differently-shaped server.
//
// File layout: one-line header, then u64 payload_len | u32 crc32(payload)
// | payload. Writing goes to `<path>.tmp` and renames over the target, so
// a crash mid-checkpoint leaves the previous checkpoint intact — the file
// at `path` is always either absent or a complete previous snapshot.
// Loading never throws on corrupt content: damage fails closed with a
// structured warning and recovery falls back to replaying the journal
// from scratch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/vfs.hpp"
#include "runtime/streaming_detector.hpp"
#include "runtime/transport.hpp"

namespace vsensor::rt {

/// Cumulative delivery accounting of one analysis server. Checkpointed, so
/// a recovered server restores these and replayed batches advance them
/// exactly as the originals did — no delivery is counted twice.
struct DeliveryCounters {
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t batches = 0;
};

struct ServerCheckpoint {
  // Shape sanity: restoring into a server with a different sensor table,
  // rank count, or analysis horizon is refused.
  uint32_t sensor_count = 0;
  int32_t ranks = 0;
  double run_time = 0.0;

  DeliveryCounters delivered;
  /// Per-rank delivery watermarks at checkpoint time (journal-replay dedup).
  std::vector<SeqTracker> watermarks;
  StreamingDetector::Snapshot detector;
};

/// Serialize a checkpoint exactly as save_checkpoint writes it (header +
/// length + CRC + payload). Exposed so tests can corrupt real bytes.
std::string encode_checkpoint(const ServerCheckpoint& ckpt);

/// Outcome of a non-throwing checkpoint publish attempt.
struct CheckpointSaveResult {
  bool ok = false;
  /// The `<path>.tmp` staging file survived the failure (rename window):
  /// recovery should sweep it. False when the write failed early enough
  /// that the tmp was removed (or never materialized).
  bool tmp_left = false;
  std::string error;
};

/// Write `ckpt` atomically through `vfs` (null = real filesystem):
/// serialize, write `<path>.tmp`, flush, rename over `path`. On failure the
/// previous checkpoint at `path` is untouched; the result says whether the
/// staging tmp was left behind.
CheckpointSaveResult try_save_checkpoint(const std::string& path,
                                         const ServerCheckpoint& ckpt,
                                         io::Vfs* vfs = nullptr);

/// Throwing convenience wrapper over try_save_checkpoint (real filesystem).
void save_checkpoint(const std::string& path, const ServerCheckpoint& ckpt);

/// Result of reading a checkpoint back. Never throws on corrupt content.
struct CheckpointLoad {
  bool ok = false;
  ServerCheckpoint ckpt;
  uint64_t total_bytes = 0;
  /// Why the load failed ("" on success).
  std::string warning;
};

/// Load `path`. A missing, truncated, CRC-damaged, or structurally
/// malformed file yields ok = false with a warning — the caller recovers
/// from the journal alone.
CheckpointLoad load_checkpoint(const std::string& path);

/// Parse checkpoint bytes already in memory (the file-format body,
/// including header). Shared by load_checkpoint and fuzz tests.
CheckpointLoad parse_checkpoint(const std::string& bytes);

}  // namespace vsensor::rt

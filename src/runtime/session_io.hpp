// Session persistence: the paper's shared-file transport (§5.4 — processes
// report "by sending messages to analysis-server or by updating shared
// files"). A session file carries the sensor table and every slice record,
// so analysis and visualization can run offline (tools/vsensor-report).
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "io/vfs.hpp"
#include "runtime/collector.hpp"
#include "runtime/transport.hpp"
#include "runtime/types.hpp"

namespace vsensor::rt {

struct Session {
  int ranks = 0;
  double run_time = 0.0;
  std::vector<SensorInfo> sensors;
  std::vector<SliceRecord> records;
  /// Per-rank transport channel counters (empty for runs that bypassed
  /// the transport). When present, has `ranks` entries.
  std::vector<RankChannelStats> transport;
  /// Field-wise sum over `transport` (recomputed on load).
  RankChannelStats transport_totals;
  /// Ranks the transport declared stale at end of run.
  std::vector<int> stale_ranks;
  /// Structured integrity warnings: when a damaged file was salvaged, each
  /// entry describes one reason loading stopped early — the data above is
  /// the valid prefix. Empty = clean load.
  std::vector<std::string> warnings;
  /// Lines dropped by salvage (the damaged line and everything after it).
  uint64_t salvaged_lines = 0;

  bool has_transport() const { return !transport.empty(); }
  bool clean() const { return warnings.empty(); }
};

/// Text format, line-oriented:
///   vsensor-session 3
///   ranks <N> run_time <seconds>
///   sensor <id> <type> <line> <name> (name may contain spaces; file is
///                                     URL-free token, stored after line)
///   record <sensor> <rank> <t_begin> <t_end> <avg> <min> <count> <metric> <flags>
///   transport <rank> <sent> <delivered> <lost> <rec_delivered> <rec_lost>
///             <retries> <dups> <delayed> <wire_bytes> <backoff_s>
///             <last_delivery_t> <next_seq>
///   stale <rank>
/// Every line after the magic line carries an integrity suffix
/// ` #xxxxxxxx` (CRC32 of the line content, 8 hex digits). Loading
/// salvages the valid prefix of a truncated or corrupted file: the first
/// torn, CRC-damaged, or malformed line stops the load with a structured
/// warning in Session::warnings instead of an exception. Only version 3
/// loads; any other version throws.
void save_session(std::ostream& out, const Session& session);
void save_session_file(const std::string& path, const Collector& collector,
                       int ranks, double run_time);
/// As above, additionally persisting per-rank transport counters and the
/// stale-rank list (one `transport` line per entry, in rank order). Bytes
/// route through `vfs` (null = real filesystem); I/O failure still throws
/// Error — a session export is an explicit user ask, not a background
/// durability write the pipeline can degrade around.
void save_session_file(const std::string& path, const Collector& collector,
                       int ranks, double run_time,
                       std::span<const RankChannelStats> transport,
                       std::span<const int> stale_ranks,
                       io::Vfs* vfs = nullptr);

/// Throws vsensor::Error on an empty file, a wrong magic line or an
/// unsupported version; damage after the header is salvaged (see above).
Session load_session(std::istream& in);
Session load_session_file(const std::string& path);

}  // namespace vsensor::rt

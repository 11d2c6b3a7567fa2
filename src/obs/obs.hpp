// Observability core: enablement toggles, pipeline-stage wall-time
// attribution, and the instrumentation macros the runtime layers use.
//
// Two gates, both default-safe:
//  * compile time — the VSENSOR_OBS definition (CMake option, default ON);
//    when 0, every VS_OBS_* macro expands to nothing and the hooks cost
//    literally zero instructions;
//  * run time — obs::enabled(), default OFF, flipped by obs::set_enabled()
//    or the VSENSOR_OBS=1 environment variable; when off, every hook is a
//    single relaxed atomic load and a branch.
//
// Attribution model: ScopedStage measures *exclusive* wall time via a
// per-thread scope chain — a nested stage's duration is subtracted from
// its parent, so the per-stage seconds sum to exactly the wall time spent
// inside monitoring code, with no double counting across the call tree
// (probe tock → slicing → staging → transport → collector ingest →
// streaming detection all nest within one tock).
//
// Nothing here ever touches simMPI virtual time: detection output is
// bit-identical with observability on or off (pinned by tests/test_obs).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#ifndef VSENSOR_OBS
#define VSENSOR_OBS 1
#endif

namespace vsensor::obs {

/// Runtime gate. Reads the VSENSOR_OBS environment variable once on first
/// call; set_enabled() overrides it either way.
bool enabled();
void set_enabled(bool on);

/// Test-only: forget the cached environment read so the next enabled()
/// call re-reads VSENSOR_OBS. Exists to let tests pin the read-once
/// semantics; production code must never call it.
void reread_env_gate_for_testing();

/// Pipeline stages the monitoring layer attributes its own cost to.
enum class Stage : uint8_t {
  ProbeTick,        ///< SensorRuntime::tick
  ProbeTock,        ///< SensorRuntime::tock (exclusive of nested stages)
  Slicing,          ///< slice aggregation + completed-slice handling
  Staging,          ///< BatchStage buffering and batch ship
  TransportShip,    ///< BatchTransport ship/retry/backoff/drain
  CollectorIngest,  ///< Collector shard scatter + store
  DetectStreaming,  ///< StreamingDetector fold + finalize, batch front end
  Export,           ///< session/metric/trace serialization
  Durability,       ///< journal append/commit + checkpoint save/load
  kCount,
};

inline constexpr size_t kStageCount = static_cast<size_t>(Stage::kCount);

const char* stage_name(Stage stage);

/// Per-stage accumulated exclusive wall nanoseconds and entry counts.
class StageClock {
 public:
  void add(Stage stage, uint64_t ns);
  uint64_t nanos(Stage stage) const;
  uint64_t count(Stage stage) const;
  /// Sum of exclusive nanoseconds over all stages.
  uint64_t total_nanos() const;
  void reset();

  static StageClock& global();

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> n{0};
  };
  std::array<Cell, kStageCount> cells_{};
};

/// RAII stage scope with exclusive-time accounting (see file comment).
/// Cheap no-op when observability is disabled at construction.
class ScopedStage {
 public:
  explicit ScopedStage(Stage stage);
  ~ScopedStage();

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  Stage stage_;
  bool armed_ = false;
  uint64_t t0_ = 0;
  uint64_t child_ns_ = 0;
  ScopedStage* parent_ = nullptr;
};

/// One stage's share of the self-overhead breakdown.
struct StageBreakdown {
  Stage stage = Stage::ProbeTick;
  const char* name = "";
  uint64_t count = 0;            ///< scope entries
  double seconds = 0.0;          ///< exclusive wall seconds
  double share_of_monitoring = 0.0;
  double share_of_workload = 0.0;
};

/// Self-overhead attribution: where the monitoring layer's own wall time
/// went, and what it cost the simulated application.
struct OverheadReport {
  std::vector<StageBreakdown> stages;  ///< occupied stages, largest first
  double monitoring_wall_seconds = 0.0;
  double workload_wall_seconds = 0.0;
  /// Wall share: monitoring_wall / workload_wall (how much of the host's
  /// time the telemetry machinery itself consumed).
  double monitoring_wall_fraction = 0.0;

  // Virtual-time side — the paper's §6.2 overhead claim. Deterministic
  // (derives from charged probe costs, not the host), so this is the
  // quantity tests assert < 4%.
  double virtual_overhead_seconds = 0.0;  ///< instrumented - plain makespan
  double virtual_makespan = 0.0;          ///< plain (uninstrumented) makespan
  double virtual_overhead_fraction = 0.0;

  std::string to_string() const;  ///< aligned table + summary lines
};

/// Build the attribution from the global StageClock. `workload_wall_seconds`
/// is the wall time of the monitored run section (caller-measured); pass 0
/// to skip the wall-fraction column. Virtual fields are left for the caller.
OverheadReport attribution(double workload_wall_seconds);

/// Reset all global observability state (metrics, stages, spans). Instrument
/// references stay valid; values and spans are zeroed.
void reset_all();

}  // namespace vsensor::obs

// --- instrumentation macros -------------------------------------------------
// VS_OBS_ONLY(stmt;)        — compile stmt only when observability is built.
// VS_OBS_SCOPED_STAGE(s)    — exclusive-time RAII stage scope.
#if VSENSOR_OBS
#define VS_OBS_ONLY(...) __VA_ARGS__
#define VS_OBS_CONCAT_IMPL(a, b) a##b
#define VS_OBS_CONCAT(a, b) VS_OBS_CONCAT_IMPL(a, b)
#define VS_OBS_SCOPED_STAGE(stage) \
  ::vsensor::obs::ScopedStage VS_OBS_CONCAT(vs_obs_stage_, __LINE__)(stage)
#else
#define VS_OBS_ONLY(...)
#define VS_OBS_SCOPED_STAGE(stage) \
  do {                             \
  } while (false)
#endif

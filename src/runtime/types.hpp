// Core data types of the vSensor dynamic module (paper §5).
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

namespace vsensor::rt {

/// Component a sensor measures; determines which performance matrix its
/// records feed and how the root cause is reported (paper §3.1, §5.2).
enum class SensorType : uint8_t { Computation = 0, Network = 1, IO = 2 };

constexpr int kSensorTypeCount = 3;

const char* sensor_type_name(SensorType type);

/// Static description of one instrumented v-sensor.
struct SensorInfo {
  std::string name;
  SensorType type = SensorType::Computation;
  std::string file;  ///< source file of the snippet
  int line = 0;      ///< first line of the snippet
};

/// One smoothed data point: the aggregate of all executions of one sensor on
/// one rank during one time slice (default 1000 us). This is the unit shipped
/// to the analysis server; its wire size drives the data-volume comparison
/// with tracing tools (paper §6.4).
struct SliceRecord {
  int32_t sensor_id = -1;
  int32_t rank = -1;
  float metric = 0.0F;     ///< dynamic-rule metric (e.g. cache-miss rate)
  float reserved = 0.0F;   ///< padding kept explicit for the wire-size model
  double t_begin = 0.0;    ///< slice start (virtual seconds)
  double t_end = 0.0;      ///< slice end
  double avg_duration = 0.0;  ///< mean execution time within the slice
  double min_duration = 0.0;  ///< fastest execution within the slice
  uint32_t count = 0;         ///< executions aggregated into this record
  uint32_t flags = 0;
};

/// Bytes one record occupies on the wire when batched to the analysis
/// server (packed layout: 2x i32 + 2x f32 + 4x f64 + 2x u32). The in-memory
/// struct has the same size, order, and no padding — the durability layer
/// asserts this and serializes record spans with one bulk copy.
inline constexpr uint64_t kRecordWireBytes = 56;

static_assert(sizeof(SliceRecord) == kRecordWireBytes,
              "SliceRecord layout must match the packed wire layout");
static_assert(std::is_trivially_copyable_v<SliceRecord>,
              "SliceRecord must be bulk-copyable for the durability layer");

/// SliceRecord::flags bit: set by the rank's own probe when the slice fell
/// below the local variance threshold against that rank's history (§5.3).
inline constexpr uint32_t kRecordFlagLocalVariance = 1u << 0;

/// Tunables of the per-rank runtime (paper §5.1-§5.3 defaults).
struct RuntimeConfig {
  /// Smoothing slice length; the paper aggregates over 1000 us by default.
  double slice_seconds = 1e-3;
  /// Virtual cost charged per tick/tock pair while the sensor is enabled.
  double probe_cost = 80e-9;
  /// Residual cost of a disabled probe (timestamp read + branch).
  double disabled_probe_cost = 15e-9;
  /// Sensors whose mean execution time falls below this are switched off at
  /// runtime ("vSensor will turn off the analysis for v-sensors that are too
  /// short", §5.3). Zero disables the optimization.
  double min_avg_duration = 0.0;
  /// Number of executions observed before the disable decision is made.
  uint64_t disable_after = 64;
  /// Records buffered locally before a batched transfer to the server (§5.4).
  size_t batch_records = 64;
  /// Intra-process on-line detection: a slice whose normalized performance
  /// (standard / current) falls below this is flagged locally (§5.3).
  double local_variance_threshold = 0.7;
  /// Local history window in slices: the standard time is the fastest of
  /// the most recent N slices instead of the all-time fastest (0 = paper
  /// default, a single scalar that only ratchets down). A window lets the
  /// baseline re-adapt after a persistent change (e.g. the job migrated).
  size_t history_window = 0;
};

}  // namespace vsensor::rt

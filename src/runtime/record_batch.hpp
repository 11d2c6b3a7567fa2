// Struct-of-arrays record batches — the hot-path layout of the collection
// pipeline.
//
// A SliceRecord is 56 bytes, but every hot-path scan touches only some of
// its fields: the ship-time scan reads t_end, the collector scatter reads
// sensor_id, the streaming fold seven of the ten columns. In
// array-of-structs form each of those scans strides 56 bytes per touched
// field and wastes most of every cache line; in struct-of-arrays form the
// same scan streams contiguous memory (and the t_end scan vectorizes,
// support/simd.hpp). The staging buffer (BatchStage), the collector ingest
// scatter, and the detector's one fold therefore operate on RecordBatch;
// the AoS SliceRecord remains the wire/storage unit (journal frames,
// session files), with loss-free conversion in both directions. Conversion
// round-trips are bit-identical — pinned by tests/test_record_batch.cpp
// across all eight mini-apps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/types.hpp"

namespace vsensor::rt {

class RecordBatch {
 public:
  RecordBatch() = default;

  size_t size() const { return sensor_id.size(); }
  bool empty() const { return sensor_id.empty(); }

  void reserve(size_t n);
  void clear();

  /// Scatter one AoS record into the column arrays.
  void push_back(const SliceRecord& rec);

  /// Append a contiguous AoS span (one column-wise pass per field).
  void append(std::span<const SliceRecord> records);

  /// Gather record i back into AoS form. Bit-identical round trip.
  SliceRecord get(size_t i) const;

  /// Gather the whole batch into AoS form (wire/storage layout).
  std::vector<SliceRecord> to_aos() const;

  static RecordBatch from_aos(std::span<const SliceRecord> records);

  /// Latest slice end in the batch (ship-time scan), -inf when empty.
  double max_t_end() const;

  // Column arrays, index-aligned: element i of every column is record i.
  std::vector<int32_t> sensor_id;
  std::vector<int32_t> rank;
  std::vector<float> metric;
  std::vector<float> reserved;
  std::vector<double> t_begin;
  std::vector<double> t_end;
  std::vector<double> avg_duration;
  std::vector<double> min_duration;
  std::vector<uint32_t> count;
  std::vector<uint32_t> flags;
};

}  // namespace vsensor::rt

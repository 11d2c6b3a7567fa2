// A deliberately naive reference scorer for the dynamic module (paper
// §5.2-§5.5), so "engine == batch" checks still compare two independent
// implementations now that the batch Detector is a front end over the
// StreamingDetector fold.
//
// One plain per-record loop, in record order, with none of the engine's
// machinery (no standard-free cell sums, no iterator caches):
//  * a std::map minimum per (sensor, group), skipping degenerate records;
//  * the min_records cut per sensor;
//  * accumulate(std/avg, count) straight into the matrices;
//  * then the shared finalize_analysis tail, plus its own flagged list.
//
// The engine computes a cell as std * sum(count/avg) where this loop
// computes sum(std/avg * count): cells agree to within 1 ulp, not bit for
// bit. Event bounds and the flagged list agree exactly.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "runtime/detector.hpp"

namespace vsensor::rt::reference {

/// Dynamic-rule group, spelled out here rather than borrowed from the
/// library so a grouping bug there cannot hide in both implementations.
inline int group(const DetectorConfig& cfg, const SliceRecord& rec) {
  if (cfg.metric_bucket_width <= 0.0) return 0;
  return static_cast<int>(
      std::floor(static_cast<double>(rec.metric) / cfg.metric_bucket_width));
}

inline AnalysisResult analyze(std::span<const SliceRecord> records,
                              const std::vector<SensorInfo>& sensors,
                              const DetectorConfig& cfg, int ranks,
                              double run_time) {
  std::map<std::pair<int, int>, double> standard;
  std::map<int, uint32_t> history;
  for (const SliceRecord& rec : records) {
    if (is_degenerate(rec)) continue;
    const auto key = std::make_pair(rec.sensor_id, group(cfg, rec));
    if (standard.count(key) == 0 || rec.avg_duration < standard[key]) {
      standard[key] = rec.avg_duration;
    }
    history[rec.sensor_id] += 1;
  }

  const int buckets = std::max(
      1, static_cast<int>(std::ceil(run_time / cfg.matrix_resolution)));
  AnalysisResult result{
      .matrices = {PerformanceMatrix(ranks, buckets, cfg.matrix_resolution),
                   PerformanceMatrix(ranks, buckets, cfg.matrix_resolution),
                   PerformanceMatrix(ranks, buckets, cfg.matrix_resolution)},
      .events = {},
      .flagged = {},
      .run_time = run_time,
      .ranks = ranks,
      .stale_ranks = {},
  };
  for (const SliceRecord& rec : records) {
    if (is_degenerate(rec) || history[rec.sensor_id] < cfg.min_records) {
      continue;
    }
    const int g = group(cfg, rec);
    const double std_time =
        std::max(standard.at({rec.sensor_id, g}), kMinStandardTime);
    const double normalized = std_time / rec.avg_duration;
    if (rec.rank >= 0 && rec.rank < ranks && rec.count > 0) {
      auto& matrix = result.matrices[static_cast<size_t>(
          sensors.at(static_cast<size_t>(rec.sensor_id)).type)];
      const double mid = 0.5 * (rec.t_begin + rec.t_end);
      matrix.accumulate(rec.rank, matrix.bucket_of(mid), normalized,
                        static_cast<double>(rec.count));
    }
    if (normalized < cfg.variance_threshold) {
      result.flagged.push_back({rec, normalized, g});
    }
  }
  finalize_analysis(result, cfg);
  return result;
}

/// Matrices within 1e-12 per cell (same occupancy), events with exact
/// bounds and cell counts and severity within 1e-12.
inline void expect_matches(const AnalysisResult& reference,
                           const AnalysisResult& engine) {
  for (int t = 0; t < kSensorTypeCount; ++t) {
    const auto& rm = reference.matrices[static_cast<size_t>(t)];
    const auto& em = engine.matrices[static_cast<size_t>(t)];
    ASSERT_EQ(rm.ranks(), em.ranks());
    ASSERT_EQ(rm.buckets(), em.buckets());
    for (int r = 0; r < rm.ranks(); ++r) {
      for (int b = 0; b < rm.buckets(); ++b) {
        ASSERT_EQ(rm.has(r, b), em.has(r, b))
            << "type " << t << " cell " << r << "," << b;
        if (rm.has(r, b)) {
          EXPECT_NEAR(rm.at(r, b), em.at(r, b), 1e-12)
              << "type " << t << " cell " << r << "," << b;
        }
      }
    }
  }
  ASSERT_EQ(reference.events.size(), engine.events.size());
  for (size_t i = 0; i < reference.events.size(); ++i) {
    const auto& re = reference.events[i];
    const auto& ee = engine.events[i];
    EXPECT_EQ(re.type, ee.type) << i;
    EXPECT_EQ(re.rank_begin, ee.rank_begin) << i;
    EXPECT_EQ(re.rank_end, ee.rank_end) << i;
    EXPECT_EQ(re.cells, ee.cells) << i;
    EXPECT_EQ(re.t_begin, ee.t_begin) << i;
    EXPECT_EQ(re.t_end, ee.t_end) << i;
    EXPECT_NEAR(re.severity, ee.severity, 1e-12) << i;
    EXPECT_EQ(re.likely_wait_on_slow_ranks, ee.likely_wait_on_slow_ranks)
        << i;
  }
}

/// Flagged lists equal exactly: same records (byte for byte — SliceRecord
/// is a padding-free wire struct) in the same order, same scores, same
/// groups.
inline void expect_same_flagged(const AnalysisResult& reference,
                                const AnalysisResult& engine) {
  ASSERT_EQ(reference.flagged.size(), engine.flagged.size());
  for (size_t i = 0; i < reference.flagged.size(); ++i) {
    const auto& rf = reference.flagged[i];
    const auto& ef = engine.flagged[i];
    EXPECT_EQ(std::memcmp(&rf.record, &ef.record, sizeof(SliceRecord)), 0)
        << i;
    EXPECT_EQ(rf.normalized, ef.normalized) << i;
    EXPECT_EQ(rf.group, ef.group) << i;
  }
}

/// The full equivalence check over one record set: the streamed engine's
/// finalize() and the batch Detector front end both match the reference,
/// and the front end's flagged list equals the reference's exactly.
inline void expect_equivalent(std::span<const SliceRecord> records,
                              const std::vector<SensorInfo>& sensors,
                              const DetectorConfig& cfg, int ranks,
                              double run_time,
                              const AnalysisResult& streamed) {
  const auto expected = analyze(records, sensors, cfg, ranks, run_time);
  {
    SCOPED_TRACE("streamed engine vs reference");
    expect_matches(expected, streamed);
  }
  const auto batch =
      Detector(cfg).analyze_records(records, sensors, ranks, run_time);
  SCOPED_TRACE("batch front end vs reference");
  expect_matches(expected, batch);
  expect_same_flagged(expected, batch);
}

}  // namespace vsensor::rt::reference

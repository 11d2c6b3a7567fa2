// Streaming detector: incremental folding, and the batch Detector front end
// over it, must reproduce the naive reference scorer's variance regions and
// flagged records (tests/reference_scorer.hpp) — validated on the paper's
// Fig 13 online-detection example and a Fig 14-style workload run — plus
// the online flag/statistics surface a batch analysis cannot provide.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "reference_scorer.hpp"
#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/streaming_detector.hpp"
#include "support/error.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace vsensor::rt {
namespace {

SliceRecord make_record(int sensor, int rank, double t, double avg,
                        double metric = 0.0, uint32_t count = 1) {
  SliceRecord r;
  r.sensor_id = sensor;
  r.rank = rank;
  r.t_begin = t;
  r.t_end = t + 1e-3;
  r.avg_duration = avg;
  r.min_duration = avg;
  r.count = count;
  r.metric = static_cast<float>(metric);
  return r;
}

// The paper's Fig 13 example: wall times 3,3,7,3,5,3,7,3,3,3 with
// cache-miss metric H on records 2 and 6.
std::vector<SliceRecord> fig13_records() {
  const double wall[10] = {3, 3, 7, 3, 5, 3, 7, 3, 3, 3};
  const double miss[10] = {0.1, 0.1, 0.9, 0.1, 0.1, 0.1, 0.9, 0.1, 0.1, 0.1};
  std::vector<SliceRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(make_record(0, 0, i * 1e-3, wall[i], miss[i]));
  }
  return records;
}

void feed_in_batches(StreamingDetector& streaming,
                     std::span<const SliceRecord> records, size_t batch_len) {
  for (size_t i = 0; i < records.size(); i += batch_len) {
    streaming.on_batch(records.subspan(i, std::min(batch_len, records.size() - i)));
  }
}

std::vector<SensorInfo> one_sensor() {
  return {{"s", SensorType::Computation, "f.c", 1}};
}

TEST(StreamingDetector, Fig13ConstantRuleFlagsRecords246) {
  DetectorConfig cfg;
  cfg.matrix_resolution = 1e-3;
  cfg.metric_bucket_width = 0.0;  // cache miss expected constant
  StreamingDetector streaming(cfg, one_sensor(), 1, 10e-3);
  const auto records = fig13_records();
  feed_in_batches(streaming, records, 3);

  EXPECT_EQ(streaming.observed_records(), 10u);
  // Records 2, 4, 6 fall below the threshold as they arrive (3/7, 3/5,
  // 3/7 of the standard) — the paper's case-1 outcome, online.
  EXPECT_EQ(streaming.inter_flags(), 3u);
  EXPECT_EQ(streaming.intra_flags(), 3u);
  EXPECT_DOUBLE_EQ(streaming.standard_time(0, 0.1F), 3.0);

  reference::expect_equivalent(records, one_sensor(), cfg, 1, 10e-3,
                               streaming.finalize());
  // The batch front end flags the same three records against the final
  // standard.
  const auto batch = Detector(cfg).analyze_records(records, one_sensor(), 1,
                                                   10e-3);
  ASSERT_EQ(batch.flagged.size(), 3u);
  EXPECT_DOUBLE_EQ(batch.flagged[0].record.avg_duration, 7.0);
  EXPECT_DOUBLE_EQ(batch.flagged[1].record.avg_duration, 5.0);
  EXPECT_DOUBLE_EQ(batch.flagged[2].record.avg_duration, 7.0);
}

TEST(StreamingDetector, Fig13DynamicRuleLeavesOnlyRecord4) {
  DetectorConfig cfg;
  cfg.matrix_resolution = 1e-3;
  cfg.metric_bucket_width = 0.5;  // groups: low ~0.1, high ~0.9
  StreamingDetector streaming(cfg, one_sensor(), 1, 10e-3);
  const auto records = fig13_records();
  feed_in_batches(streaming, records, 1);

  // Grouping by the dynamic rule clears the high-miss records: only
  // record 4 (slow within the low-miss group) flags.
  EXPECT_EQ(streaming.inter_flags(), 1u);
  // Per-group standards: 3 for the low-miss group, 7 for the high-miss one.
  EXPECT_DOUBLE_EQ(streaming.standard_time(0, 0.1F), 3.0);
  EXPECT_DOUBLE_EQ(streaming.standard_time(0, 0.9F), 7.0);

  reference::expect_equivalent(records, one_sensor(), cfg, 1, 10e-3,
                               streaming.finalize());
  const auto batch = Detector(cfg).analyze_records(records, one_sensor(), 1,
                                                   10e-3);
  ASSERT_EQ(batch.flagged.size(), 1u);
  EXPECT_DOUBLE_EQ(batch.flagged[0].record.avg_duration, 5.0);
}

TEST(StreamingDetector, OutlierRankScenarioMatchesReference) {
  // The Fig 21-style bad-node shape: 8 ranks, rank 5 twice as slow.
  std::vector<SliceRecord> records;
  for (int rank = 0; rank < 8; ++rank) {
    for (int slice = 0; slice < 50; ++slice) {
      const double avg = rank == 5 ? 200e-6 : 100e-6;
      records.push_back(make_record(0, rank, slice * 0.2 + 0.05, avg));
    }
  }
  DetectorConfig cfg;
  StreamingDetector streaming(cfg, one_sensor(), 8, 10.0);
  feed_in_batches(streaming, records, 64);
  const auto result = streaming.finalize();

  reference::expect_equivalent(records, one_sensor(), cfg, 8, 10.0, result);
  ASSERT_FALSE(result.events.empty());
  EXPECT_EQ(result.events.front().rank_begin, 5);
  EXPECT_EQ(result.events.front().rank_end, 5);

  // Online state: rank 5's last slice sits near half performance.
  const auto last = streaming.last_slice(0, 5);
  ASSERT_TRUE(last.has_value());
  EXPECT_NEAR(last->normalized, 0.5, 0.05);
}

TEST(StreamingDetector, Fig14WorkloadRunMatchesReference) {
  // The Fig 14 scenario at test scale: mini-CG under baseline OS jitter.
  const auto cg = workloads::make_workload("CG");
  auto cluster = workloads::baseline_config(/*ranks=*/16);
  workloads::RunOptions opts;
  opts.params.iterations = 8;
  opts.params.scale = 0.15;

  Collector server;
  const auto run = workloads::run_workload(*cg, cluster, opts, &server);

  DetectorConfig cfg;
  cfg.matrix_resolution = run.makespan / 40.0;
  StreamingDetector streaming(cfg, server.sensors(), cluster.ranks,
                              run.makespan);
  const auto records = server.records();
  ASSERT_FALSE(records.empty());
  feed_in_batches(streaming, records, 128);
  EXPECT_EQ(streaming.observed_records(), records.size());

  reference::expect_equivalent(records, server.sensors(), cfg, cluster.ranks,
                               run.makespan, streaming.finalize());
}

// The batch front end and the engine it wraps, against the naive reference
// scorer on a mini-app run: cells and severities to 1e-12, event bounds and
// the flagged list exact.
TEST(Detector, FrontEndMatchesReferenceOnMiniApp) {
  auto workload = workloads::make_workload("CG");
  workloads::RunOptions opts;
  opts.params.iterations = 4;
  opts.params.scale = 0.05;
  Collector collector;
  auto cfg = workloads::baseline_config(8);
  cfg.ranks_per_node = 4;
  const auto run =
      workloads::run_workload(*workload, cfg, opts, &collector);
  const auto records = collector.take_records();
  ASSERT_FALSE(records.empty());

  const DetectorConfig dcfg;
  const auto sensors = workload->sensors();
  StreamingDetector streaming(dcfg, sensors, 8, run.makespan);
  streaming.on_batch(records);
  reference::expect_equivalent(records, sensors, dcfg, 8, run.makespan,
                               streaming.finalize());
}

TEST(StreamingDetector, AttachedToCollectorUnderConcurrentIngest) {
  // Live wiring: the collector forwards every batch to the streaming
  // detector while four rank threads push concurrently; the final regions
  // still match the reference over the same retained records.
  DetectorConfig cfg;
  Collector collector;
  collector.set_sensors(one_sensor());
  StreamingDetector streaming(cfg, one_sensor(), 4, 10.0);
  collector.attach_sink(&streaming);

  std::vector<std::thread> threads;
  for (int rank = 0; rank < 4; ++rank) {
    threads.emplace_back([&collector, rank] {
      for (int slice = 0; slice < 100; ++slice) {
        const double t = slice * 0.1 + 0.01;
        const bool noisy = rank < 2 && t >= 3.0 && t < 5.0;
        std::vector<SliceRecord> batch{
            make_record(0, rank, t, noisy ? 250e-6 : 100e-6)};
        collector.ingest(batch);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(streaming.observed_records(), 400u);

  const auto result = streaming.finalize();
  reference::expect_equivalent(collector.records(), one_sensor(), cfg, 4,
                               10.0, result);
  ASSERT_FALSE(result.events.empty());
  EXPECT_LE(result.events.front().rank_end, 1);
}

TEST(StreamingDetector, WelfordStatsMatchTwoPassComputation) {
  DetectorConfig cfg;
  StreamingDetector streaming(cfg, one_sensor(), 1, 1.0);
  // Slices 1, 2, 4: normalized at arrival = 1, 1/2, 1/4.
  const double avgs[3] = {1.0, 2.0, 4.0};
  std::vector<SliceRecord> records;
  for (int i = 0; i < 3; ++i) {
    records.push_back(make_record(0, 0, i * 0.1, avgs[i]));
  }
  streaming.on_batch(records);

  const double normalized[3] = {1.0, 0.5, 0.25};
  double mean = 0.0;
  for (double n : normalized) mean += n / 3.0;
  double var = 0.0;
  for (double n : normalized) var += (n - mean) * (n - mean) / 2.0;

  const auto stats = streaming.sensor_stats(0);
  EXPECT_EQ(stats.count, 3u);
  EXPECT_NEAR(stats.mean, mean, 1e-12);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
}

TEST(StreamingDetector, ZeroDurationRecordsAreQuarantined) {
  DetectorConfig cfg;
  cfg.matrix_resolution = 1e-3;
  StreamingDetector streaming(cfg, one_sensor(), 1, 10e-3);
  // The broken measurement arrives FIRST: as a running minimum it would
  // have become the standard time and zeroed every later score.
  std::vector<SliceRecord> records{make_record(0, 0, 0.0, 0.0)};
  for (int i = 1; i < 6; ++i) {
    records.push_back(make_record(0, 0, i * 1e-3, i == 3 ? 5.0 : 2.0));
  }
  feed_in_batches(streaming, records, 2);

  EXPECT_EQ(streaming.degenerate_records(), 1u);
  EXPECT_EQ(streaming.observed_records(), 6u);
  // The standard is the fastest *real* slice, never zero.
  EXPECT_DOUBLE_EQ(streaming.standard_time(0, 0.0F), 2.0);
  // The degenerate record never became the rank's last slice, so it cannot
  // pose as a perfect (normalized 1.0) observation downstream.
  const auto last = streaming.last_slice(0, 0);
  ASSERT_TRUE(last.has_value());
  EXPECT_GT(last->avg_duration, 0.0);

  // And the reference quarantines the same record, so the paths still
  // agree cell for cell.
  reference::expect_equivalent(records, one_sensor(), cfg, 1, 10e-3,
                               streaming.finalize());
}

TEST(StreamingDetector, RejectsUnknownSensor) {
  StreamingDetector streaming({}, one_sensor(), 1, 1.0);
  std::vector<SliceRecord> batch{make_record(7, 0, 0.0, 1e-6)};
  EXPECT_THROW(streaming.on_batch(batch), Error);
}

// The engine runs the same config checks as the batch front end: a
// threshold above 1 would flag even a perfect record (normalized 1.0).
TEST(StreamingDetector, RejectsThresholdOutsideUnitInterval) {
  DetectorConfig cfg;
  cfg.variance_threshold = 1.5;
  EXPECT_THROW(StreamingDetector(cfg, one_sensor(), 1, 1.0), Error);
  cfg.variance_threshold = 0.0;
  EXPECT_THROW(StreamingDetector(cfg, one_sensor(), 1, 1.0), Error);
  cfg.variance_threshold = 1.0;
  EXPECT_NO_THROW(StreamingDetector(cfg, one_sensor(), 1, 1.0));
}

}  // namespace
}  // namespace vsensor::rt

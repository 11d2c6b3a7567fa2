// Collector ingest throughput under concurrent ranks (google-benchmark).
//
// The analysis server must not become the bottleneck the paper's <4%
// overhead budget forbids: with one global mutex every rank serializes on
// every batch. Sharding by sensor id gives each concurrent producer its
// own lock in the common case. Run with growing --threads to see the
// single-mutex baseline (shards:1) flatten while the sharded store
// (shards:16) scales; thread t pushes records of sensor t, so distinct
// threads land on distinct shards exactly as distinct sensors do in a run.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "runtime/collector.hpp"
#include "runtime/streaming_detector.hpp"

namespace {

using namespace vsensor;

constexpr size_t kBatchRecords = 64;

std::vector<rt::SliceRecord> make_batch(int sensor_id, int rank) {
  std::vector<rt::SliceRecord> batch(kBatchRecords);
  for (size_t i = 0; i < batch.size(); ++i) {
    auto& rec = batch[i];
    rec.sensor_id = sensor_id;
    rec.rank = rank;
    rec.t_begin = static_cast<double>(i) * 1e-3;
    rec.t_end = rec.t_begin + 1e-3;
    rec.avg_duration = 100e-6;
    rec.min_duration = 90e-6;
    rec.count = 10;
  }
  return batch;
}

std::vector<rt::SensorInfo> make_sensor_table(size_t n) {
  std::vector<rt::SensorInfo> sensors;
  for (size_t s = 0; s < n; ++s) {
    sensors.push_back({"bench" + std::to_string(s),
                       rt::SensorType::Computation, "bench.c",
                       static_cast<int>(s)});
  }
  return sensors;
}

std::unique_ptr<rt::Collector> g_collector;
std::unique_ptr<rt::StreamingDetector> g_streaming;

// Concurrent ingest into a bounded collector: shards:1 is the old
// single-global-mutex design, shards:16 the contention-free path.
void BM_CollectorIngest(benchmark::State& state) {
  if (state.thread_index() == 0) {
    rt::CollectorConfig cfg;
    cfg.shards = static_cast<size_t>(state.range(0));
    cfg.shard_capacity = 1u << 14;  // bounded: memory stays flat, drops counted
    g_collector = std::make_unique<rt::Collector>(cfg);
  }
  const auto batch = make_batch(state.thread_index(), state.thread_index());
  for (auto _ : state) {
    g_collector->ingest(batch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchRecords));
  if (state.thread_index() == 0) g_collector.reset();
}
BENCHMARK(BM_CollectorIngest)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(16)
    ->ThreadRange(1, 32)
    ->UseRealTime();

// Same, with the streaming detector attached: the price of folding every
// batch into running statistics as it arrives (the on-line analysis path).
void BM_CollectorIngestStreaming(benchmark::State& state) {
  const int threads = state.threads();
  if (state.thread_index() == 0) {
    rt::CollectorConfig cfg;
    cfg.shard_capacity = 1u << 14;
    g_collector = std::make_unique<rt::Collector>(cfg);
    g_collector->set_sensors(make_sensor_table(static_cast<size_t>(threads)));
    g_streaming = std::make_unique<rt::StreamingDetector>(
        rt::DetectorConfig{}, g_collector->sensors(), threads, 10.0);
    g_collector->attach_sink(g_streaming.get());
  }
  const auto batch = make_batch(state.thread_index(), state.thread_index());
  for (auto _ : state) {
    g_collector->ingest(batch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchRecords));
  if (state.thread_index() == 0) {
    g_collector.reset();
    g_streaming.reset();
  }
}
BENCHMARK(BM_CollectorIngestStreaming)->ThreadRange(1, 8)->UseRealTime();

// Streaming finalize vs. batch re-analysis: the streaming path pays O(cells)
// once instead of O(records) per report.
void BM_StreamingFinalize(benchmark::State& state) {
  const int ranks = 32;
  rt::DetectorConfig cfg;
  rt::StreamingDetector streaming(cfg, make_sensor_table(4), ranks, 10.0);
  for (int rank = 0; rank < ranks; ++rank) {
    for (int sensor = 0; sensor < 4; ++sensor) {
      auto batch = make_batch(sensor, rank);
      for (size_t i = 0; i < batch.size(); ++i) {
        batch[i].t_begin = static_cast<double>(i) * 0.15;
        batch[i].t_end = batch[i].t_begin + 1e-3;
      }
      streaming.on_batch(batch);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(streaming.finalize());
  }
}
BENCHMARK(BM_StreamingFinalize);

}  // namespace

BENCHMARK_MAIN();

// Self-test of the benchmark's own math and oracles.
//
//   e2e_bench_selftest                 run every check, exit 1 on a failure
//   e2e_bench_selftest --quartiles V…  print q1 q2 q3 median of the values
//                                      (run.py compares them with Python's
//                                      statistics module)
//
// Each oracle is shown a correct result it must accept and a deliberately
// corrupted one it must reject.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "oracles.hpp"
#include "runtime/detector.hpp"
#include "runtime/streaming_detector.hpp"

namespace {

using namespace e2e;
using vsensor::rt::AnalysisResult;
using vsensor::rt::Detector;
using vsensor::rt::DetectorConfig;
using vsensor::rt::SensorInfo;
using vsensor::rt::SensorType;
using vsensor::rt::SliceRecord;
using vsensor::rt::StreamingDetector;
using vsensor::rt::VarianceEvent;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::fmax(1.0, std::fabs(b)); }

bool near_all(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!near(got[i], want[i])) return false;
  }
  return true;
}

// Expected values from Python's statistics.quantiles(v, n=4) and
// statistics.median(v), and numpy.percentile's default linear method.
void test_order_statistics() {
  expect(near_all(quartiles({1, 2}), {0.75, 1.5, 2.25}), "quartiles of 2 values");
  expect(near_all(quartiles({3, 1, 2}), {1.0, 2.0, 3.0}), "quartiles of 3 values");
  expect(near_all(quartiles({4, 1, 3, 2}), {1.25, 2.5, 3.75}), "quartiles of 4 values");
  expect(near_all(quartiles({5, 1, 4, 2, 3}), {1.5, 3.0, 4.5}), "quartiles of 5 values");
  expect(near_all(quartiles({10, 20, 30, 40, 50, 60, 70, 80, 90, 100}), {27.5, 55.0, 82.5}),
         "quartiles of 10 values");
  expect(near_all(quartiles({0.5, 0.25, 2.0, 1.0, 8.0, 4.0, 16.0}), {0.5, 2.0, 8.0}),
         "quartiles of 7 values");
  bool threw = false;
  try {
    quartiles({1.0});
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "quartiles reject a single value");

  expect(near(median({3, 1, 2}), 2.0), "median of odd count");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of even count");
  expect(median({}) == 0.0, "median of nothing is 0");

  const std::vector<double> tens{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  expect(near(percentile(tens, 50), 55.0), "p50");
  expect(near(percentile(tens, 99), 99.1), "p99 interpolates");
  expect(near(percentile(tens, 0), 10.0) && near(percentile(tens, 100), 100.0), "p0/p100");
  expect(near(percentile({1, 2, 3, 4}, 25), 1.75), "p25 of 4 values");
  expect(near(percentile({7}, 99), 7.0), "percentile of one value");
}

void test_spans() {
  Tracer t;
  t.set_job(7);
  const int job = t.open("job");
  const int a = t.open("tier.finalize");
  const int b = t.open("server.checkpoint");
  t.close(b);
  t.close(a);
  const int c = t.open("oracle.check");
  t.close(c);
  t.close(job);
  const auto& spans = t.spans();
  expect(spans.size() == 4, "four spans recorded");
  expect(spans[1].parent == 0 && spans[2].parent == 1 && spans[3].parent == 0,
         "parents follow nesting");
  const auto self = t.self_times();
  const double dur0 = spans[0].end - spans[0].start;
  const double children0 = (spans[1].end - spans[1].start) + (spans[3].end - spans[3].start);
  expect(near(self[0], dur0 - children0), "root self time excludes direct children");
  const auto layers = t.layer_self_by_job();
  double sum = 0.0;
  for (const auto& [layer, s] : layers.at(7)) sum += s;
  expect(near(sum, dur0), "layer self times add up to the job's wall time");
  expect(layers.at(7).count("tier") == 1 && layers.at(7).count("server") == 1,
         "layers are span-name prefixes");
}

// ------------------------------------------------------------- oracles

const std::vector<SensorInfo> kSensors{{"relax", SensorType::Computation, "t.mc", 1}};

/// 8 ranks, one computation sensor, rank 3 at `slow` speed over the run.
std::vector<SliceRecord> synthetic_records(double slow) {
  std::vector<SliceRecord> out;
  for (int rank = 0; rank < 8; ++rank) {
    for (int i = 0; i < 100; ++i) {
      SliceRecord r;
      r.sensor_id = 0;
      r.rank = rank;
      r.t_begin = i * 1e-2;
      r.t_end = r.t_begin + 1e-2;
      r.avg_duration = (rank == 3 ? 1e-3 / slow : 1e-3) * (1.0 + 1e-3 * (i % 7));
      r.min_duration = r.avg_duration;
      r.count = 10;
      out.push_back(r);
    }
  }
  return out;
}

DetectorConfig detector_config() {
  DetectorConfig cfg;
  cfg.matrix_resolution = 0.05;
  return cfg;
}

AnalysisResult batch_result(const std::vector<SliceRecord>& records) {
  return Detector(detector_config()).analyze_records(records, kSensors, 8, 1.0);
}

AnalysisResult streaming_result(const std::vector<SliceRecord>& records, size_t skip_batch) {
  StreamingDetector d(detector_config(), kSensors, 8, 1.0);
  for (size_t i = 0, batch = 0; i < records.size(); i += 32, ++batch) {
    if (batch == skip_batch) continue;
    const size_t n = std::min<size_t>(32, records.size() - i);
    d.on_batch(std::span<const SliceRecord>(records.data() + i, n));
  }
  return d.finalize();
}

void test_oracles() {
  const auto records = synthetic_records(0.5);
  const auto good = batch_result(records);
  expect(flagged_ranks(good, SensorType::Computation) == std::set<int>{3},
         "synthetic run flags exactly the slow rank");

  // cg_bad_node and minic_stencil: the bad node's ranks carry the flag.
  expect(check_ranks_flagged(good, 3, 3).empty(), "flagged rank accepted");
  expect(!check_ranks_flagged(good, 2, 3).empty(), "unflagged rank rejected");
  expect(check_flagged_exactly(good, {3}).empty(), "exact flag set accepted");
  auto extra = good;
  extra.events.push_back(extra.events.front());
  extra.events.back().rank_begin = extra.events.back().rank_end = 5;
  expect(!check_flagged_exactly(extra, {3}).empty(), "extra flagged rank rejected");
  auto missing = good;
  missing.events.clear();
  expect(!check_flagged_exactly(missing, {3}).empty(), "missing flag rejected");
  expect(!check_ranks_flagged(missing, 3, 3).empty(), "missing flag rejected (cover)");

  // Counts: records analysed vs produced, duplicate deliveries.
  expect(check_counts_equal("n", 5, 5).empty(), "equal counts accepted");
  expect(!check_counts_equal("n", 4, 5).empty(), "unequal counts rejected");

  // tier_replay: bit-identical to the reference; a dropped batch shows.
  const auto streamed = streaming_result(records, size_t(-1));
  expect(check_bit_identical(streamed, streaming_result(records, size_t(-1))).empty(),
         "identical replays accepted");
  expect(!check_bit_identical(streaming_result(records, 5), streamed).empty(),
         "replay missing one batch rejected");
  auto nudged = streamed;
  nudged.events.front().severity = std::nextafter(nudged.events.front().severity, 2.0);
  expect(!check_bit_identical(nudged, streamed).empty(), "one-ulp severity change rejected");
  auto stale = streamed;
  stale.stale_ranks.push_back(1);
  expect(!check_bit_identical(stale, streamed).empty(), "stale set change rejected");

  // offline_report: loaded records equal saved ones; events equal the
  // in-memory reference.
  auto loaded = records;
  expect(check_records_equal(loaded, records).empty(), "identical records accepted");
  loaded[123].t_end = std::nextafter(loaded[123].t_end, 1.0);
  expect(!check_records_equal(loaded, records).empty(), "one-ulp record change rejected");
  loaded = records;
  loaded.pop_back();
  expect(!check_records_equal(loaded, records).empty(), "missing record rejected");
  expect(check_events_equal(good.events, batch_result(records).events).empty(),
         "identical events accepted");
  expect(!check_events_equal(batch_result(synthetic_records(0.6)).events, good.events).empty(),
         "events of different records rejected");
  auto shifted = good.events;
  shifted.front().t_begin += 0.05;
  expect(!check_events_equal(shifted, good.events).empty(), "shifted event rejected");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--quartiles") == 0) {
    std::vector<double> v;
    for (int i = 2; i < argc; ++i) v.push_back(std::strtod(argv[i], nullptr));
    const auto q = quartiles(v);
    std::printf("%.17g %.17g %.17g %.17g\n", q[0], q[1], q[2], median(v));
    return 0;
  }
  test_order_statistics();
  test_spans();
  test_oracles();
  if (failures == 0) std::printf("e2e_bench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

#include "runtime/sensor.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/ring_buffer.hpp"

namespace vsensor::rt {

#if VSENSOR_OBS
namespace {
// Instrument handles resolved once per process; the registry keeps them
// alive and stable, so the probe hot path is counter adds only.
struct ProbeInstruments {
  obs::Counter& ticks;
  obs::Counter& tocks;
  obs::Counter& slices;
  obs::Counter& local_flags;
  obs::LogHistogram& sense_duration;

  static ProbeInstruments& get() {
    auto& reg = obs::MetricsRegistry::global();
    static ProbeInstruments inst{
        reg.counter("probe.ticks"), reg.counter("probe.tocks"),
        reg.counter("slicer.slices_completed"),
        reg.counter("probe.local_variance_flags"),
        reg.histogram("probe.sense_duration_seconds")};
    return inst;
  }
};
}  // namespace
#endif

void SenseStats::merge(const SenseStats& other) {
  sense_time += other.sense_time;
  sense_count += other.sense_count;
  durations.merge(other.durations);
  intervals.merge(other.intervals);
  max_duration = std::max(max_duration, other.max_duration);
  max_interval = std::max(max_interval, other.max_interval);
}

double SenseStats::coverage(double total_time) const {
  if (total_time <= 0.0) return 0.0;
  return sense_time / total_time;
}

double SenseStats::frequency(double total_time) const {
  if (total_time <= 0.0) return 0.0;
  return static_cast<double>(sense_count) / total_time;
}

struct SensorRuntime::State {
  SliceAccumulator slices;
  bool in_flight = false;
  double start_time = 0.0;
  uint64_t execs = 0;
  double total_duration = 0.0;
  bool disabled = false;
  /// Fastest slice average so far — the history the paper compares against
  /// ("only a scalar value of standard time needs to be saved", §5.3).
  double standard_time = 0.0;
  /// Recent slice averages when a history window is configured.
  std::optional<RingBuffer<double>> recent;

  State(int sensor_id, int rank, double slice_seconds, size_t history_window)
      : slices(sensor_id, rank, slice_seconds) {
    if (history_window > 0) recent.emplace(history_window);
  }

  void observe_slice(double avg) {
    if (!recent) {
      if (standard_time == 0.0 || avg < standard_time) standard_time = avg;
      return;
    }
    recent->push(avg);
    double best = (*recent)[0];
    for (size_t i = 1; i < recent->size(); ++i) best = std::min(best, (*recent)[i]);
    standard_time = best;
  }
};

SensorRuntime::SensorRuntime(RuntimeConfig cfg, int rank, Collector* collector,
                             NowFn now, ChargeFn charge)
    : cfg_(cfg),
      rank_(rank),
      now_(std::move(now)),
      charge_(std::move(charge)),
      stage_(collector, cfg.batch_records) {
  VS_CHECK_MSG(now_ != nullptr, "SensorRuntime needs a clock");
  VS_CHECK_MSG(charge_ != nullptr, "SensorRuntime needs a charge function");
}

SensorRuntime::SensorRuntime(RuntimeConfig cfg, int rank,
                             BatchTransport& transport, NowFn now,
                             ChargeFn charge)
    : cfg_(cfg),
      rank_(rank),
      now_(std::move(now)),
      charge_(std::move(charge)),
      stage_(transport, rank, cfg.batch_records) {
  VS_CHECK_MSG(now_ != nullptr, "SensorRuntime needs a clock");
  VS_CHECK_MSG(charge_ != nullptr, "SensorRuntime needs a charge function");
}

SensorRuntime::~SensorRuntime() = default;

int SensorRuntime::register_sensor(SensorInfo info) {
  const int id = static_cast<int>(infos_.size());
  infos_.push_back(std::move(info));
  states_.emplace_back(id, rank_, cfg_.slice_seconds, cfg_.history_window);
  return id;
}

void SensorRuntime::tick(int id) {
  VS_OBS_SCOPED_STAGE(obs::Stage::ProbeTick);
  VS_OBS_ONLY(if (obs::enabled()) ProbeInstruments::get().ticks.add();)
  VS_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < states_.size(),
               "tick on unregistered sensor");
  State& st = states_[static_cast<size_t>(id)];
  VS_CHECK_MSG(!st.in_flight, "nested tick on the same sensor");
  st.in_flight = true;
  st.start_time = now_();
}

void SensorRuntime::tock(int id, double metric) {
  VS_OBS_SCOPED_STAGE(obs::Stage::ProbeTock);
  VS_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < states_.size(),
               "tock on unregistered sensor");
  State& st = states_[static_cast<size_t>(id)];
  VS_CHECK_MSG(st.in_flight, "tock without a matching tick");
  st.in_flight = false;

  // Read the end timestamp first so the measured duration covers exactly
  // the probed snippet, then charge the probe overhead to the rank's clock
  // so the instrumented run is slower than the original exactly by the
  // instrumentation cost (§6.2).
  const double end = now_();
  const double duration = end - st.start_time;
  charge_(st.disabled ? cfg_.disabled_probe_cost : cfg_.probe_cost);
  st.execs += 1;
  st.total_duration += duration;

  // Sense-distribution bookkeeping (Figs 15-17).
  sense_stats_.sense_time += duration;
  sense_stats_.sense_count += 1;
  sense_stats_.durations.add(duration);
  sense_stats_.max_duration = std::max(sense_stats_.max_duration, duration);
  if (sense_stats_.last_sense_end >= 0.0) {
    const double gap = st.start_time - sense_stats_.last_sense_end;
    if (gap > 0.0) {
      sense_stats_.intervals.add(gap);
      sense_stats_.max_interval = std::max(sense_stats_.max_interval, gap);
    }
  }
  sense_stats_.last_sense_end = end;
  VS_OBS_ONLY(if (obs::enabled()) {
    auto& inst = ProbeInstruments::get();
    inst.tocks.add();
    inst.sense_duration.record(duration);
  })

  if (st.disabled) return;

  {
    VS_OBS_SCOPED_STAGE(obs::Stage::Slicing);
    if (auto completed = st.slices.add(end, duration, metric)) {
      // Intra-process on-line comparison with history (§5.3): update the
      // standard time (all-time or windowed minimum) and flag slices that
      // fall below the threshold.
      const double previous_standard = st.standard_time;
      st.observe_slice(completed->avg_duration);
      if (previous_standard > 0.0 && cfg_.local_variance_threshold > 0.0 &&
          previous_standard <
              completed->avg_duration * cfg_.local_variance_threshold) {
        completed->flags |= kRecordFlagLocalVariance;
        ++local_flags_;
        VS_OBS_ONLY(
            if (obs::enabled()) ProbeInstruments::get().local_flags.add();)
      }
      VS_OBS_ONLY(if (obs::enabled()) ProbeInstruments::get().slices.add();)
      emit(*completed);
    }
  }

  // Runtime optimization (§5.3): switch off analysis for sensors that turn
  // out to be too short to be useful once enough evidence accumulated.
  if (cfg_.min_avg_duration > 0.0 && st.execs >= cfg_.disable_after &&
      st.total_duration / static_cast<double>(st.execs) < cfg_.min_avg_duration) {
    st.disabled = true;
  }
}

void SensorRuntime::emit(const SliceRecord& rec) {
  records_emitted_ += 1;
  stage_.push(rec);
}

void SensorRuntime::flush() {
  {
    VS_OBS_SCOPED_STAGE(obs::Stage::Slicing);
    for (auto& st : states_) {
      if (st.disabled) continue;
      if (auto rec = st.slices.flush()) {
        VS_OBS_ONLY(if (obs::enabled()) ProbeInstruments::get().slices.add();)
        emit(*rec);
      }
    }
  }
  // The run may end long after the last sense (AMG's adaptive solve phase
  // has no sensors at all): record the trailing gap so interval statistics
  // reflect the uncovered tail of the lifetime (paper Fig 17).
  if (sense_stats_.last_sense_end >= 0.0) {
    const double gap = now_() - sense_stats_.last_sense_end;
    if (gap > 0.0) {
      sense_stats_.intervals.add(gap);
      sense_stats_.max_interval = std::max(sense_stats_.max_interval, gap);
    }
  }
  stage_.flush();
}

bool SensorRuntime::disabled(int id) const {
  VS_CHECK(id >= 0 && static_cast<size_t>(id) < states_.size());
  return states_[static_cast<size_t>(id)].disabled;
}

uint64_t SensorRuntime::execution_count(int id) const {
  VS_CHECK(id >= 0 && static_cast<size_t>(id) < states_.size());
  return states_[static_cast<size_t>(id)].execs;
}

double SensorRuntime::standard_time(int id) const {
  VS_CHECK(id >= 0 && static_cast<size_t>(id) < states_.size());
  return states_[static_cast<size_t>(id)].standard_time;
}

}  // namespace vsensor::rt

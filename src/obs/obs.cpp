#include "obs/obs.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/table.hpp"

namespace vsensor::obs {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_env_read{false};

thread_local ScopedStage* tl_current_stage = nullptr;

}  // namespace

bool enabled() {
  if (!g_env_read.load(std::memory_order_acquire)) {
    // First call: seed from the environment. Racing threads both read the
    // same variable, so the outcome is identical either way.
    const char* env = std::getenv("VSENSOR_OBS");
    if (env != nullptr && env[0] != '\0' && env[0] != '0') {
      g_enabled.store(true, std::memory_order_relaxed);
    }
    g_env_read.store(true, std::memory_order_release);
  }
  return g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  g_env_read.store(true, std::memory_order_release);
  g_enabled.store(on, std::memory_order_relaxed);
}

void reread_env_gate_for_testing() {
  g_enabled.store(false, std::memory_order_relaxed);
  g_env_read.store(false, std::memory_order_release);
}

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::ProbeTick: return "probe.tick";
    case Stage::ProbeTock: return "probe.tock";
    case Stage::Slicing: return "slicing";
    case Stage::Staging: return "staging";
    case Stage::TransportShip: return "transport.ship";
    case Stage::CollectorIngest: return "collector.ingest";
    case Stage::DetectStreaming: return "detect.streaming";
    case Stage::Export: return "export";
    case Stage::Durability: return "durability";
    case Stage::kCount: break;
  }
  return "?";
}

void StageClock::add(Stage stage, uint64_t ns) {
  Cell& cell = cells_[static_cast<size_t>(stage)];
  cell.ns.fetch_add(ns, std::memory_order_relaxed);
  cell.n.fetch_add(1, std::memory_order_relaxed);
}

uint64_t StageClock::nanos(Stage stage) const {
  return cells_[static_cast<size_t>(stage)].ns.load(std::memory_order_relaxed);
}

uint64_t StageClock::count(Stage stage) const {
  return cells_[static_cast<size_t>(stage)].n.load(std::memory_order_relaxed);
}

uint64_t StageClock::total_nanos() const {
  uint64_t sum = 0;
  for (const auto& cell : cells_) {
    sum += cell.ns.load(std::memory_order_relaxed);
  }
  return sum;
}

void StageClock::reset() {
  for (auto& cell : cells_) {
    cell.ns.store(0, std::memory_order_relaxed);
    cell.n.store(0, std::memory_order_relaxed);
  }
}

StageClock& StageClock::global() {
  static StageClock clock;
  return clock;
}

ScopedStage::ScopedStage(Stage stage) : stage_(stage) {
  if (!enabled()) return;
  armed_ = true;
  parent_ = tl_current_stage;
  tl_current_stage = this;
  t0_ = SpanTracer::global().now_ns();
}

ScopedStage::~ScopedStage() {
  if (!armed_) return;
  const uint64_t end = SpanTracer::global().now_ns();
  const uint64_t total = end > t0_ ? end - t0_ : 0;
  tl_current_stage = parent_;
  const uint64_t self = total > child_ns_ ? total - child_ns_ : 0;
  StageClock::global().add(stage_, self);
  if (parent_ != nullptr) parent_->child_ns_ += total;
}

OverheadReport attribution(double workload_wall_seconds) {
  OverheadReport report;
  report.workload_wall_seconds = workload_wall_seconds;
  const StageClock& clock = StageClock::global();
  report.monitoring_wall_seconds =
      static_cast<double>(clock.total_nanos()) * 1e-9;
  for (size_t i = 0; i < kStageCount; ++i) {
    const auto stage = static_cast<Stage>(i);
    const uint64_t n = clock.count(stage);
    if (n == 0) continue;
    StageBreakdown b;
    b.stage = stage;
    b.name = stage_name(stage);
    b.count = n;
    b.seconds = static_cast<double>(clock.nanos(stage)) * 1e-9;
    if (report.monitoring_wall_seconds > 0.0) {
      b.share_of_monitoring = b.seconds / report.monitoring_wall_seconds;
    }
    if (workload_wall_seconds > 0.0) {
      b.share_of_workload = b.seconds / workload_wall_seconds;
    }
    report.stages.push_back(b);
  }
  std::sort(report.stages.begin(), report.stages.end(),
            [](const StageBreakdown& a, const StageBreakdown& b) {
              return a.seconds > b.seconds;
            });
  if (workload_wall_seconds > 0.0) {
    report.monitoring_wall_fraction =
        report.monitoring_wall_seconds / workload_wall_seconds;
  }
  return report;
}

std::string OverheadReport::to_string() const {
  std::ostringstream os;
  TextTable table({"stage", "entries", "wall(s)", "of-monitoring",
                   "of-workload"});
  for (const auto& b : stages) {
    table.add_row({b.name, std::to_string(b.count), fmt_double(b.seconds, 6),
                   fmt_percent(b.share_of_monitoring),
                   fmt_percent(b.share_of_workload)});
  }
  os << table.to_string();
  os << "monitoring wall time: " << fmt_double(monitoring_wall_seconds, 6)
     << " s";
  if (workload_wall_seconds > 0.0) {
    os << " of " << fmt_double(workload_wall_seconds, 6) << " s ("
       << fmt_percent(monitoring_wall_fraction) << ")";
  }
  os << "\n";
  if (virtual_makespan > 0.0) {
    os << "virtual overhead (paper §6.2, target <4%): "
       << fmt_double(virtual_overhead_seconds, 6) << " s on a "
       << fmt_double(virtual_makespan, 6) << " s run ("
       << fmt_percent(virtual_overhead_fraction) << ")\n";
  }
  return os.str();
}

void reset_all() {
  MetricsRegistry::global().reset();
  StageClock::global().reset();
  SpanTracer::global().clear();
}

}  // namespace vsensor::obs

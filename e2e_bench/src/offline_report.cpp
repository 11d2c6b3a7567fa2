// offline_report: the offline path a user takes after a run. Setup runs an
// instrumented CG job with a bad node into an in-memory collector; each
// job then saves it as a v3 session file (save_session_file, the
// --save-records path), loads the file back, runs the batch Detector over
// the loaded records and renders the variance report. session_io is the
// slowest layer per record, and this is the only workload where the batch
// detector does real work.
#include <sys/stat.h>

#include <optional>

#include "oracles.hpp"
#include "report/report.hpp"
#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/session_io.hpp"
#include "workloads.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace e2e {
namespace {

using namespace vsensor;

constexpr int kRanks = 24;
constexpr int kBadNode = 1;  // ranks 8-15 at 8 ranks per node

struct Inputs {
  std::unique_ptr<rt::Collector> collector;
  std::vector<rt::SliceRecord> records;  ///< what the session must hold
  rt::DetectorConfig detector;
  double run_time = 0.0;
  double overhead_pct = 0.0;
  /// Events the batch detector finds on the in-memory collector.
  std::vector<rt::VarianceEvent> reference;
};

Inputs make_inputs(uint64_t seed) {
  const auto cg = workloads::make_workload("CG");
  Inputs in;
  workloads::RunOptions opts;
  opts.params.iterations = 2;
  opts.params.scale = 0.25;
  opts.params.seed = mix_seed(seed, 6);
  auto cluster = workloads::baseline_config(kRanks, mix_seed(seed, 7));
  cluster.ranks_per_node = 8;
  workloads::inject_bad_node(cluster, kBadNode, 0.55);
  in.collector = std::make_unique<rt::Collector>();
  const auto run = workloads::run_workload(*cg, cluster, opts, in.collector.get());
  in.run_time = run.makespan;
  in.overhead_pct = virtual_overhead_pct(run.mpi);
  in.detector.matrix_resolution = run.makespan / 50.0;
  in.records = in.collector->records();
  in.reference = rt::Detector(in.detector)
                     .analyze(*in.collector, kRanks, in.run_time)
                     .events;
  return in;
}

struct JobOut {
  double save_s = 0.0;
  double load_s = 0.0;
  double file_bytes = 0.0;
};

std::string job(const Args& args, const Inputs& in, Tracer* tr, JobOut& out) {
  const std::string path = work_path(args, "session.vsr");
  {
    Scope s(tr, "session_io.save");
    const double t0 = now_s();
    rt::save_session_file(path, *in.collector, kRanks, in.run_time);
    out.save_s = now_s() - t0;
  }
  struct stat st{};
  out.file_bytes = stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
  rt::Session session;
  {
    Scope s(tr, "session_io.load");
    const double t0 = now_s();
    session = rt::load_session_file(path);
    out.load_s = now_s() - t0;
  }
  std::optional<rt::AnalysisResult> result;
  {
    Scope s(tr, "detector.analyze");
    result.emplace(rt::Detector(in.detector)
                       .analyze_records(session.records, session.sensors,
                                        session.ranks, session.run_time));
  }
  std::string text;
  {
    Scope s(tr, "report.render");
    text = report::variance_report(*result);
  }
  Scope s(tr, "oracle.check");
  if (!session.clean()) return "session loaded with warnings: " + session.warnings.front();
  if (auto why = check_records_equal(session.records, in.records); !why.empty()) {
    return why;
  }
  if (auto why = check_events_equal(result->events, in.reference); !why.empty()) {
    return why;
  }
  if (in.reference.empty()) return "the reference run found no variance";
  if (text.empty()) return "empty report";
  return "";
}

}  // namespace

void run_offline_report(const Args& args, Report& report) {
  Inputs in;
  report.set("setup_s", "s", timed_setup(5, in, [&] { return make_inputs(args.seed); }));
  report.note("records", std::to_string(in.records.size()));

  JobOut out;
  std::vector<double> save;
  std::vector<double> load;
  auto full = [&](Tracer* tr) {
    const auto why = job(args, in, tr, out);
    if (tr == nullptr) {
      save.push_back(out.save_s);
      load.push_back(out.load_s);
    }
    return why;
  };
  const double records = static_cast<double>(in.records.size());
  if (!args.trace) {
    std::vector<Variant> v{{"full", full}};
    run_rounds(args.seconds, 1, 5, report.tally, nullptr, v);
    const auto& s = v[0].series;
    report_jobs(report, s);
    report.set("virtual_overhead_pct", "%", in.overhead_pct);
    report.set("ingest_rec_per_s", "rec/s", records / median(load));
    return;
  }

  Tracer tracer;
  std::vector<Variant> v{{"full", full}, {"full_traced", full, true}};
  run_rounds(args.seconds, 1, 2, report.tally, &tracer, v);
  const auto& untraced = v[0].series;
  const auto& traced = v[1].series;
  report_trace(report, args, tracer, untraced, traced);
  report.set("session_io.export_s", "s", median(save));
  report.set("session_io.save_rec_per_s", "rec/s", records / median(save));
  report.set("session_io.load_rec_per_s", "rec/s", records / median(load));
  report.set("session_io.bytes_per_record", "bytes", out.file_bytes / records);
  report.set("detector.analyze_s", "s",
             tracer.median_span_total(traced.traced_jobs, "detector.analyze"));
  report.set("report.render_s", "s",
             tracer.median_span_total(traced.traced_jobs, "report.render"));
}

}  // namespace e2e

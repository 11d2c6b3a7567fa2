// minic_stencil: the whole static + dynamic tool chain on a generated
// MiniC Jacobi stencil (examples/minic/stencil.mc with more time steps and
// a seeded initial field). Each job parses, checks, lowers, analyses and
// instruments the source, interprets it on 4 simulated ranks with node 1
// at 55% speed, then runs the batch detector and renders the report. The
// interpreter is nearly all of the job; simMPI, the tier and session_io
// barely run here.
#include <cstdio>
#include <optional>
#include <string>

#include "analysis/analysis.hpp"
#include "instrument/instrument.hpp"
#include "interp/interp.hpp"
#include "ir/ir.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "oracles.hpp"
#include "report/report.hpp"
#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace vsensor;

constexpr int kRanks = 4;
constexpr int kBadNode = 1;  // one rank per node: rank 1
constexpr int kSteps = 1000;

std::string stencil_source(uint64_t seed) {
  // The seed picks the initial field, never the amount of work.
  const double amplitude = 1.0 + static_cast<double>(mix_seed(seed, 8) % 1000) / 1000.0;
  char head[160];
  std::snprintf(head, sizeof(head),
                "int STEPS = %d;\nint LOCAL = 512;\ndouble AMPLITUDE = %.3f;\n",
                kSteps, amplitude);
  return std::string(head) + R"(double u[512];
double unew[512];

void init_field(int n) {
  int i;
  for (i = 0; i < n; ++i)
    u[i] = AMPLITUDE * i;
}

void relax(int n) {
  int i;
  for (i = 1; i < n - 1; ++i)
    unew[i] = 0.5 * u[i] + 0.25 * (u[i - 1] + u[i + 1]);
}

void swap_fields(int n) {
  int i;
  for (i = 0; i < n; ++i)
    u[i] = unew[i];
}

int main() {
  int step; int rank = 0; int nprocs = 1; int next; int prev;
  MPI_Init(NULL, NULL);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Comm_size(MPI_COMM_WORLD, &nprocs);
  next = (rank + 1) % nprocs;
  prev = (rank + nprocs - 1) % nprocs;
  init_field(LOCAL);
  for (step = 0; step < STEPS; ++step) {
    if (nprocs > 1)
      MPI_Sendrecv(u, 1, MPI_DOUBLE, next, 1, u, 1, MPI_DOUBLE, prev, 1,
                   MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    relax(LOCAL);
    swap_fields(LOCAL);
    MPI_Allreduce(u, unew, 1, MPI_DOUBLE, MPI_MAX, MPI_COMM_WORLD);
  }
  MPI_Finalize();
  return 0;
}
)";
}

struct Inputs {
  std::string source;
  simmpi::Config cluster;
};

Inputs make_inputs(uint64_t seed) {
  Inputs in;
  in.source = stencil_source(seed);
  // A generator bug must fail setup, not show up as failed jobs.
  auto program = minic::parse(in.source);
  minic::run_sema(program);
  in.cluster.ranks = kRanks;
  in.cluster.ranks_per_node = 1;
  in.cluster.nodes.set_os_noise(0.05, 1e-3, mix_seed(seed, 9));
  in.cluster.nodes.set_node_speed(kBadNode, 0.55);
  return in;
}

struct JobOut {
  double interp_s = 0.0;
  uint64_t records = 0;
  uint64_t messages = 0;
  int snippets = 0;
  int selected = 0;
  double overhead_pct = 0.0;
};

std::string job(const Inputs& in, bool sensors_on, Tracer* tr, JobOut& out) {
  minic::Program program;
  analysis::AnalysisResult static_result;
  instrument::InstrumentationPlan plan;
  {
    Scope s(tr, "static.compile");
    {
      Scope p(tr, "static.parse");
      program = minic::parse(in.source);
    }
    {
      Scope p(tr, "static.sema");
      minic::run_sema(program);
    }
    ir::ProgramIR ir;
    {
      Scope p(tr, "static.lower");
      ir = ir::lower(program);
    }
    {
      Scope p(tr, "static.analyze");
      static_result = analysis::analyze(ir);
    }
    {
      Scope p(tr, "static.instrument");
      plan = instrument::instrument(program, static_result);
    }
  }
  out.snippets = static_result.snippet_count();
  out.selected = static_cast<int>(static_result.selected.size());

  rt::Collector collector;
  interp::InterpConfig icfg;
  icfg.enable_sensors = sensors_on;
  interp::InterpResult run;
  {
    Scope s(tr, "interp.run_program");
    const double t0 = now_s();
    run = interp::run_program(program, plan, in.cluster, icfg, &collector);
    out.interp_s = now_s() - t0;
  }
  out.records = collector.ingested_records();
  out.messages = 0;
  for (const auto& r : run.mpi.ranks) out.messages += r.messages;
  out.overhead_pct = virtual_overhead_pct(run.mpi);
  if (!sensors_on) return "";

  const double makespan = run.mpi.makespan();
  rt::DetectorConfig dcfg;
  dcfg.matrix_resolution = makespan / 50.0;
  std::optional<rt::AnalysisResult> result;
  {
    Scope s(tr, "detector.analyze");
    result.emplace(rt::Detector(dcfg).analyze(collector, kRanks, makespan));
  }
  std::string text;
  {
    Scope s(tr, "report.render");
    text = report::variance_report(*result);
  }
  Scope s(tr, "oracle.check");
  if (out.records == 0) return "no sensor records";
  if (text.empty()) return "empty report";
  return check_flagged_exactly(*result, {kBadNode});
}

}  // namespace

void run_minic_stencil(const Args& args, Report& report) {
  Inputs in;
  report.set("setup_s", "s", timed_setup(200, in, [&] { return make_inputs(args.seed); }));
  report.note("ranks", std::to_string(kRanks));
  report.note("steps", std::to_string(kSteps));

  JobOut on;
  JobOut off;
  std::vector<double> interp_s;
  auto full = [&](Tracer* tr) {
    const auto why = job(in, true, tr, on);
    if (tr == nullptr) interp_s.push_back(on.interp_s);
    return why;
  };
  if (!args.trace) {
    std::vector<Variant> v{{"full", full}};
    run_rounds(args.seconds, 1, 5, report.tally, nullptr, v);
    const auto& s = v[0].series;
    report_jobs(report, s);
    report.set("virtual_overhead_pct", "%", on.overhead_pct);
    report.set("ingest_rec_per_s", "rec/s",
               static_cast<double>(on.records) / median(interp_s));
    return;
  }

  Tracer tracer;
  std::vector<Variant> v{
      {"full", full},
      {"full_traced", full, true},
      {"probes_off", [&](Tracer* tr) { return job(in, false, tr, off); }, true},
  };
  run_rounds(args.seconds, 1, 2, report.tally, &tracer, v);
  const auto& untraced = v[0].series;
  const auto& traced = v[1].series;
  const auto& plain = v[2].series;
  const auto interp = [&](const JobSeries& s) {
    return tracer.median_span_total(s.traced_jobs, "interp.run_program");
  };
  report_trace(report, args, tracer, untraced, traced);
  report.set("simmpi.plain_job_s", "s", median(plain.wall));
  report.set("simmpi.user_s", "s", median(plain.user));
  report.set("simmpi.sys_s", "s", median(plain.sys));
  report.set("simmpi.ctx_switches", "count", median(plain.ctx_switches));
  report.set("simmpi.messages", "count", static_cast<double>(off.messages));
  report.set("sensor.records", "count", static_cast<double>(on.records));
  report.set("static.compile_s", "s",
             tracer.median_layer_self(traced.traced_jobs, "static"));
  report.set("analysis.snippets", "count", on.snippets);
  report.set("analysis.selected", "count", on.selected);
  report.set("interp.run_s", "s", interp(traced));
  report.set("interp.probe_overhead_s", "s", interp(traced) - interp(plain));
  report.set("detector.analyze_s", "s",
             tracer.median_span_total(traced.traced_jobs, "detector.analyze"));
  report.set("report.render_s", "s",
             tracer.median_span_total(traced.traced_jobs, "report.render"));
}

}  // namespace e2e

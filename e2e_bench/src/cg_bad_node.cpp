// cg_bad_node: CG at 512 simulated ranks (one OS thread each) on the
// baseline cluster with node 1 at 55% memory speed, instrumented through a
// 4-shard ShardedAnalysisTier with its journal on, the event log and health
// sampler wired, and finalize() at the end. simMPI scheduling dominates
// this job; it is the workload a change to the engine should move.
#include <memory>
#include <optional>

#include "obs/events.hpp"
#include "obs/health.hpp"
#include "oracles.hpp"
#include "runtime/collector.hpp"
#include "workloads.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace e2e {
namespace {

using namespace vsensor;

constexpr int kRanks = 512;
constexpr int kBadNode = 1;  // ranks 24-47 at 24 ranks per node
constexpr int kBadBegin = 24;
constexpr int kBadEnd = 47;

struct Inputs {
  simmpi::Config cluster;
  workloads::RunOptions options;
  rt::DetectorConfig detector;
  double horizon = 0.0;  ///< the tier's analysis run time
};

Inputs make_inputs(const workloads::Workload& cg, uint64_t seed) {
  Inputs in;
  in.cluster = workloads::baseline_config(kRanks, mix_seed(seed, 1));
  workloads::inject_bad_node(in.cluster, kBadNode, 0.55);
  in.options.params.iterations = 1;
  in.options.params.scale = 0.25;
  in.options.params.seed = mix_seed(seed, 2);
  // Probe run without probes: its makespan is the tier's analysis horizon
  // (probes add under 0.01% virtual time, and the detector clamps records
  // past the horizon into the last bucket).
  auto plain = in.options;
  plain.instrumented = false;
  in.horizon = workloads::run_workload(cg, in.cluster, plain).makespan;
  in.detector.matrix_resolution = in.horizon / 25.0;
  return in;
}

/// How much of the pipeline a job variant wires up. Differential runs of
/// the same job attribute wall time to layers that cannot be wrapped from
/// outside (they run inside the 512 rank threads).
enum class Wiring { Plain, CollectorOnly, TierNoObs, Full };

struct Counts {
  uint64_t messages = 0;
  uint64_t records = 0;
  uint64_t batches = 0;
  uint64_t broadcasts = 0;
  uint64_t events_kept = 0;
  uint64_t events_dropped = 0;
  uint64_t health_snapshots = 0;
  uint64_t ingested = 0;
  double overhead_pct = 0.0;
};

uint64_t messages(const workloads::WorkloadRun& run) {
  uint64_t n = 0;
  for (const auto& r : run.mpi.ranks) n += r.messages;
  return n;
}

std::string job(const Args& args, const workloads::Workload& cg,
                const Inputs& in, Wiring wiring, Tracer* tr, Counts& counts) {
  auto options = in.options;
  rt::Collector collector;
  workloads::WorkloadRun run;
  if (wiring == Wiring::Plain || wiring == Wiring::CollectorOnly) {
    options.instrumented = wiring == Wiring::CollectorOnly;
    Scope s(tr, "workloads.run_workload");
    run = workloads::run_workload(cg, in.cluster, options,
                                  options.instrumented ? &collector : nullptr);
  }
  counts.messages = messages(run);
  if (wiring == Wiring::Plain) return "";
  if (wiring == Wiring::CollectorOnly) {
    counts.records = collector.ingested_records();
    counts.batches = collector.batch_count();
    return check_counts_equal("records analysed vs produced",
                              collector.ingested_records(),
                              run.transport_totals.records_delivered +
                                  run.transport_totals.records_lost);
  }

  const auto cfg = tier_config(args, in.detector);
  std::unique_ptr<rt::ShardedAnalysisTier> tier;
  {
    Scope s(tr, "tier.construct");
    tier = std::make_unique<rt::ShardedAnalysisTier>(cfg, cg.sensors(), kRanks,
                                                     in.horizon);
  }
  obs::EventLog events;
  obs::HealthSampler health(obs::HealthSamplerConfig{in.horizon / 64.0});
  options.analysis_tier = tier.get();
  if (wiring == Wiring::Full) {
    options.events = &events;
    options.health = &health;
  }
  {
    Scope s(tr, "workloads.run_workload");
    run = workloads::run_workload(cg, in.cluster, options, &collector);
  }
  std::optional<rt::AnalysisResult> result;
  {
    Scope s(tr, "tier.finalize");
    result.emplace(tier->finalize());
  }
  std::string why;
  {
    Scope s(tr, "oracle.check");
    uint64_t analysed = 0;
    for (int k = 0; k < tier->shard_count(); ++k) {
      analysed += tier->detector(k).observed_records();
    }
    why = check_ranks_flagged(*result, kBadBegin, kBadEnd);
    if (why.empty()) {
      why = check_counts_equal("records analysed vs produced", analysed,
                               run.transport_totals.records_delivered +
                                   run.transport_totals.records_lost);
    }
    counts.messages = messages(run);
    counts.records = run.transport_totals.records_delivered;
    counts.batches = run.transport_totals.batches_delivered;
    counts.broadcasts = tier->broadcast_updates();
    counts.events_kept = events.size();
    counts.events_dropped = events.dropped();
    counts.health_snapshots = health.snapshot_count();
    counts.ingested = analysed;
    counts.overhead_pct = virtual_overhead_pct(run.mpi);
  }
  {
    Scope s(tr, "tier.teardown");
    tier.reset();
    remove_tier_files(cfg);
  }
  return why;
}

}  // namespace

void run_cg_bad_node(const Args& args, Report& report) {
  const auto cg = workloads::make_workload("CG");
  Inputs in;
  report.set("setup_s", "s",
             timed_setup(5, in, [&] { return make_inputs(*cg, args.seed); }));
  report.note("ranks", std::to_string(kRanks));

  Counts counts;
  auto full = [&](Tracer* tr) {
    return job(args, *cg, in, Wiring::Full, tr, counts);
  };
  if (!args.trace) {
    std::vector<Variant> v{{"full", full}};
    run_rounds(args.seconds, 1, 5, report.tally, nullptr, v);
    const auto& s = v[0].series;
    report_jobs(report, s);
    report.set("virtual_overhead_pct", "%", counts.overhead_pct);
    report.set("ingest_rec_per_s", "rec/s",
               static_cast<double>(counts.ingested) / median(s.wall));
    return;
  }

  Tracer tracer;
  Counts plain_counts;
  Counts collector_counts;
  Counts tier_counts;
  std::vector<Variant> v{
      {"full", full},
      {"full_traced", full, true},
      {"plain",
       [&](Tracer* tr) {
         return job(args, *cg, in, Wiring::Plain, tr, plain_counts);
       },
       true},
      {"collector_only",
       [&](Tracer* tr) {
         return job(args, *cg, in, Wiring::CollectorOnly, tr, collector_counts);
       },
       true},
      {"tier_no_obs",
       [&](Tracer* tr) {
         return job(args, *cg, in, Wiring::TierNoObs, tr, tier_counts);
       },
       true},
  };
  run_rounds(args.seconds, 1, 2, report.tally, &tracer, v);
  const auto& untraced = v[0].series;
  const auto& traced = v[1].series;
  const auto& plain = v[2].series;
  const auto& coll = v[3].series;
  const auto& tier_only = v[4].series;
  const auto run_s = [&](const JobSeries& s) {
    return tracer.median_span_total(s.traced_jobs, "workloads.run_workload");
  };

  report_trace(report, args, tracer, untraced, traced);
  report.set("simmpi.plain_job_s", "s", median(plain.wall));
  report.set("simmpi.user_s", "s", median(plain.user));
  report.set("simmpi.sys_s", "s", median(plain.sys));
  report.set("simmpi.ctx_switches", "count", median(plain.ctx_switches));
  report.set("simmpi.messages", "count", static_cast<double>(plain_counts.messages));
  report.set("sensor.collect_overhead_s", "s", run_s(coll) - run_s(plain));
  report.set("sensor.records", "count", static_cast<double>(counts.records));
  report.set("sensor.batches", "count", static_cast<double>(counts.batches));
  report.set("tier.rank_thread_overhead_s", "s", run_s(tier_only) - run_s(coll));
  report.set("tier.finalize_s", "s",
             tracer.median_span_total(traced.traced_jobs, "tier.finalize"));
  report.set("tier.broadcast_updates", "count",
             static_cast<double>(counts.broadcasts));
  report.set("obs.overhead_s", "s", run_s(traced) - run_s(tier_only));
  report.set("obs.events_kept", "count", static_cast<double>(counts.events_kept));
  report.set("obs.events_dropped", "count",
             static_cast<double>(counts.events_dropped));
  report.set("obs.health_snapshots", "count",
             static_cast<double>(counts.health_snapshots));
}

}  // namespace e2e

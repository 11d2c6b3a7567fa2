// tier_replay: a SHA256 kernel stream captured in setup at 16 ranks under
// tenant interference is replayed from one thread: BatchTransport::ship
// into a 4-shard ShardedAnalysisTier, 32 records per batch, all ranks'
// batches interleaved in time order; then drain(), finalize(), a crash and
// recovery of shard 0, and a checkpoint of every shard. No simMPI work
// happens in the timed region: the tier, its journal and the transport
// are what this job measures.
#include <algorithm>
#include <memory>
#include <optional>
#include <span>

#include "oracles.hpp"
#include "runtime/collector.hpp"
#include "runtime/streaming_detector.hpp"
#include "runtime/transport.hpp"
#include "workloads.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace e2e {
namespace {

using namespace vsensor;

constexpr int kRanks = 16;
constexpr size_t kBatchRecords = 32;

struct Batch {
  int rank = 0;
  size_t begin = 0;  ///< offset into Inputs::records
  size_t size = 0;
  double now = 0.0;  ///< virtual arrival time: the batch's last t_end
};

struct Inputs {
  std::vector<rt::SensorInfo> sensors;
  std::vector<rt::SliceRecord> records;  ///< rank-major, time-ordered per rank
  std::vector<Batch> batches;            ///< global time order
  rt::DetectorConfig detector;
  double horizon = 0.0;
  double overhead_pct = 0.0;
  /// Single-detector reference result over the same delivery sequence.
  std::optional<rt::AnalysisResult> reference;

  std::span<const rt::SliceRecord> span(const Batch& b) const {
    return {records.data() + b.begin, b.size};
  }
};

Inputs make_inputs(uint64_t seed) {
  const auto sha = workloads::make_workload("SHA256");
  Inputs in;
  in.sensors = sha->sensors();
  workloads::RunOptions opts;
  opts.params.iterations = 2400;
  opts.params.scale = 1.0;
  opts.params.seed = mix_seed(seed, 3);
  // The tenant window is placed on the nominal (noise-free) run length:
  // 8 blocks of schedule + compress work per iteration at 1e9 units/s.
  const double nominal = opts.params.iterations * 8 * (1.5e5 + 8.0e5) / 1e9;
  auto cluster = workloads::baseline_config(kRanks, mix_seed(seed, 4));
  cluster.ranks_per_node = 4;
  workloads::inject_tenant_interference(cluster, 0, kRanks / 2 - 1,
                                        0.15 * nominal, 0.5 * nominal,
                                        mix_seed(seed, 5));
  rt::Collector capture;
  const auto run = workloads::run_workload(*sha, cluster, opts, &capture);
  in.horizon = run.makespan;
  in.overhead_pct = virtual_overhead_pct(run.mpi);
  in.detector.matrix_resolution = run.makespan / 25.0;

  in.records = capture.records();
  std::stable_sort(in.records.begin(), in.records.end(),
                   [](const rt::SliceRecord& a, const rt::SliceRecord& b) {
                     return a.rank != b.rank ? a.rank < b.rank
                                             : a.t_begin < b.t_begin;
                   });
  for (size_t i = 0; i < in.records.size();) {
    size_t n = 0;
    while (i + n < in.records.size() && n < kBatchRecords &&
           in.records[i + n].rank == in.records[i].rank) {
      ++n;
    }
    in.batches.push_back(Batch{in.records[i].rank, i, n, in.records[i + n - 1].t_end});
    i += n;
  }
  std::stable_sort(in.batches.begin(), in.batches.end(),
                   [](const Batch& a, const Batch& b) { return a.now < b.now; });

  rt::StreamingDetector ref(in.detector, in.sensors, kRanks, in.horizon);
  for (const auto& b : in.batches) ref.on_batch(in.span(b));
  in.reference.emplace(ref.finalize());
  return in;
}

/// Wraps the tier so a traced job sees each delivery's time inside it.
class TimedSink final : public rt::DeliverySink {
 public:
  TimedSink(rt::DeliverySink& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  void on_delivery(int rank, uint64_t seq, std::span<const rt::SliceRecord> batch,
                   double now) override {
    Scope s(tracer_, "tier.on_delivery");
    inner_.on_delivery(rank, seq, batch, now);
  }

 private:
  rt::DeliverySink& inner_;
  Tracer* tracer_;
};

/// Wraps a detector so a traced bare-collector replay sees the fold time.
class TimedBatchSink final : public rt::BatchSink {
 public:
  TimedBatchSink(rt::BatchSink& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  void on_batch(std::span<const rt::SliceRecord> batch) override {
    Scope s(tracer_, "streaming_detector.fold");
    inner_.on_batch(batch);
  }

 private:
  rt::BatchSink& inner_;
  Tracer* tracer_;
};

struct JobOut {
  std::vector<double> deliver_s;  ///< wall time of each ship() call, traced runs only
  double ingest_s = 0.0;          ///< ship loop + drain
  double recover_s = 0.0;
  uint64_t recover_frames = 0;
  uint64_t journal_bytes = 0;
  uint64_t journal_commits = 0;
  uint64_t broadcasts = 0;
};

std::string job(const Args& args, const Inputs& in, Tracer* tr, JobOut& out) {
  out = JobOut{};
  const auto cfg = tier_config(args, in.detector);
  std::unique_ptr<rt::ShardedAnalysisTier> tier;
  {
    Scope s(tr, "tier.construct");
    tier = std::make_unique<rt::ShardedAnalysisTier>(cfg, in.sensors, kRanks,
                                                     in.horizon);
  }
  TimedSink timed(*tier, tr);
  rt::DeliverySink* sink = tr != nullptr ? static_cast<rt::DeliverySink*>(&timed)
                                         : tier.get();
  std::string why;
  {
    rt::BatchTransport transport(sink, kRanks);
    // Ship latencies feed only the per-layer report, so an end-to-end run's
    // ship loop carries no clock reads of its own.
    if (args.trace) out.deliver_s.reserve(in.batches.size());
    const double t0 = now_s();
    for (const auto& b : in.batches) {
      const double s0 = args.trace ? now_s() : 0.0;
      bool shipped = false;
      {
        Scope s(tr, "transport.ship");
        shipped = transport.ship(b.rank, in.span(b), b.now);
      }
      if (args.trace) out.deliver_s.push_back(now_s() - s0);
      if (!shipped && why.empty()) why = "a batch was not delivered";
    }
    {
      Scope s(tr, "transport.drain");
      transport.drain();
    }
    out.ingest_s = now_s() - t0;
    const auto totals = transport.totals();
    if (why.empty() && totals.duplicates_suppressed != 0) {
      why = "transport suppressed duplicate deliveries";
    }
  }
  for (int k = 0; k < tier->shard_count(); ++k) {
    const auto* journal = tier->server(k).journal();
    out.journal_bytes += journal != nullptr ? journal->appended_bytes() : 0;
    out.journal_commits += journal != nullptr ? journal->commits() : 0;
  }
  out.broadcasts = tier->broadcast_updates();
  std::optional<rt::AnalysisResult> result;
  {
    Scope s(tr, "tier.finalize");
    result.emplace(tier->finalize());
  }
  {
    Scope s(tr, "oracle.check");
    if (why.empty()) why = check_bit_identical(*result, *in.reference);
    uint64_t duplicates = 0;
    for (int k = 0; k < tier->shard_count(); ++k) {
      duplicates += tier->server(k).duplicate_deliveries();
    }
    if (why.empty()) why = check_counts_equal("duplicate deliveries", duplicates, 0);
  }
  const uint64_t before = tier->detector(0).observed_records();
  {
    Scope s(tr, "server.crash_recover");
    const double t0 = now_s();
    tier->server(0).crash();
    out.recover_frames = tier->server(0).recover().frames_replayed;
    out.recover_s = now_s() - t0;
  }
  if (why.empty()) {
    why = check_counts_equal("shard 0 records after recovery",
                             tier->detector(0).observed_records(), before);
  }
  for (int k = 0; k < tier->shard_count(); ++k) {
    Scope s(tr, "server.checkpoint");
    tier->server(k).checkpoint();
  }
  {
    Scope s(tr, "tier.teardown");
    tier.reset();
    remove_tier_files(cfg);
  }
  return why;
}

/// The same delivery sequence into a bare Collector with the streaming
/// detector attached: what the tier's shards do minus routing, standards
/// exchange and durability.
std::string bare_job(const Inputs& in, Tracer* tr) {
  rt::Collector collector;
  collector.set_sensors(in.sensors);
  rt::StreamingDetector detector(in.detector, in.sensors, kRanks, in.horizon);
  TimedBatchSink timed(detector, tr);
  collector.attach_sink(&timed);
  for (const auto& b : in.batches) {
    Scope s(tr, "collector.ingest");
    collector.ingest(in.span(b));
  }
  return check_counts_equal("bare replay records", detector.observed_records(),
                            in.records.size());
}

}  // namespace

void run_tier_replay(const Args& args, Report& report) {
  Inputs in;
  report.set("setup_s", "s", timed_setup(5, in, [&] { return make_inputs(args.seed); }));
  report.note("records", std::to_string(in.records.size()));
  report.note("batches", std::to_string(in.batches.size()));

  JobOut out;
  std::vector<double> deliver;
  std::vector<double> ingest;
  std::vector<double> recover;
  auto full = [&](Tracer* tr) {
    const auto why = job(args, in, tr, out);
    if (tr == nullptr) {
      ingest.push_back(out.ingest_s);
      recover.push_back(out.recover_s);
      deliver.insert(deliver.end(), out.deliver_s.begin(), out.deliver_s.end());
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
    report.set("ingest_rec_per_s", "rec/s", records / median(ingest));
    return;
  }

  Tracer tracer;
  std::vector<Variant> v{
      {"full", full},
      {"full_traced", full, true},
      {"bare_collector", [&](Tracer* tr) { return bare_job(in, tr); }, true},
  };
  run_rounds(args.seconds, 1, 2, report.tally, &tracer, v);
  const auto& untraced = v[0].series;
  const auto& traced = v[1].series;
  const auto& bare = v[2].series;
  const double collector_s = tracer.median_layer_self(bare.traced_jobs, "collector");
  const double fold_s = tracer.median_layer_self(bare.traced_jobs, "streaming_detector");
  const double sink_s = tracer.median_span_total(traced.traced_jobs, "tier.on_delivery");

  report_trace(report, args, tracer, untraced, traced);
  report.set("tier.finalize_s", "s",
             tracer.median_span_total(traced.traced_jobs, "tier.finalize"));
  report.set("tier.broadcast_updates", "count", static_cast<double>(out.broadcasts));
  report.set("transport.self_s", "s",
             tracer.median_layer_self(traced.traced_jobs, "transport"));
  report.note("ship calls timed", std::to_string(deliver.size()));
  report.set("transport.deliver_p50_us", "us", percentile(deliver, 50.0) * 1e6);
  report.set("transport.deliver_p99_us", "us", percentile(deliver, 99.0) * 1e6);
  report.set("collector.ingest_s", "s", collector_s);
  report.set("streaming_detector.fold_s", "s", fold_s);
  report.set("server.durability_s", "s", sink_s - collector_s - fold_s);
  report.set("server.journal_bytes", "bytes", static_cast<double>(out.journal_bytes));
  report.set("server.journal_commits", "count", static_cast<double>(out.journal_commits));
  report.set("server.checkpoint_s", "s",
             tracer.median_span_total(traced.traced_jobs, "server.checkpoint"));
  report.set("server.recover_s", "s", median(recover));
  report.set("server.recover_frames", "count", static_cast<double>(out.recover_frames));
}

}  // namespace e2e

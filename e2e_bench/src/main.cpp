// e2e_bench — the vSensor end-to-end benchmark.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//   e2e_bench --list-metrics
//
// Prints a human-readable table of the run's settings and metrics, then as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. With --trace 0 the metrics are the
// end-to-end catalog below, measured on untraced jobs; with --trace 1 they
// are the per-layer catalog, from traced jobs and differential variants.
// Exit code 0 means the run completed; whether every job's output was
// correct is reported in the JSON.
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

struct Entry {
  const char* name;
  const char* unit;
};

// Reported by every workload with --trace 0. Each is nonzero on every
// workload; see README.md for how each workload defines it.
constexpr Entry kEndToEnd[] = {
    {"job_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
    {"virtual_overhead_pct", "%"},
    {"ingest_rec_per_s", "rec/s"},
};

// Reported by every workload with --trace 1; a layer a workload bypasses
// reads 0 there.
constexpr Entry kPerLayer[] = {
    {"proc.user_s", "s"},
    {"proc.sys_s", "s"},
    {"trace.overhead_s", "s"},
    {"unattributed_s", "s"},
    {"simmpi.plain_job_s", "s"},
    {"simmpi.user_s", "s"},
    {"simmpi.sys_s", "s"},
    {"simmpi.ctx_switches", "count"},
    {"simmpi.messages", "count"},
    {"sensor.collect_overhead_s", "s"},
    {"sensor.records", "count"},
    {"sensor.batches", "count"},
    {"tier.rank_thread_overhead_s", "s"},
    {"tier.finalize_s", "s"},
    {"tier.broadcast_updates", "count"},
    {"obs.overhead_s", "s"},
    {"obs.events_kept", "count"},
    {"obs.events_dropped", "count"},
    {"obs.health_snapshots", "count"},
    {"transport.self_s", "s"},
    {"transport.deliver_p50_us", "us"},
    {"transport.deliver_p99_us", "us"},
    {"collector.ingest_s", "s"},
    {"streaming_detector.fold_s", "s"},
    {"server.durability_s", "s"},
    {"server.journal_bytes", "bytes"},
    {"server.journal_commits", "count"},
    {"server.checkpoint_s", "s"},
    {"server.recover_s", "s"},
    {"server.recover_frames", "count"},
    {"session_io.export_s", "s"},
    {"session_io.save_rec_per_s", "rec/s"},
    {"session_io.load_rec_per_s", "rec/s"},
    {"session_io.bytes_per_record", "bytes"},
    {"detector.analyze_s", "s"},
    {"report.render_s", "s"},
    {"static.compile_s", "s"},
    {"analysis.snippets", "count"},
    {"analysis.selected", "count"},
    {"interp.run_s", "s"},
    {"interp.probe_overhead_s", "s"},
};

struct WorkloadEntry {
  const char* name;
  void (*run)(const Args&, Report&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"cg_bad_node", run_cg_bad_node},
    {"tier_replay", run_tier_replay},
    {"offline_report", run_offline_report},
    {"minic_stencil", run_minic_stencil},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\n"
               "usage: e2e_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n"
               "       e2e_bench --list-metrics\n",
               why);
  std::exit(2);
}

void list_metrics() {
  std::printf("workloads:");
  for (const auto& w : kWorkloads) std::printf(" %s", w.name);
  std::printf("\nend_to_end:");
  for (const auto& e : kEndToEnd) std::printf(" %s:%s", e.name, e.unit);
  std::printf("\nper_layer:");
  for (const auto& e : kPerLayer) std::printf(" %s:%s", e.name, e.unit);
  std::printf("\n");
}

Args parse(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed takes an integer");
      have[1] = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) usage("--seconds takes a positive number");
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have[3] = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  for (bool h : have) {
    if (!h) usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    list_metrics();
    return 0;
  }
  const Args args = parse(argc, argv);
  const WorkloadEntry* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());
  if (mkdir(args.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "e2e_bench: cannot create %s\n", args.work_dir.c_str());
    return 1;
  }
  // The library's self-telemetry registry stays off, whatever the
  // environment says: the benchmark measures the default configuration.
  vsensor::obs::set_enabled(false);

  Report report;
  report.note("cpus allowed", std::to_string(allowed_cpus()) + " (" + allowed_cpu_list() + ")");
  // Benchmark setting: the whole run, every simulated rank thread included,
  // shares one CPU. On a shared 4-vCPU host the thread-per-rank simulator's
  // wall time was bimodal when its threads spread over all CPUs (a
  // descheduled vCPU stalls every rank waiting on the shared mutex); on one
  // CPU that amplification is gone and run-to-run spread is what remains.
  const int cpu = pin_to_one_cpu();
  if (cpu < 0) {
    std::fprintf(stderr, "e2e_bench: cannot pin to one CPU\n");
    return 1;
  }
  report.note("pinned to cpu", std::to_string(cpu));
  workload->run(args, report);
  report.set("peak_rss_mb", "MB", peak_rss_mb());

  // Exactly the catalog of this mode, in catalog order.
  std::vector<Metric> out;
  bool complete = true;
  const Entry* begin = args.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const Entry* end = args.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const Entry* e = begin; e != end; ++e) {
    const Metric* m = report.find(e->name);
    if (m == nullptr && !args.trace) {
      std::fprintf(stderr, "e2e_bench: %s did not measure %s\n",
                   args.workload.c_str(), e->name);
      complete = false;
    }
    out.push_back(Metric{e->name, e->unit, m != nullptr ? m->value : 0.0});
  }
  for (const auto& m : out) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "e2e_bench: %s is not finite\n", m.name.c_str());
      complete = false;
    }
  }
  if (!complete || report.tally.attempted == 0) return 1;

  const auto& tally = report.tally;
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  for (const auto& [k, v] : report.notes) std::printf("  %-28s %s\n", k.c_str(), v.c_str());
  std::printf("  %-28s %llu / %llu\n", "failed / attempted jobs",
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  std::printf("  %-28s %.6g fraction\n", "error_rate",
              static_cast<double>(tally.failed) / static_cast<double>(tally.attempted));
  for (const auto& m : out) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!tally.first_failure.empty()) {
    std::printf("  first failure: %s\n", tally.first_failure.c_str());
  }

  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + json_number(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

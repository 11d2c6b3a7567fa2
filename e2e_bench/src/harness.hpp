// Shared machinery of the end-to-end benchmark: clocks and rusage, the
// order statistics every metric is reported with, the span recorder the
// traced run analyses, the job loop with its failure accounting, and the
// metric report printed as the run's last line.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

// ------------------------------------------------------------ clocks / OS

/// Monotonic wall clock in seconds.
double now_s();

struct CpuSample {
  double user = 0.0;  ///< seconds of user CPU, all threads of the process
  double sys = 0.0;   ///< seconds of system CPU, all threads
  long ctx_switches = 0;  ///< voluntary + involuntary context switches
};
CpuSample cpu_now();

/// Process high-water resident set size in MB.
double peak_rss_mb();

/// Cores this process may run on (sched_getaffinity) and the list itself,
/// e.g. "0-3".
int allowed_cpus();
std::string allowed_cpu_list();
/// Restrict this thread, and every thread it creates afterwards, to the
/// highest-numbered CPU it may run on (CPU 0 usually takes the most
/// interrupts). Returns that CPU, or -1 on failure.
int pin_to_one_cpu();

// ------------------------------------------------------- order statistics

/// Median as Python's statistics.median computes it. Empty input -> 0.
double median(std::vector<double> v);
/// Quartiles as Python's statistics.quantiles(v, n=4) computes them (the
/// default "exclusive" method). Needs at least two values.
std::vector<double> quartiles(std::vector<double> v);
/// Percentile p in [0, 100] by linear interpolation between closest ranks
/// (numpy's default). Empty input -> 0.
double percentile(std::vector<double> v, double p);

// ------------------------------------------------------------------ spans

/// One timed call from the benchmark into a library module. The layer is
/// the name's prefix up to the first '.', e.g. "tier.finalize" -> "tier";
/// the root span of each job is named "job".
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index into the recorder's span list, -1 = root
  int job = -1;
};

/// In-memory span recorder. A span is appended when it opens, so parents
/// precede their children, and is closed in place; the list is written out
/// once at the end of the run.
class Tracer {
 public:
  Tracer();
  void set_job(int job) { job_ = job; }
  int job() const { return job_; }
  int open(const char* name);
  void close(int id);
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the time its direct
  /// children cover (children of one span never overlap: the benchmark
  /// drives each job from one thread).
  std::vector<double> self_times() const;
  /// job id -> layer -> summed self time of that layer's spans.
  std::map<int, std::map<std::string, double>> layer_self_by_job() const;
  /// Median over `jobs` of one layer's per-job self time (a job without
  /// spans of that layer counts 0).
  double median_layer_self(const std::vector<int>& jobs,
                           const std::string& layer) const;
  /// Median over `jobs` of the summed duration of spans named `name`.
  double median_span_total(const std::vector<int>& jobs,
                           const std::string& name) const;

  /// JSON lines: {"name","start","end","parent","job"} per span, times in
  /// seconds since the recorder was created. Per-call spans repeat tens of
  /// thousands of times per job, so only the first `max_per_name` spans of
  /// each name in each job are written; the rest are summarized in one
  /// {"name","job","omitted","omitted_s"} line per name and job. The metrics
  /// use every span. Returns false on I/O error.
  bool write_jsonl(const std::string& path, size_t max_per_name = 1000) const;

 private:
  double epoch_;
  int job_ = -1;
  int current_ = -1;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op, so untraced jobs run the
/// same code with no recording.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// --------------------------------------------------------------- job loop

/// Per-job measurements of one job variant.
struct JobSeries {
  std::vector<double> wall;
  std::vector<double> cpu;  ///< user + sys
  std::vector<double> user;
  std::vector<double> sys;
  std::vector<double> ctx_switches;
  std::vector<int> traced_jobs;  ///< tracer job ids of the recorded jobs
};

/// Attempted/failed accounting shared by every job the run executes.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
};

/// A job body: returns "" when the output passed its oracle. A non-null
/// tracer means the job is traced and should open spans around its calls.
using JobFn = std::function<std::string(Tracer*)>;

/// One way of running a workload's job, measured on its own.
struct Variant {
  Variant(const char* name, JobFn fn, bool traced = false)
      : name(name), fn(std::move(fn)), traced(traced) {}
  const char* name;
  JobFn fn;
  bool traced;
  JobSeries series;
};

/// Run `warmup` discarded jobs of variants[0], then rounds over all
/// variants in turn (interleaved, so drift hits every variant alike) until
/// `seconds` have passed and at least `min_rounds` rounds are done.
void run_rounds(double seconds, int warmup, int min_rounds, Tally& tally,
                Tracer* tracer, std::vector<Variant>& variants);

/// "q1 / median / q3" of a series, for the run's human-readable notes.
std::string spread_note(const std::vector<double>& v);

struct Report;
struct Args;
/// job_s, cpu_s and the job_s spread note from an untraced series.
void report_jobs(Report& report, const JobSeries& jobs);
/// The per-layer metrics every workload reports (proc.user_s, proc.sys_s,
/// trace.overhead_s, unattributed_s), then the spans file is written.
void report_trace(Report& report, const Args& args, const Tracer& tracer,
                  const JobSeries& untraced, const JobSeries& traced);

/// Time `make` `reps` times and return the median wall time; `keep`
/// receives the last repetition's product (the run's inputs). The previous
/// product is released before each repetition, untimed, so two sets of
/// inputs never coexist and the peak RSS is that of one.
template <class T, class Make>
double timed_setup(int reps, T& keep, Make&& make) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    keep = T{};
    const double t0 = now_s();
    T made = make();
    times.push_back(now_s() - t0);
    keep = std::move(made);
  }
  return median(times);
}

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run reports: the metrics plus the job accounting.
struct Report {
  Tally tally;
  std::vector<Metric> metrics;
  /// Run settings printed beside the result (CPU set, sizes, counts).
  std::vector<std::pair<std::string, std::string>> notes;

  void set(const std::string& name, const std::string& unit, double value);
  void note(const std::string& key, const std::string& value);
  const Metric* find(const std::string& name) const;
};

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for journals, sessions and span files (inside the checkout).
  std::string work_dir = ".bench_work";
};

/// Per-workload scratch path under the work directory.
std::string work_path(const Args& args, const std::string& leaf);

/// splitmix64: seeds every generated input from the run's --seed.
uint64_t mix_seed(uint64_t seed, uint64_t salt);

}  // namespace e2e

#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>

namespace e2e {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

CpuSample cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  CpuSample s;
  s.user = tv_seconds(ru.ru_utime);
  s.sys = tv_seconds(ru.ru_stime);
  s.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string allowed_cpu_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "?";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    int last = c;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ",";
    out += std::to_string(c);
    if (last > c) {
      out += '-';
      out += std::to_string(last);
    }
    c = last;
  }
  return out;
}

int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &set)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? c : -1;
  }
  return -1;
}

// ------------------------------------------------------- order statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::vector<double> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need two values");
  std::sort(v.begin(), v.end());
  // statistics.quantiles(method="exclusive"): m = len + 1, and the i-th
  // cut point interpolates between 1-based positions j and j + 1 where
  // j = floor(i * m / n), clamped to [1, len - 1].
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  const long n = 4;
  std::vector<double> out;
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    out.push_back((v[static_cast<size_t>(j - 1)] * static_cast<double>(n - delta) +
                   v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                  static_cast<double>(n));
  }
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string spread_note(const std::vector<double>& v) {
  if (v.size() < 2) return "n/a";
  const auto q = quartiles(v);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.4g / %.4g / %.4g (n=%zu)", q[0], q[1], q[2],
                v.size());
  return buf;
}

// ------------------------------------------------------------------ spans

Tracer::Tracer() : epoch_(now_s()) {}

int Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.start = now_s();
  s.parent = current_;
  s.job = job_;
  spans_.push_back(s);
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int id) {
  auto& s = spans_[static_cast<size_t>(id)];
  s.end = now_s();
  current_ = s.parent;
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const auto& s : spans_) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end - s.start;
  }
  return self;
}

namespace {
std::string layer_of(const char* name) {
  const std::string n(name);
  return n.substr(0, n.find('.'));
}
}  // namespace

std::map<int, std::map<std::string, double>> Tracer::layer_self_by_job() const {
  const auto self = self_times();
  std::map<int, std::map<std::string, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].job][layer_of(spans_[i].name)] += self[i];
  }
  return out;
}

double Tracer::median_layer_self(const std::vector<int>& jobs,
                                 const std::string& layer) const {
  const auto by_job = layer_self_by_job();
  std::vector<double> v;
  for (int j : jobs) {
    const auto it = by_job.find(j);
    double x = 0.0;
    if (it != by_job.end()) {
      const auto l = it->second.find(layer);
      if (l != it->second.end()) x = l->second;
    }
    v.push_back(x);
  }
  return median(v);
}

double Tracer::median_span_total(const std::vector<int>& jobs,
                                 const std::string& name) const {
  std::map<int, double> total;
  for (int j : jobs) total[j] = 0.0;
  for (const auto& s : spans_) {
    auto it = total.find(s.job);
    if (it != total.end() && name == s.name) it->second += s.end - s.start;
  }
  std::vector<double> v;
  for (const auto& [j, t] : total) v.push_back(t);
  return median(v);
}

bool Tracer::write_jsonl(const std::string& path, size_t max_per_name) const {
  std::ofstream out(path);
  if (!out) return false;
  struct Omitted {
    size_t written = 0;
    size_t omitted = 0;
    double seconds = 0.0;
  };
  std::map<std::pair<int, std::string>, Omitted> per_name;
  char buf[256];
  for (const auto& s : spans_) {
    auto& o = per_name[{s.job, s.name}];
    if (o.written == max_per_name) {
      ++o.omitted;
      o.seconds += s.end - s.start;
      continue;
    }
    ++o.written;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d,\"job\":%d}\n",
                  s.name, s.start - epoch_, s.end - epoch_, s.parent, s.job);
    out << buf;
  }
  for (const auto& [key, o] : per_name) {
    if (o.omitted == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"job\":%d,\"omitted\":%zu,"
                  "\"omitted_s\":%.9f}\n",
                  key.second.c_str(), key.first, o.omitted, o.seconds);
    out << buf;
  }
  out.flush();
  return static_cast<bool>(out);
}

// --------------------------------------------------------------- job loop

namespace {

/// Run one job: `fn` returns "" when the job's output passed its oracle,
/// otherwise the reason. A throw (including simMPI's deadlock timeout)
/// also fails the job. Failures are counted, never fatal. When `series`
/// is non-null the job's wall and CPU times are appended to it; when
/// `tracer` is non-null the job is wrapped in a root "job" span.
void run_job(Tally& tally, JobSeries* series, Tracer* tracer, const JobFn& fn) {
  static int next_job = 0;  // tracer job ids are unique across variants
  const int job_id = next_job++;
  if (tracer != nullptr) tracer->set_job(job_id);
  ++tally.attempted;
  std::string why;
  const CpuSample c0 = cpu_now();
  const double t0 = now_s();
  {
    Scope root(tracer, "job");
    try {
      why = fn(tracer);
    } catch (const std::exception& e) {
      why = std::string("exception: ") + e.what();
    }
  }
  const double t1 = now_s();
  const CpuSample c1 = cpu_now();
  if (!why.empty()) {
    ++tally.failed;
    if (tally.first_failure.empty()) tally.first_failure = why;
    std::fprintf(stderr, "job %d failed: %s\n", job_id, why.c_str());
  }
  if (series != nullptr) {
    series->wall.push_back(t1 - t0);
    series->user.push_back(c1.user - c0.user);
    series->sys.push_back(c1.sys - c0.sys);
    series->cpu.push_back((c1.user - c0.user) + (c1.sys - c0.sys));
    series->ctx_switches.push_back(
        static_cast<double>(c1.ctx_switches - c0.ctx_switches));
    if (tracer != nullptr) series->traced_jobs.push_back(job_id);
  }
}

}  // namespace

void run_rounds(double seconds, int warmup, int min_rounds, Tally& tally,
                Tracer* tracer, std::vector<Variant>& variants) {
  for (int i = 0; i < warmup; ++i) run_job(tally, nullptr, nullptr, variants[0].fn);
  const double t0 = now_s();
  for (int round = 0; round < min_rounds || now_s() - t0 < seconds; ++round) {
    for (auto& v : variants) {
      run_job(tally, &v.series, v.traced ? tracer : nullptr, v.fn);
    }
  }
  for (const auto& v : variants) {
    std::fprintf(stderr, "variant %-16s job_s %s\n", v.name,
                 spread_note(v.series.wall).c_str());
  }
}

// ----------------------------------------------------------------- report

void Report::set(const std::string& name, const std::string& unit,
                 double value) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m.unit = unit;
      m.value = value;
      return;
    }
  }
  metrics.push_back(Metric{name, unit, value});
}

void Report::note(const std::string& key, const std::string& value) {
  notes.emplace_back(key, value);
}

const Metric* Report::find(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void report_jobs(Report& report, const JobSeries& jobs) {
  report.set("job_s", "s", median(jobs.wall));
  report.set("cpu_s", "s", median(jobs.cpu));
  report.note("job_s q1/median/q3", spread_note(jobs.wall));
}

void report_trace(Report& report, const Args& args, const Tracer& tracer,
                  const JobSeries& untraced, const JobSeries& traced) {
  report.set("proc.user_s", "s", median(traced.user));
  report.set("proc.sys_s", "s", median(traced.sys));
  report.set("trace.overhead_s", "s", median(traced.wall) - median(untraced.wall));
  report.set("unattributed_s", "s", tracer.median_layer_self(traced.traced_jobs, "job"));
  const std::string path = work_path(args, "spans.jsonl");
  report.note("spans", tracer.write_jsonl(path) ? path : "write failed: " + path);
}

std::string work_path(const Args& args, const std::string& leaf) {
  return args.work_dir + "/" + args.workload + "." + leaf;
}

uint64_t mix_seed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace e2e

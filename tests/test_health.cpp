// Live health plane: periodic virtual-time health snapshots, the
// structured event log, and the crash flight recorder.
//
// Pins the plane's three contracts:
//  * determinism — a fixed delivery order renders byte-identical health
//    and event JSONL across reruns, because sampling is virtual-time
//    driven and every gauge is a virtual-time/count/byte quantity;
//  * zero interference — a tier with the full plane wired produces
//    byte-identical detection output to a bare tier on the same stream;
//  * crash forensics — a deterministic shard crash leaves a flight dump
//    that the report renderers can read back.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/health.hpp"
#include "obs/identity.hpp"
#include "obs/jsonw.hpp"
#include "report/render.hpp"
#include "report/report.hpp"
#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/sharded_tier.hpp"
#include "runtime/streaming_detector.hpp"
#include "runtime/transport.hpp"
#include "support/rng.hpp"

namespace vsensor::rt {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "vsensor_health_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

SliceRecord make_record(int sensor, int rank, double t, double avg,
                        double metric = 0.0) {
  SliceRecord r;
  r.sensor_id = sensor;
  r.rank = rank;
  r.t_begin = t;
  r.t_end = t + 1e-3;
  r.avg_duration = avg;
  r.min_duration = avg;
  r.count = 1;
  r.metric = static_cast<float>(metric);
  return r;
}

std::vector<SensorInfo> two_sensors() {
  return {{"comp", SensorType::Computation, "f.c", 1},
          {"net", SensorType::Network, "f.c", 2}};
}

DetectorConfig tight_cfg() {
  DetectorConfig cfg;
  cfg.matrix_resolution = 1e-3;
  cfg.metric_bucket_width = 0.5;
  cfg.min_records = 1;
  return cfg;
}

struct Delivery {
  int rank;
  uint64_t seq;
  std::vector<SliceRecord> records;
  double now;
};

/// Deterministic time-ordered stream: per-rank sequential batches merged
/// into one global ascending-time order, so replaying it is exactly the
/// sequential harness the determinism contract is stated for.
std::vector<Delivery> make_stream(uint64_t seed, int ranks, double T) {
  Rng rng(seed);
  std::vector<Delivery> stream;
  constexpr int kBatches = 8;
  std::vector<uint64_t> seq(static_cast<size_t>(ranks), 0);
  for (int b = 0; b < kBatches; ++b) {
    for (int rank = 0; rank < ranks; ++rank) {
      Delivery d;
      d.rank = rank;
      d.seq = seq[static_cast<size_t>(rank)]++;
      const double t0 = T * static_cast<double>(b) / kBatches +
                        1e-4 * static_cast<double>(rank);
      const int n = 2 + static_cast<int>(rng.next_below(3));
      for (int i = 0; i < n; ++i) {
        const int sensor = static_cast<int>(rng.next_below(2));
        double avg =
            1e-4 * (1.0 + 0.1 * static_cast<double>(rng.next_below(10)));
        if (rng.next_below(5) == 0) avg *= 2.5;
        const double metric = rng.next_below(4) == 0 ? 0.9 : 0.1;
        d.records.push_back(
            make_record(sensor, rank, t0 + 1e-5 * i, avg, metric));
      }
      d.now = d.records.back().t_end;
      stream.push_back(std::move(d));
    }
  }
  return stream;
}

obs::RunIdentity test_identity() {
  obs::RunIdentity id;
  id.tool = "test_health";
  id.seed = 42;
  id.config = "synthetic x4";
  id.record_layout_bytes = kRecordWireBytes;
  return id;
}

/// Replay the stream through an N-shard tier with the full health plane
/// wired; returns (health JSONL, events JSONL, matrices CSV).
struct PlaneRun {
  std::string health;
  std::string events;
  std::string csv;
};

PlaneRun run_with_plane(const std::vector<Delivery>& stream, int ranks,
                        double T, const std::string& tag,
                        std::vector<double> crash_times = {}) {
  ShardedTierConfig tcfg;
  tcfg.shards = 2;
  tcfg.journal_path = tmp_path(tag + ".journal");
  tcfg.checkpoint_path = tmp_path(tag + ".ckpt");
  tcfg.checkpoint_every_batches = 8;
  tcfg.detector = tight_cfg();
  ShardedAnalysisTier tier(tcfg, two_sensors(), ranks, T);
  if (!crash_times.empty()) tier.set_crash_plan(0, crash_times, 0xC0DE);

  const auto id = test_identity();
  obs::EventLog events;
  obs::HealthSampler health(obs::HealthSamplerConfig{T / 16.0, 1024});
  tier.set_event_log(&events);
  tier.set_run_identity(id);
  health.add_source("tier", &tier);

  for (const auto& d : stream) {
    tier.on_delivery(d.rank, d.seq, d.records, d.now);
    health.maybe_sample(d.now);
  }
  health.sample_now(T);

  PlaneRun out;
  {
    std::ostringstream h;
    health.write_jsonl(h, &id);
    out.health = h.str();
    std::ostringstream e;
    events.write_jsonl(e, &id);
    out.events = e.str();
  }
  const auto analysis = tier.finalize();
  for (const auto& m : analysis.matrices) out.csv += report::render_csv(m);
  for (int k = 0; k < tier.shard_count(); ++k) {
    const auto& scfg = tier.server(k).config();
    std::remove(scfg.journal_path.c_str());
    std::remove(scfg.checkpoint_path.c_str());
  }
  return out;
}

// --- recorder / prefix ------------------------------------------------------

TEST(HealthRecorder, PrefixesNestAndKeysSort) {
  obs::HealthRecorder rec;
  rec.gauge("z", 1.0);
  {
    obs::HealthRecorder::Prefix outer(rec, "tier");
    rec.gauge("shards", 2);
    {
      obs::HealthRecorder::Prefix inner(rec, "shard0");
      rec.gauge("lag", 0.5);
    }
    rec.gauge("routed", uint64_t{7});
  }
  rec.gauge("a", 2.0);

  const auto& g = rec.gauges();
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.at("z"), 1.0);
  EXPECT_DOUBLE_EQ(g.at("tier.shards"), 2.0);
  EXPECT_DOUBLE_EQ(g.at("tier.shard0.lag"), 0.5);
  EXPECT_DOUBLE_EQ(g.at("tier.routed"), 7.0);
  EXPECT_DOUBLE_EQ(g.at("a"), 2.0);
  // std::map iterates name-sorted — the render-order stability guarantee.
  EXPECT_EQ(g.begin()->first, "a");
}

// --- transport gauges under elastic joins -----------------------------------

// Regression (elastic ranks): a mid-run joiner's channel-lag gauge must age
// from the channel's first_seen (the rejoin time), not from t=0, and a
// joiner that has not delivered yet must not drag watermark_min to zero
// and inflate watermark_skew.
TEST(TransportHealth, ElasticJoinerAgesFromFirstSeenNotTimeZero) {
  Collector collector;
  BatchTransport transport(&collector, 3);
  // Rank 2 never delivered; its first contact is the rejoin at t=5.
  const int joiner = 2;
  EXPECT_FALSE(transport.rejoin_rank(joiner, /*now=*/5.0));
  EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, 5.5, 2e-4)}}, 5.5));
  EXPECT_TRUE(transport.ship(1, {{make_record(0, 1, 5.5, 2e-4)}}, 5.5));

  obs::HealthRecorder rec;
  transport.sample_health(/*now=*/6.0, rec);
  const auto& g = rec.gauges();
  EXPECT_DOUBLE_EQ(g.at("ranks_never_delivered"), 1.0);
  // The joiner has been silent for 1.0s since first contact at t=5 — not
  // for the 6.0s a t=0 birth would imply.
  EXPECT_DOUBLE_EQ(g.at("lag_max"), 1.0);
  EXPECT_DOUBLE_EQ(g.at("lag_max_rank"), 2.0);
  EXPECT_DOUBLE_EQ(g.at("lag_mean"), (0.5 + 0.5 + 1.0) / 3.0);
  // Both delivering ranks sit at watermark 1; the joiner has no watermark
  // yet and must not register as contiguous=0.
  EXPECT_DOUBLE_EQ(g.at("watermark_min"), 1.0);
  EXPECT_DOUBLE_EQ(g.at("watermark_skew"), 0.0);
}

// A rejoined rank's watermark gauge reads within its current incarnation:
// the generation bits in the raw contiguous value are masked off, so one
// rejoin does not report a 2^48-sized watermark skew.
TEST(TransportHealth, RejoinedRankWatermarkMasksGeneration) {
  Collector collector;
  BatchTransport transport(&collector, 2);
  EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, 1.0, 2e-4)}}, 1.0));
  EXPECT_TRUE(transport.ship(1, {{make_record(0, 1, 1.0, 2e-4)}}, 1.0));

  transport.rejoin_rank(0, 2.0);
  EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, 2.1, 2e-4)}}, 2.1));

  obs::HealthRecorder rec;
  transport.sample_health(/*now=*/2.2, rec);
  const auto& g = rec.gauges();
  EXPECT_DOUBLE_EQ(g.at("watermark_min"), 1.0);
  EXPECT_DOUBLE_EQ(g.at("watermark_skew"), 0.0);
}

// --- event log --------------------------------------------------------------

TEST(EventLog, BoundedWithDropAccounting) {
  obs::EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    obs::Event e;
    e.kind = obs::EventKind::VarianceFlag;
    e.t = static_cast<double>(i);
    log.emit(e);
  }
  // Oldest events are retained: trouble's onset matters more than the
  // steady state that followed.
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_EQ(log.total_emitted(), 10u);
  const auto events = log.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events.front().t, 0.0);
  EXPECT_DOUBLE_EQ(events.back().t, 3.0);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLog, HooksStampShardAndCount) {
  obs::EventLog log;
  obs::FlightRecorder flight(8);
  obs::EventHooks hooks{&log, &flight, 3};
  obs::Event e;
  e.kind = obs::EventKind::Crash;
  e.t = 1.5;
  hooks.emit(e);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.events()[0].shard, 3);  // stamped by the hooks
  EXPECT_EQ(log.count(obs::EventKind::Crash), 1u);
  EXPECT_EQ(log.count(obs::EventKind::Recovery), 0u);
  EXPECT_EQ(flight.size(), 1u);  // teed into the flight ring, pre-rendered
  EXPECT_NE(flight.lines()[0].find("\"crash\""), std::string::npos);

  // Disengaged hooks are a no-op and test false.
  obs::EventHooks none;
  EXPECT_FALSE(static_cast<bool>(none));
  none.emit(e);
  EXPECT_EQ(log.size(), 1u);
}

TEST(EventLog, JsonlCarriesIdentityHeader) {
  obs::EventLog log;
  obs::Event e;
  e.kind = obs::EventKind::StandardUpdate;
  e.t = 0.25;
  e.sensor = 1;
  e.has_group = true;
  e.group = 2;
  e.value = 3.5e-4;
  log.emit(e);

  std::ostringstream out;
  const auto id = test_identity();
  log.write_jsonl(out, &id);
  const std::string text = out.str();
  EXPECT_NE(text.find("{\"schema\":\"vsensor-events/1\""), std::string::npos);
  EXPECT_NE(text.find("\"tool\":\"test_health\""), std::string::npos);
  EXPECT_NE(text.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"standard_update\""), std::string::npos);
  EXPECT_NE(text.find("\"group\":2"), std::string::npos);
}

// --- flight recorder --------------------------------------------------------

TEST(FlightRecorder, RingRetainsNewestAndDumps) {
  obs::FlightRecorder flight(3);
  for (int i = 0; i < 7; ++i) {
    flight.push("{\"line\":" + std::to_string(i) + "}");
  }
  // Unlike the event log, the flight ring keeps the *newest* lines — it is
  // the last-N-things-before-death record.
  EXPECT_EQ(flight.size(), 3u);
  EXPECT_EQ(flight.total_pushed(), 7u);
  const auto lines = flight.lines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines.front(), "{\"line\":4}");
  EXPECT_EQ(lines.back(), "{\"line\":6}");

  const std::string path = tmp_path("flight_dump");
  const auto id = test_identity();
  ASSERT_TRUE(flight.dump(path, &id));
  const std::string text = slurp(path);
  EXPECT_NE(text.find("{\"schema\":\"vsensor-flight/1\""), std::string::npos);
  EXPECT_NE(text.find("{\"line\":6}"), std::string::npos);
  EXPECT_EQ(text.find("{\"line\":3}"), std::string::npos);

  const std::string rendered = report::render_flight_file(path);
  EXPECT_NE(rendered.find("3 of 7 pushes retained"), std::string::npos);
  std::remove(path.c_str());
}

// --- sampler ----------------------------------------------------------------

namespace {
/// Source whose gauges are a pure function of `now` — the determinism
/// contract in miniature.
class FakeSource final : public obs::HealthSource {
 public:
  void sample_health(double now, obs::HealthRecorder& rec) const override {
    rec.gauge("now", now);
    rec.gauge("samples", ++samples_);
  }
  mutable uint64_t samples_ = 0;
};
}  // namespace

TEST(HealthSampler, OneSnapshotPerCrossedBoundary) {
  FakeSource src;
  obs::HealthSampler sampler(obs::HealthSamplerConfig{1.0, 1024});
  sampler.add_source("src", &src);

  EXPECT_FALSE(sampler.maybe_sample(0.5));  // before the first boundary
  EXPECT_TRUE(sampler.maybe_sample(1.0));   // crossing fires
  EXPECT_FALSE(sampler.maybe_sample(1.2));  // same interval: no re-fire
  // A long gap yields one catch-up snapshot, never a burst.
  EXPECT_TRUE(sampler.maybe_sample(7.3));
  EXPECT_FALSE(sampler.maybe_sample(7.9));
  EXPECT_TRUE(sampler.maybe_sample(8.0));
  EXPECT_EQ(sampler.snapshot_count(), 3u);

  // Virtual time going backwards (per-rank sequential replay) never fires.
  EXPECT_FALSE(sampler.maybe_sample(2.0));
  EXPECT_EQ(sampler.snapshot_count(), 3u);

  sampler.sample_now(8.5);  // unconditional end-of-run sample
  EXPECT_EQ(sampler.snapshot_count(), 4u);
  EXPECT_FALSE(sampler.maybe_sample(8.9));  // boundary advanced past `now`
}

TEST(HealthSampler, BoundedSnapshotsCountDrops) {
  FakeSource src;
  obs::HealthSampler sampler(obs::HealthSamplerConfig{1.0, 2});
  sampler.add_source("src", &src);
  for (int i = 1; i <= 5; ++i) {
    sampler.sample_now(static_cast<double>(i));
  }
  // snapshot_count() counts every sample taken; only the first
  // max_snapshots lines are retained, the rest are drop-accounted.
  EXPECT_EQ(sampler.snapshot_count(), 5u);
  EXPECT_EQ(sampler.snapshots().size(), 2u);
  EXPECT_EQ(sampler.dropped(), 3u);
}

TEST(HealthSampler, JsonlIsDeterministicAndCarriesIdentity) {
  const auto render = [] {
    FakeSource src;
    obs::HealthSampler sampler(obs::HealthSamplerConfig{0.5, 1024});
    sampler.add_source("src", &src);
    for (int i = 1; i <= 8; ++i) sampler.maybe_sample(0.5 * i);
    std::ostringstream out;
    const auto id = test_identity();
    sampler.write_jsonl(out, &id);
    return out.str();
  };
  const std::string a = render();
  const std::string b = render();
  EXPECT_EQ(a, b);  // byte-identical across reruns
  EXPECT_NE(a.find("{\"schema\":\"vsensor-health/1\""), std::string::npos);
  EXPECT_NE(a.find("\"record_layout_bytes\":"), std::string::npos);
  EXPECT_NE(a.find("\"src.now\":"), std::string::npos);
}

// --- jsonw ------------------------------------------------------------------

TEST(JsonWriter, EscapesAndFormatsReproducibly) {
  std::ostringstream s;
  obs::jsonw::write_string(s, "a\"b\\c\nd\te");
  EXPECT_EQ(s.str(), "\"a\\\"b\\\\c\\nd\\te\"");

  const auto num = [](double v) {
    std::ostringstream out;
    obs::jsonw::write_number(out, v);
    return out.str();
  };
  // 17 significant digits: re-rendering the same double is byte-identical.
  EXPECT_EQ(num(0.1), num(0.1));
  EXPECT_EQ(num(1.0 / 3.0), num(1.0 / 3.0));
  EXPECT_EQ(num(1e300), num(1e300));
  // Degenerate values clamp to null instead of emitting invalid JSON.
  EXPECT_EQ(num(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(num(std::numeric_limits<double>::quiet_NaN()), "null");
}

// --- end-to-end: determinism, zero interference, crash forensics ------------

TEST(HealthPlane, TierReplayIsByteIdenticalAcrossReruns) {
  constexpr int kRanks = 4;
  constexpr double T = 2.0;
  const auto stream = make_stream(0xBEEF, kRanks, T);
  // Same tag both times: event details embed checkpoint paths, so the
  // byte-identity claim is for reruns of the same configuration.
  const auto a = run_with_plane(stream, kRanks, T, "det");
  const auto b = run_with_plane(stream, kRanks, T, "det");
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_GT(a.health.size(), 0u);
  EXPECT_NE(a.health.find("\"tier.shard0."), std::string::npos);
  EXPECT_NE(a.health.find("\"tier.shard1."), std::string::npos);
}

TEST(HealthPlane, DetectionIdenticalWithPlaneOnAndOff) {
  constexpr int kRanks = 4;
  constexpr double T = 2.0;
  const auto stream = make_stream(0xFEED, kRanks, T);
  const auto wired = run_with_plane(stream, kRanks, T, "on");

  // Bare tier: same stream, no event log, no sampler, no identity.
  ShardedTierConfig tcfg;
  tcfg.shards = 2;
  tcfg.journal_path = tmp_path("off.journal");
  tcfg.checkpoint_path = tmp_path("off.ckpt");
  tcfg.checkpoint_every_batches = 8;
  tcfg.detector = tight_cfg();
  ShardedAnalysisTier bare(tcfg, two_sensors(), kRanks, T);
  for (const auto& d : stream) {
    bare.on_delivery(d.rank, d.seq, d.records, d.now);
  }
  std::string bare_csv;
  const auto analysis = bare.finalize();
  for (const auto& m : analysis.matrices) bare_csv += report::render_csv(m);
  for (int k = 0; k < bare.shard_count(); ++k) {
    const auto& scfg = bare.server(k).config();
    std::remove(scfg.journal_path.c_str());
    std::remove(scfg.checkpoint_path.c_str());
  }
  EXPECT_EQ(wired.csv, bare_csv);
}

TEST(HealthPlane, ShardCrashLeavesRenderableFlightDump) {
  constexpr int kRanks = 4;
  constexpr double T = 2.0;
  const auto stream = make_stream(0xD1E, kRanks, T);

  ShardedTierConfig tcfg;
  tcfg.shards = 2;
  tcfg.journal_path = tmp_path("crash.journal");
  tcfg.checkpoint_path = tmp_path("crash.ckpt");
  tcfg.checkpoint_every_batches = 4;
  tcfg.detector = tight_cfg();
  ShardedAnalysisTier tier(tcfg, two_sensors(), kRanks, T);
  tier.set_crash_plan(0, {T * 0.5}, 0xC0DE);

  const auto id = test_identity();
  obs::EventLog events;
  tier.set_event_log(&events);
  tier.set_run_identity(id);
  const std::string flight_path = tier.flight_path(0);
  std::remove(flight_path.c_str());

  for (const auto& d : stream) {
    tier.on_delivery(d.rank, d.seq, d.records, d.now);
  }
  EXPECT_EQ(tier.server(0).crashes(), 1u);
  EXPECT_EQ(events.count(obs::EventKind::Crash), 1u);
  EXPECT_EQ(events.count(obs::EventKind::Recovery), 1u);
  // Every event from shard 0 — including the crash — carries its index.
  for (const auto& e : events.events()) {
    if (e.kind == obs::EventKind::Crash) {
      EXPECT_EQ(e.shard, 0);
    }
  }

  const std::string text = slurp(flight_path);
  ASSERT_FALSE(text.empty()) << "crash left no flight dump at "
                             << flight_path;
  EXPECT_NE(text.find("{\"schema\":\"vsensor-flight/1\""), std::string::npos);
  EXPECT_NE(text.find("\"tool\":\"test_health\""), std::string::npos);
  EXPECT_NE(text.find("\"crash\""), std::string::npos);

  const std::string rendered = report::render_flight_file(flight_path);
  EXPECT_NE(rendered.find("vsensor-flight/1"), std::string::npos);
  EXPECT_NE(rendered.find("crash"), std::string::npos);

  // An unwired tier on the same plan must NOT create flight files.
  std::remove(flight_path.c_str());
  ShardedTierConfig ucfg = tcfg;
  ucfg.journal_path = tmp_path("crash_unwired.journal");
  ucfg.checkpoint_path = tmp_path("crash_unwired.ckpt");
  ShardedAnalysisTier unwired(ucfg, two_sensors(), kRanks, T);
  unwired.set_crash_plan(0, {T * 0.5}, 0xC0DE);
  for (const auto& d : stream) {
    unwired.on_delivery(d.rank, d.seq, d.records, d.now);
  }
  EXPECT_EQ(unwired.server(0).crashes(), 1u);
  std::ifstream no_flight(unwired.flight_path(0));
  EXPECT_FALSE(static_cast<bool>(no_flight));

  for (auto* t : {&tier, &unwired}) {
    for (int k = 0; k < t->shard_count(); ++k) {
      const auto& scfg = t->server(k).config();
      std::remove(scfg.journal_path.c_str());
      std::remove(scfg.checkpoint_path.c_str());
    }
  }
  std::remove(tier.flight_path(0).c_str());
}

// --- renderers over real artifacts ------------------------------------------

TEST(HealthPlane, RenderersReadBackExportedArtifacts) {
  constexpr int kRanks = 4;
  constexpr double T = 2.0;
  const auto stream = make_stream(0xCAFE, kRanks, T);
  const auto run = run_with_plane(stream, kRanks, T, "render");

  const std::string hpath = tmp_path("render.health.jsonl");
  const std::string epath = tmp_path("render.events.jsonl");
  {
    std::ofstream h(hpath);
    h << run.health;
    std::ofstream e(epath);
    e << run.events;
  }
  const std::string health = report::render_health_file(hpath);
  EXPECT_NE(health.find("vsensor-health/1"), std::string::npos);
  EXPECT_NE(health.find("tier.shard0.delivered_batches"), std::string::npos);

  const std::string events_all = report::render_events_file(epath);
  EXPECT_NE(events_all.find("vsensor-events/1"), std::string::npos);
  const std::string events_capped = report::render_events_file(epath, 2);
  EXPECT_LT(events_capped.size(), events_all.size());
  EXPECT_NE(events_capped.find("more)"), std::string::npos);

  std::remove(hpath.c_str());
  std::remove(epath.c_str());
}

}  // namespace
}  // namespace vsensor::rt

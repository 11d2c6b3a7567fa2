// Storage chaos plane: deterministic I/O fault injection (io::FaultFs)
// against every durable artifact the pipeline writes, and the analysis
// server's degraded-mode durability state machine (durable → retrying →
// degraded → re-armed; docs/recovery.md).
//
// Headline property — for randomized storage-fault schedules crossed with
// the evaluation mini-apps and shard counts:
//  * no schedule ever makes the pipeline throw or abort;
//  * a run without crashes produces detection output bit-identical to the
//    fault-free run, no matter what the storage did (folds are in-memory;
//    only durability artifacts degrade);
//  * a run with crashes either recovers bit-identically or explicitly
//    flags the loss (lossy recovery counter + durability_degraded event +
//    health gauges) — never silent divergence;
//  * the same schedule replays to byte-identical journals, checkpoints,
//    and event streams (FaultFs is a pure function of seed + op index).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/fault_fs.hpp"
#include "io/vfs.hpp"
#include "obs/events.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/journal.hpp"
#include "runtime/server.hpp"
#include "runtime/sharded_tier.hpp"
#include "runtime/streaming_detector.hpp"
#include "support/rng.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace vsensor::rt {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "vsensor_chaos_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

JournalFrame batch_frame(int rank, uint64_t seq, int records) {
  JournalFrame f;
  f.kind = JournalFrameKind::Batch;
  f.rank = rank;
  f.seq = seq;
  for (int i = 0; i < records; ++i) {
    SliceRecord r{};
    r.sensor_id = i % 2;
    r.rank = rank;
    r.t_begin = 0.01 * static_cast<double>(i);
    r.t_end = r.t_begin + 1e-3;
    r.avg_duration = 1e-4;
    r.min_duration = 1e-4;
    r.count = 1;
    f.records.push_back(r);
  }
  return f;
}

// ------------------------------------------------ FaultFs determinism

TEST(ChaosFs, FaultScheduleIsAPureFunctionOfSeedAndOpIndex) {
  io::FaultFsConfig fc;
  fc.seed = 42;
  fc.enospc = 0.25;
  fc.short_write = 0.25;
  fc.flush_fail = 0.2;
  fc.deny_ops.push_back({7, 9});

  // Drive the identical op sequence twice (different paths — the path
  // never enters the fault hash) and demand identical decisions, identical
  // counters, and byte-identical surviving files.
  auto drive = [&](const std::string& path, std::vector<bool>* decisions,
                   io::FaultFs* fs) {
    std::string err;
    auto f = fs->open_truncate(path, &err);
    ASSERT_NE(f, nullptr);
    const std::string chunk(64, 'x');
    for (int i = 0; i < 40; ++i) {
      decisions->push_back(f->append(chunk.data(), chunk.size()).ok);
      decisions->push_back(f->flush().ok);
    }
  };
  io::FaultFs fs_a(fc), fs_b(fc);
  std::vector<bool> da, db;
  drive(tmp_path("sched_a"), &da, &fs_a);
  drive(tmp_path("sched_b"), &db, &fs_b);
  EXPECT_EQ(da, db);
  EXPECT_EQ(fs_a.ops(), fs_b.ops());
  EXPECT_EQ(fs_a.injected(), fs_b.injected());
  EXPECT_EQ(fs_a.injected_enospc(), fs_b.injected_enospc());
  EXPECT_EQ(fs_a.injected_short_writes(), fs_b.injected_short_writes());
  EXPECT_EQ(read_file(tmp_path("sched_a")), read_file(tmp_path("sched_b")));
  EXPECT_GT(fs_a.injected(), 0u);
  // The deny window fails its ops regardless of probabilities: ops 7..9
  // map to appends/flushes after the open consumed op 0.
  EXPECT_FALSE(da[6]);  // op 7
  EXPECT_FALSE(da[7]);  // op 8
  EXPECT_FALSE(da[8]);  // op 9
}

// --------------------------------------------- journal loss accounting

TEST(ChaosFs, JournalCountsDegradedDropsAndTeardownLoss) {
  // Op layout with commit_every_frames = 1: op 0 open, op 1 header append,
  // then each drain is append + flush. Deny everything from op 2 on, so
  // the header lands but no frame ever drains.
  io::FaultFsConfig fc;
  fc.seed = 5;
  fc.deny_ops.push_back({2, uint64_t{1} << 40});
  io::FaultFs faults(fc);

  const uint64_t counter_before =
      obs::MetricsRegistry::global().counter("journal.lost_bytes").value();

  const auto path = tmp_path("lostbytes.wal");
  size_t first_drop = 0;
  size_t teardown_loss = 0;
  {
    JournalWriter w(path, {}, &faults);
    ASSERT_TRUE(w.healthy());
    EXPECT_FALSE(w.append(batch_frame(0, 0, 2)));  // drain denied
    EXPECT_GT(w.buffered_bytes(), 0u);
    EXPECT_GE(w.io_errors(), 1u);
    EXPECT_FALSE(w.last_error().empty());

    // Degraded entry drops the acked-but-undrained buffer as loss.
    first_drop = w.drop_buffer_as_lost();
    EXPECT_GT(first_drop, 0u);
    EXPECT_EQ(w.lost_bytes(), first_drop);
    EXPECT_EQ(w.buffered_bytes(), 0u);

    // A second undrainable frame is still buffered at destruction: the
    // teardown drain fails and the bytes must be counted, not swallowed.
    EXPECT_FALSE(w.append(batch_frame(0, 1, 1)));
    teardown_loss = w.buffered_bytes();
    EXPECT_GT(teardown_loss, 0u);
  }
  if (obs::enabled()) {
    const uint64_t counter_after =
        obs::MetricsRegistry::global().counter("journal.lost_bytes").value();
    EXPECT_EQ(counter_after - counter_before, first_drop + teardown_loss);
  }
}

TEST(ChaosFs, EnospcFailsCleanAndRetryLandsTheFrame) {
  const auto path = tmp_path("enospc.wal");
  // Phase 1: permanent ENOSPC from op 2 on (op 0 open, op 1 header).
  // The denied append writes nothing — after discarding the buffer and
  // closing, the file holds exactly the header, no partial frame bytes.
  {
    io::FaultFsConfig fc;
    fc.seed = 5;
    fc.deny_ops.push_back({2, uint64_t{1} << 40});
    io::FaultFs faults(fc);
    JournalWriter w(path, {}, &faults);
    ASSERT_TRUE(w.healthy());
    EXPECT_FALSE(w.append(batch_frame(3, 0, 2)));
    EXPECT_GT(faults.injected_enospc(), 0u);
    w.discard_buffer();
  }
  {
    const auto load = load_journal(path);
    EXPECT_TRUE(load.header_valid);
    EXPECT_EQ(load.frames.size(), 0u);
    EXPECT_EQ(load.torn_bytes, 0u);  // failed clean: no partial bytes
  }
  // Phase 2: deny exactly op 2 — the frame survives the failure in the
  // buffer, and a retry commit drains it intact once the window passes.
  {
    io::FaultFsConfig fc;
    fc.seed = 5;
    fc.deny_ops.push_back({2, 2});
    io::FaultFs faults(fc);
    JournalWriter w(path, {}, &faults);
    ASSERT_TRUE(w.healthy());
    EXPECT_FALSE(w.append(batch_frame(3, 0, 2)));
    EXPECT_GT(w.buffered_bytes(), 0u);
    EXPECT_TRUE(w.commit());
    EXPECT_EQ(w.buffered_bytes(), 0u);
  }
  const auto load = load_journal(path);
  EXPECT_EQ(load.frames.size(), 1u);
  EXPECT_TRUE(load.clean());
}

TEST(ChaosFs, ShortWriteTearsAtHashBoundaryAndSalvageRecoversThePrefix) {
  // Find a seed whose schedule lets the header and a few frames through,
  // then tears an append mid-frame. The search is deterministic (pure
  // hashes), so the chosen seed is stable across runs and platforms.
  for (uint64_t seed = 1; seed < 400; ++seed) {
    io::FaultFsConfig fc;
    fc.seed = seed;
    fc.short_write = 0.12;
    io::FaultFs faults(fc);
    const auto path = tmp_path("torn.wal");
    size_t landed = 0;
    bool torn = false;
    {
      JournalWriter w(path, {}, &faults);
      if (!w.healthy()) continue;  // schedule tore the header; next seed
      for (uint64_t i = 0; i < 24 && !torn; ++i) {
        if (w.append(batch_frame(1, i, 3))) {
          ++landed;
        } else {
          torn = true;  // stop at the tear: the torn tail must stay on disk
        }
      }
      // Drop the undrained remainder so teardown cannot heal the tear by
      // re-appending it; closing the writer flushes the torn prefix.
      w.discard_buffer();
    }
    if (!torn || landed == 0) continue;
    ASSERT_GT(faults.injected_short_writes(), 0u);
    const auto load = load_journal(path);
    EXPECT_TRUE(load.header_valid);
    EXPECT_EQ(load.frames.size(), landed);
    EXPECT_GT(load.torn_bytes, 0u);  // the hash-derived strict prefix
    EXPECT_FALSE(load.warning.empty());
    EXPECT_EQ(load.total_bytes - load.valid_bytes, load.torn_bytes);
    return;
  }
  FAIL() << "no seed under 400 produced header-ok + mid-stream tear";
}

// ------------------------------------------- server degraded-mode rig

SliceRecord chaos_record(int sensor, int rank, double t, double avg) {
  SliceRecord r{};
  r.sensor_id = sensor;
  r.rank = rank;
  r.t_begin = t;
  r.t_end = t + 1e-3;
  r.avg_duration = avg;
  r.min_duration = avg;
  r.count = 1;
  return r;
}

struct Delivery {
  int rank;
  uint64_t seq;
  std::vector<SliceRecord> records;
  double now;
};

std::vector<Delivery> small_stream(int ranks, double T) {
  Rng rng(77);
  std::vector<Delivery> stream;
  for (int rank = 0; rank < ranks; ++rank) {
    double t = 0.0;
    for (uint64_t b = 0; b < 8; ++b) {
      Delivery d;
      d.rank = rank;
      d.seq = b;
      for (int i = 0; i < 3; ++i) {
        t += T / 32.0;
        const double avg =
            1e-4 * (1.0 + 0.1 * static_cast<double>(rng.next_below(10)));
        d.records.push_back(
            chaos_record(static_cast<int>(rng.next_below(2)), rank, t, avg));
      }
      d.now = d.records.back().t_end;
      stream.push_back(std::move(d));
    }
  }
  return stream;
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

struct ServerRig {
  StreamingDetector detector;
  AnalysisServer server;

  ServerRig(const std::string& tag, std::vector<SensorInfo> sensors, int ranks,
            double T, const DetectorConfig& dcfg, io::Vfs* vfs = nullptr,
            uint64_t rearm_every = 4)
      : detector(dcfg, sensors, ranks, T),
        server(make_cfg(tag, vfs, rearm_every), &detector) {}

  static ServerConfig make_cfg(const std::string& tag, io::Vfs* vfs,
                               uint64_t rearm_every) {
    ServerConfig cfg;
    cfg.journal_path = tmp_path(tag + ".wal");
    cfg.checkpoint_path = tmp_path(tag + ".ckpt");
    cfg.checkpoint_every_batches = 4;
    cfg.vfs = vfs;
    cfg.io_retry_attempts = 1;  // keep op budgets small and predictable
    cfg.rearm_every_appends = rearm_every;
    std::remove(cfg.journal_path.c_str());
    std::remove(cfg.checkpoint_path.c_str());
    std::remove((cfg.checkpoint_path + ".tmp").c_str());
    return cfg;
  }
};

bool same_result(const AnalysisResult& a, const AnalysisResult& b) {
  for (int t = 0; t < kSensorTypeCount; ++t) {
    const auto& ma = a.matrices[static_cast<size_t>(t)];
    const auto& mb = b.matrices[static_cast<size_t>(t)];
    if (ma.ranks() != mb.ranks() || ma.buckets() != mb.buckets()) return false;
    for (int r = 0; r < ma.ranks(); ++r) {
      for (int c = 0; c < ma.buckets(); ++c) {
        if (ma.has(r, c) != mb.has(r, c)) return false;
        if (ma.has(r, c) && ma.at(r, c) != mb.at(r, c)) return false;
      }
    }
  }
  if (a.events.size() != b.events.size()) return false;
  for (size_t i = 0; i < a.events.size(); ++i) {
    if (a.events[i].type != b.events[i].type ||
        a.events[i].rank_begin != b.events[i].rank_begin ||
        a.events[i].rank_end != b.events[i].rank_end ||
        a.events[i].cells != b.events[i].cells ||
        a.events[i].t_begin != b.events[i].t_begin ||
        a.events[i].t_end != b.events[i].t_end ||
        a.events[i].severity != b.events[i].severity) {
      return false;
    }
  }
  return a.stale_ranks == b.stale_ranks;
}

TEST(ChaosFs, DegradedRearmCrashRecoverRoundTrip) {
  const int ranks = 4;
  const double T = 0.05;
  const auto sensors = two_sensors();
  const auto dcfg = tight_cfg();
  const auto stream = small_stream(ranks, T);

  ServerRig ref("roundtrip_ref", sensors, ranks, T, dcfg);
  for (const auto& d : stream) {
    ref.server.on_delivery(d.rank, d.seq, d.records, d.now);
  }

  // Scripted outage: the disk is gone for ops 6..14 — the server exhausts
  // its retry, enters degraded mode, keeps folding, probes for re-arm,
  // and comes back once the window clears.
  io::FaultFsConfig fc;
  fc.seed = 3;
  fc.deny_ops.push_back({6, 14});
  io::FaultFs faults(fc);
  ServerRig rig("roundtrip", sensors, ranks, T, dcfg, &faults,
                /*rearm_every=*/2);
  obs::EventLog log;
  rig.server.set_event_hooks(obs::EventHooks{&log, nullptr, 0});

  for (const auto& d : stream) {
    ASSERT_NO_THROW(rig.server.on_delivery(d.rank, d.seq, d.records, d.now));
  }
  EXPECT_GE(rig.server.degraded_entries(), 1u);
  EXPECT_GE(rig.server.rearms(), 1u);
  EXPECT_FALSE(rig.server.degraded());
  EXPECT_GT(rig.server.dropped_journal_bytes(), 0u);
  EXPECT_GT(rig.server.io_errors(), 0u);
  EXPECT_GE(log.count(obs::EventKind::DurabilityDegraded), 1u);
  EXPECT_GE(log.count(obs::EventKind::DurabilityRearmed), 1u);

  // Degraded mode never perturbed detection: in-memory folds are complete.
  ASSERT_TRUE(same_result(ref.detector.finalize(), rig.detector.finalize()));

  // The re-arm checkpoint covers the frames dropped while degraded, so a
  // crash after re-arm recovers bit-identically — the loss window closed.
  rig.server.crash();
  const auto report = rig.server.recover();
  EXPECT_EQ(rig.server.lossy_recoveries(), 0u);
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_TRUE(same_result(ref.detector.finalize(), rig.detector.finalize()));

  // Health plane carries the whole story.
  obs::HealthRecorder rec;
  rig.server.sample_health(T, rec);
  const auto& g = rec.gauges();
  ASSERT_TRUE(g.count("degraded"));
  EXPECT_EQ(g.at("degraded"), 0.0);
  EXPECT_GE(g.at("degraded_entries"), 1.0);
  EXPECT_GE(g.at("rearms"), 1.0);
  EXPECT_GT(g.at("dropped_journal_bytes"), 0.0);
  EXPECT_GT(g.at("io_errors"), 0.0);
  EXPECT_EQ(g.at("lossy_recoveries"), 0.0);
}

TEST(ChaosFs, CrashWhileDegradedIsLossyAndLoudlyFlagged) {
  const int ranks = 4;
  const double T = 0.05;
  const auto sensors = two_sensors();
  const auto dcfg = tight_cfg();
  const auto stream = small_stream(ranks, T);

  ServerRig ref("lossy_ref", sensors, ranks, T, dcfg);
  for (const auto& d : stream) {
    ref.server.on_delivery(d.rank, d.seq, d.records, d.now);
  }

  // The outage never clears: degraded mode persists to the crash, so the
  // dropped frames are unrecoverable — and that MUST be flagged.
  io::FaultFsConfig fc;
  fc.seed = 3;
  fc.deny_ops.push_back({6, uint64_t{1} << 40});
  io::FaultFs faults(fc);
  ServerRig rig("lossy", sensors, ranks, T, dcfg, &faults);
  obs::EventLog log;
  rig.server.set_event_hooks(obs::EventHooks{&log, nullptr, 0});

  for (const auto& d : stream) {
    ASSERT_NO_THROW(rig.server.on_delivery(d.rank, d.seq, d.records, d.now));
  }
  ASSERT_TRUE(rig.server.degraded());
  rig.server.crash();
  ASSERT_NO_THROW(rig.server.recover());

  EXPECT_EQ(rig.server.lossy_recoveries(), 1u);
  EXPECT_GE(log.count(obs::EventKind::DurabilityDegraded), 1u);
  bool lossy_flagged = false;
  for (const auto& e : log.events()) {
    if (e.kind == obs::EventKind::Recovery &&
        e.detail.find("+lossy") != std::string::npos) {
      lossy_flagged = true;
    }
  }
  EXPECT_TRUE(lossy_flagged);
  EXPECT_FALSE(same_result(ref.detector.finalize(), rig.detector.finalize()))
      << "losing journal frames without divergence means the stream never "
         "reached the detector in the first place";
}

TEST(ChaosFs, RecoverySweepsOrphanedCheckpointTmp) {
  const int ranks = 4;
  const double T = 0.05;
  const auto sensors = two_sensors();
  const auto dcfg = tight_cfg();
  const auto stream = small_stream(ranks, T);

  ServerRig ref("orphan_ref", sensors, ranks, T, dcfg);
  ServerRig rig("orphan", sensors, ranks, T, dcfg);
  for (const auto& d : stream) {
    ref.server.on_delivery(d.rank, d.seq, d.records, d.now);
    rig.server.on_delivery(d.rank, d.seq, d.records, d.now);
  }

  // Model a crash inside the publish window: a stale half-written tmp next
  // to the intact checkpoint. Recovery must remove it and stay exact.
  const std::string tmp = rig.server.config().checkpoint_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << "half-written checkpoint garbage";
  }
  const auto report = rig.server.recover();
  EXPECT_EQ(rig.server.orphan_tmps_removed(), 1u);
  EXPECT_TRUE(report.checkpoint_loaded);
  std::ifstream gone(tmp);
  EXPECT_FALSE(gone.good());
  EXPECT_TRUE(same_result(ref.detector.finalize(), rig.detector.finalize()));
}

TEST(ChaosFs, RenameWindowFaultsKeepPreviousCheckpointAndDegrade) {
  const int ranks = 4;
  const double T = 0.05;
  const auto sensors = two_sensors();
  const auto dcfg = tight_cfg();
  const auto stream = small_stream(ranks, T);

  ServerRig ref("rename_ref", sensors, ranks, T, dcfg);
  for (const auto& d : stream) {
    ref.server.on_delivery(d.rank, d.seq, d.records, d.now);
  }

  // Every rename fails: checkpoints never publish (the tmp is left in the
  // window), but the journal alone still carries full recovery.
  io::FaultFsConfig fc;
  fc.seed = 11;
  fc.rename_fail = 1.0;
  io::FaultFs faults(fc);
  ServerRig rig("rename", sensors, ranks, T, dcfg, &faults);
  obs::EventLog log;
  rig.server.set_event_hooks(obs::EventHooks{&log, nullptr, 0});
  for (const auto& d : stream) {
    ASSERT_NO_THROW(rig.server.on_delivery(d.rank, d.seq, d.records, d.now));
  }
  EXPECT_GT(rig.server.checkpoint_failures(), 0u);
  EXPECT_GE(log.count(obs::EventKind::CheckpointFailed), 1u);
  ASSERT_TRUE(same_result(ref.detector.finalize(), rig.detector.finalize()));

  // recover() sweeps the orphan, replays the (complete) journal, fails the
  // post-recovery publish too, and comes back degraded — explicitly.
  ASSERT_NO_THROW(rig.server.recover());
  EXPECT_TRUE(rig.server.degraded());
  EXPECT_GE(log.count(obs::EventKind::DurabilityDegraded), 1u);
  EXPECT_TRUE(same_result(ref.detector.finalize(), rig.detector.finalize()));
}

// ------------------------------------------------- export visibility

TEST(ChaosFs, ExportFailuresAreVisibleNotSilent) {
  obs::EventLog log;
  obs::Event ev;
  ev.kind = obs::EventKind::VarianceFlag;
  ev.t = 0.5;
  log.emit(ev);
  obs::FlightRecorder flight;
  flight.push("{\"kind\":\"crash\"}");
  obs::HealthSampler health;
  health.sample_now(1.0);

  io::FaultFsConfig open_fc;
  open_fc.seed = 2;
  open_fc.open_fail = 1.0;
  io::FaultFs no_open(open_fc);
  EXPECT_FALSE(log.export_file(tmp_path("ev.jsonl"), nullptr, &no_open));
  EXPECT_FALSE(flight.dump(tmp_path("fl.jsonl"), nullptr, &no_open));
  EXPECT_FALSE(health.export_file(tmp_path("hp.jsonl"), nullptr, &no_open));

  io::FaultFsConfig tear_fc;
  tear_fc.seed = 2;
  tear_fc.short_write = 1.0;
  io::FaultFs tears(tear_fc);
  EXPECT_FALSE(log.export_file(tmp_path("ev.jsonl"), nullptr, &tears));

  EXPECT_TRUE(log.export_file(tmp_path("ev.jsonl")));
  EXPECT_TRUE(flight.dump(tmp_path("fl.jsonl")));
  EXPECT_TRUE(health.export_file(tmp_path("hp.jsonl")));
  EXPECT_FALSE(read_file(tmp_path("ev.jsonl")).empty());
}

// ------------------------------------------- headline chaos property

io::FaultFsConfig chaos_config(uint64_t seed) {
  auto u = [&](uint64_t salt) {
    return static_cast<double>(mix64(hash_combine(seed, salt)) >> 11) *
           0x1.0p-53;
  };
  io::FaultFsConfig cfg;
  cfg.seed = seed;
  cfg.enospc = 0.04 * u(1);
  cfg.short_write = 0.06 * u(2);
  cfg.flush_fail = 0.05 * u(3);
  cfg.rename_fail = 0.15 * u(4);
  cfg.open_fail = 0.02 * u(5);
  cfg.truncate_fail = 0.05 * u(6);
  cfg.remove_fail = 0.05 * u(7);
  if (u(8) < 0.35) {
    // One scripted outage window early in the run.
    const auto start = 4 + static_cast<uint64_t>(u(9) * 80.0);
    const auto width = 4 + static_cast<uint64_t>(u(10) * 40.0);
    cfg.deny_ops.push_back({start, start + width});
  }
  return cfg;
}

int chaos_seed_count() {
  if (const char* env = std::getenv("VSENSOR_CHAOS_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 30;
}

ShardedTierConfig chaos_tier_cfg(const std::string& tag, int shards,
                                 const DetectorConfig& dcfg, io::Vfs* vfs) {
  ShardedTierConfig cfg;
  cfg.shards = shards;
  cfg.journal_path = tmp_path(tag + ".wal");
  cfg.checkpoint_path = tmp_path(tag + ".ckpt");
  cfg.checkpoint_every_batches = 4;
  cfg.detector = dcfg;
  cfg.vfs = vfs;
  cfg.io_retry_attempts = 1;
  cfg.rearm_every_appends = 2;
  for (int k = 0; k < shards; ++k) {
    const std::string suffix = ".shard" + std::to_string(k);
    std::remove((cfg.journal_path + suffix).c_str());
    std::remove((cfg.checkpoint_path + suffix).c_str());
    std::remove((cfg.checkpoint_path + suffix + ".tmp").c_str());
  }
  return cfg;
}

/// Turn one mini-app's collected records into a deterministic delivery
/// stream (same discipline as the sharded-tier suite): per-rank time
/// order, batches of 4, round-robin interleave.
std::vector<Delivery> stream_from_records(std::vector<SliceRecord> records,
                                          int ranks) {
  std::stable_sort(records.begin(), records.end(),
                   [](const SliceRecord& a, const SliceRecord& b) {
                     return a.t_begin < b.t_begin;
                   });
  std::vector<std::vector<SliceRecord>> by_rank(static_cast<size_t>(ranks));
  for (const auto& r : records) {
    by_rank[static_cast<size_t>(r.rank)].push_back(r);
  }
  constexpr size_t kBatch = 4;
  std::vector<Delivery> stream;
  std::vector<size_t> cursor(static_cast<size_t>(ranks), 0);
  std::vector<uint64_t> seq(static_cast<size_t>(ranks), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (int rank = 0; rank < ranks; ++rank) {
      auto& pos = cursor[static_cast<size_t>(rank)];
      const auto& src = by_rank[static_cast<size_t>(rank)];
      if (pos >= src.size()) continue;
      progressed = true;
      Delivery d;
      d.rank = rank;
      d.seq = seq[static_cast<size_t>(rank)]++;
      const size_t n = std::min(kBatch, src.size() - pos);
      d.records.assign(src.begin() + static_cast<long>(pos),
                       src.begin() + static_cast<long>(pos + n));
      pos += n;
      d.now = d.records.back().t_end;
      stream.push_back(std::move(d));
    }
  }
  return stream;
}

TEST(ChaosFs, RandomizedScheduleSweepNeverDivergesSilently) {
  const int ranks = 8;
  const int seeds = chaos_seed_count();
  workloads::RunOptions opts;
  opts.params.iterations = 4;
  opts.params.scale = 0.05;
  opts.runtime.batch_records = 8;

  for (const auto& app : workloads::make_all_workloads()) {
    SCOPED_TRACE(app->name());
    auto sim = workloads::baseline_config(ranks);
    sim.ranks_per_node = 4;
    Collector collected;
    const auto run = workloads::run_workload(*app, sim, opts, &collected);
    ASSERT_GT(collected.record_count(), 0u);

    DetectorConfig dcfg;
    dcfg.matrix_resolution = run.makespan / 20.0;
    dcfg.min_records = 1;
    const auto stream = stream_from_records(collected.records(), ranks);

    // Fault-free reference: one uninterrupted single-server fold.
    ServerRig ref("sweep_ref_" + app->name(), app->sensors(), ranks,
                  run.makespan, dcfg);
    for (const auto& d : stream) {
      ref.server.on_delivery(d.rank, d.seq, d.records, d.now);
    }
    const AnalysisResult reference = ref.detector.finalize();

    // Crash point: the median of rank 0's deliveries (rank 0 lives in
    // shard 0 under every shard count).
    std::vector<double> rank0_nows;
    for (const auto& d : stream) {
      if (d.rank == 0) rank0_nows.push_back(d.now);
    }
    ASSERT_FALSE(rank0_nows.empty());
    const double crash_at = rank0_nows[rank0_nows.size() / 2];

    for (int seed = 1; seed <= seeds; ++seed) {
      for (const int shards : {1, 2, 4}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " shards " +
                     std::to_string(shards));
        const bool with_crash = (seed % 2) == 1;
        io::FaultFs faults(chaos_config(static_cast<uint64_t>(seed)));
        const std::string tag = "sweep_" + app->name() + "_s" +
                                std::to_string(seed) + "_n" +
                                std::to_string(shards);
        ShardedAnalysisTier tier(chaos_tier_cfg(tag, shards, dcfg, &faults),
                                 app->sensors(), ranks, run.makespan);
        obs::EventLog log;
        tier.set_event_log(&log);
        if (with_crash) {
          tier.set_crash_plan({crash_at},
                              hash_combine(static_cast<uint64_t>(seed), 0xC4));
        }

        // Property: no schedule ever makes the pipeline throw.
        ASSERT_NO_THROW({
          for (const auto& d : stream) {
            tier.on_delivery(d.rank, d.seq, d.records, d.now);
          }
        });

        const AnalysisResult result = tier.finalize();
        const bool identical = same_result(reference, result);
        if (!with_crash) {
          // Storage faults alone NEVER perturb detection: folds are
          // in-memory; only the durability artifacts degrade.
          ASSERT_TRUE(identical);
          ASSERT_EQ(tier.lossy_recoveries(), 0u);
        } else if (!identical) {
          // A crash may land inside a degraded window — the dropped
          // frames are gone, and the run must say so explicitly.
          ASSERT_GT(tier.lossy_recoveries(), 0u);
          ASSERT_GE(log.count(obs::EventKind::DurabilityDegraded), 1u);
        }
        // Degradation is always flagged when entered, silent otherwise.
        if (tier.degraded_entries() > 0) {
          ASSERT_GE(log.count(obs::EventKind::DurabilityDegraded), 1u);
        } else {
          ASSERT_EQ(log.count(obs::EventKind::DurabilityDegraded), 0u);
        }
        // Health plane mirrors the durability state.
        obs::HealthRecorder rec;
        tier.sample_health(run.makespan, rec);
        ASSERT_EQ(rec.gauges().at("degraded_shards"),
                  static_cast<double>(tier.degraded_shards()));
        if (tier.io_errors() > 0) {
          ASSERT_GT(rec.gauges().at("io_errors"), 0.0);
        }
      }
    }
  }
}

TEST(ChaosFs, SameScheduleReplaysByteIdenticalArtifacts) {
  const int ranks = 8;
  workloads::RunOptions opts;
  opts.params.iterations = 4;
  opts.params.scale = 0.05;
  opts.runtime.batch_records = 8;
  const auto app = workloads::make_workload("CG");
  auto sim = workloads::baseline_config(ranks);
  sim.ranks_per_node = 4;
  Collector collected;
  const auto run = workloads::run_workload(*app, sim, opts, &collected);
  DetectorConfig dcfg;
  dcfg.matrix_resolution = run.makespan / 20.0;
  dcfg.min_records = 1;
  const auto stream = stream_from_records(collected.records(), ranks);

  const int shards = 2;
  for (const uint64_t seed : {2u, 9u, 17u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto replay = [&](std::vector<std::string>* files, std::string* events,
                      uint64_t* injected) {
      io::FaultFs faults(chaos_config(seed));
      ShardedAnalysisTier tier(
          chaos_tier_cfg("replay", shards, dcfg, &faults), app->sensors(),
          ranks, run.makespan);
      obs::EventLog log;
      tier.set_event_log(&log);
      tier.set_crash_plan({run.makespan / 2.0}, hash_combine(seed, 0xC4));
      for (const auto& d : stream) {
        tier.on_delivery(d.rank, d.seq, d.records, d.now);
      }
      *injected = faults.injected();
      std::ostringstream ev;
      log.write_jsonl(ev);
      *events = ev.str();
      for (int k = 0; k < shards; ++k) {
        const std::string suffix = ".shard" + std::to_string(k);
        // The writer must be closed before reading the journal back: the
        // tier dies at scope exit, so flush-through-destructor has run.
        files->push_back(tmp_path("replay.ckpt" + suffix));
        files->push_back(tmp_path("replay.wal" + suffix));
      }
    };
    std::vector<std::string> paths_a, paths_b;
    std::string events_a, events_b;
    uint64_t injected_a = 0, injected_b = 0;
    replay(&paths_a, &events_a, &injected_a);
    std::vector<std::string> bytes_a;
    for (const auto& p : paths_a) bytes_a.push_back(read_file(p));
    replay(&paths_b, &events_b, &injected_b);
    for (size_t i = 0; i < paths_b.size(); ++i) {
      EXPECT_EQ(bytes_a[i], read_file(paths_b[i])) << paths_b[i];
    }
    EXPECT_EQ(events_a, events_b);
    EXPECT_EQ(injected_a, injected_b);
  }
}

}  // namespace
}  // namespace vsensor::rt

// The four benchmark workloads. Each takes the run's arguments, builds its
// inputs from --seed (timed as setup), runs warm-up jobs that are discarded,
// then closed-loop jobs from one thread until --seconds have passed, and
// fills the report: end-to-end metrics from untraced jobs, or with --trace
// the per-layer metrics from traced jobs and differential job variants.
#pragma once

#include <string>

#include "harness.hpp"
#include "runtime/sharded_tier.hpp"
#include "simmpi/engine.hpp"

namespace e2e {

void run_cg_bad_node(const Args& args, Report& report);
void run_tier_replay(const Args& args, Report& report);
void run_offline_report(const Args& args, Report& report);
void run_minic_stencil(const Args& args, Report& report);

/// The paper's §6.2 modeled probe overhead of a run, in percent:
/// sum of per-rank overhead_time over sum of per-rank finish_time.
double virtual_overhead_pct(const vsensor::simmpi::RunResult& run);

/// A 4-shard tier config with its journal and checkpoint under the work
/// directory (files of earlier jobs are removed first, so no job recovers
/// another job's state).
vsensor::rt::ShardedTierConfig tier_config(const Args& args,
                                           const vsensor::rt::DetectorConfig& dcfg);
/// Remove every journal and checkpoint file of `cfg`'s shards.
void remove_tier_files(const vsensor::rt::ShardedTierConfig& cfg);

inline constexpr int kTierShards = 4;

}  // namespace e2e

#include <cstdio>
#include <string>

#include "workloads.hpp"

namespace e2e {

double virtual_overhead_pct(const vsensor::simmpi::RunResult& run) {
  double overhead = 0.0;
  double finish = 0.0;
  for (const auto& r : run.ranks) {
    overhead += r.overhead_time;
    finish += r.finish_time;
  }
  return finish > 0.0 ? 100.0 * overhead / finish : 0.0;
}

vsensor::rt::ShardedTierConfig tier_config(const Args& args,
                                           const vsensor::rt::DetectorConfig& dcfg) {
  vsensor::rt::ShardedTierConfig cfg;
  cfg.shards = kTierShards;
  cfg.journal_path = work_path(args, "journal");
  cfg.checkpoint_path = work_path(args, "ckpt");
  cfg.detector = dcfg;
  remove_tier_files(cfg);
  return cfg;
}

void remove_tier_files(const vsensor::rt::ShardedTierConfig& cfg) {
  for (int k = 0; k < cfg.shards; ++k) {
    const std::string suffix = ".shard" + std::to_string(k);
    for (const std::string& base :
         {cfg.journal_path, cfg.checkpoint_path, cfg.journal_path + ".flight"}) {
      std::remove((base + suffix).c_str());
      std::remove((base + suffix + ".tmp").c_str());
    }
  }
}

}  // namespace e2e

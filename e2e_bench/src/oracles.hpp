// Output oracles: each returns "" when a job's output is correct and the
// reason otherwise. They are pure functions of library results so the
// benchmark's self-test can feed them deliberately corrupted results.
#pragma once

#include <set>
#include <span>
#include <string>
#include <vector>

#include "runtime/detector.hpp"
#include "runtime/types.hpp"

namespace e2e {

/// Ranks covered by the variance events of component `type`.
std::set<int> flagged_ranks(const vsensor::rt::AnalysisResult& result,
                            vsensor::rt::SensorType type);

/// Every rank in [rank_begin, rank_end] lies inside some Computation event.
std::string check_ranks_flagged(const vsensor::rt::AnalysisResult& result,
                                int rank_begin, int rank_end);

/// The Computation events cover exactly the ranks in `expected`.
std::string check_flagged_exactly(const vsensor::rt::AnalysisResult& result,
                                  const std::set<int>& expected);

/// Two counts that must agree (e.g. records analysed vs produced).
std::string check_counts_equal(const char* what, uint64_t got,
                               uint64_t want);

/// Matrices (cell presence and value), events and stale sets are
/// bit-identical.
std::string check_bit_identical(const vsensor::rt::AnalysisResult& got,
                                const vsensor::rt::AnalysisResult& want);

/// Variance events are identical field by field.
std::string check_events_equal(const std::vector<vsensor::rt::VarianceEvent>& got,
                               const std::vector<vsensor::rt::VarianceEvent>& want);

/// Record sequences are identical byte for byte, in order.
std::string check_records_equal(std::span<const vsensor::rt::SliceRecord> got,
                                std::span<const vsensor::rt::SliceRecord> want);

}  // namespace e2e

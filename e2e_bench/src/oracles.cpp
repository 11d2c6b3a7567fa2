#include "oracles.hpp"

#include <cstring>

namespace e2e {

using vsensor::rt::AnalysisResult;
using vsensor::rt::SensorType;
using vsensor::rt::SliceRecord;
using vsensor::rt::VarianceEvent;

namespace {

template <class T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

std::string at(const char* what, size_t i) {
  return std::string(what) + " differs at index " + std::to_string(i);
}

std::string describe(const std::set<int>& ranks) {
  std::string out = "{";
  for (int r : ranks) {
    if (out.size() > 1) out += ",";
    out += std::to_string(r);
  }
  return out + "}";
}

}  // namespace

std::set<int> flagged_ranks(const AnalysisResult& result, SensorType type) {
  std::set<int> out;
  for (const auto& ev : result.events) {
    if (ev.type != type) continue;
    for (int r = ev.rank_begin; r <= ev.rank_end; ++r) out.insert(r);
  }
  return out;
}

std::string check_ranks_flagged(const AnalysisResult& result, int rank_begin,
                                int rank_end) {
  const auto flagged = flagged_ranks(result, SensorType::Computation);
  for (int r = rank_begin; r <= rank_end; ++r) {
    if (flagged.count(r) == 0) {
      return "rank " + std::to_string(r) +
             " of the bad node carries no Computation flag";
    }
  }
  return "";
}

std::string check_flagged_exactly(const AnalysisResult& result,
                                  const std::set<int>& expected) {
  const auto flagged = flagged_ranks(result, SensorType::Computation);
  if (flagged == expected) return "";
  return "Computation flags cover ranks " + describe(flagged) + ", expected " +
         describe(expected);
}

std::string check_counts_equal(const char* what, uint64_t got, uint64_t want) {
  if (got == want) return "";
  return std::string(what) + ": " + std::to_string(got) + " != " +
         std::to_string(want);
}

std::string check_bit_identical(const AnalysisResult& got,
                                const AnalysisResult& want) {
  for (size_t t = 0; t < got.matrices.size(); ++t) {
    const auto& a = got.matrices[t];
    const auto& b = want.matrices[t];
    if (a.ranks() != b.ranks() || a.buckets() != b.buckets()) {
      return "matrix " + std::to_string(t) + " shape differs";
    }
    for (int r = 0; r < a.ranks(); ++r) {
      for (int c = 0; c < a.buckets(); ++c) {
        if (a.has(r, c) != b.has(r, c) ||
            (a.has(r, c) && !same_bits(a.at(r, c), b.at(r, c)))) {
          return "matrix " + std::to_string(t) + " cell (" + std::to_string(r) +
                 "," + std::to_string(c) + ") differs";
        }
      }
    }
  }
  if (auto why = check_events_equal(got.events, want.events); !why.empty()) {
    return why;
  }
  if (got.stale_ranks != want.stale_ranks) return "stale rank sets differ";
  return "";
}

std::string check_events_equal(const std::vector<VarianceEvent>& got,
                               const std::vector<VarianceEvent>& want) {
  if (got.size() != want.size()) {
    return "event count " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& a = got[i];
    const auto& b = want[i];
    if (a.type != b.type || a.rank_begin != b.rank_begin ||
        a.rank_end != b.rank_end || a.cells != b.cells ||
        a.likely_wait_on_slow_ranks != b.likely_wait_on_slow_ranks ||
        !same_bits(a.t_begin, b.t_begin) || !same_bits(a.t_end, b.t_end) ||
        !same_bits(a.severity, b.severity)) {
      return at("event", i);
    }
  }
  return "";
}

std::string check_records_equal(std::span<const SliceRecord> got,
                                std::span<const SliceRecord> want) {
  if (got.size() != want.size()) {
    return "record count " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    // SliceRecord has no padding (static_asserted against the wire size),
    // so a byte compare is a field-by-field bit compare.
    if (!same_bits(got[i], want[i])) return at("record", i);
  }
  return "";
}

}  // namespace e2e

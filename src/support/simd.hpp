// Portable SIMD kernel for the pipeline's ship-time scan.
//
// max_value is bit-identical to its scalar definition: the vector paths
// use only exactly-rounded IEEE max, never a reassociated sum, so enabling
// or disabling the intrinsics can never change a result. Guarded SSE2
// (baseline on x86-64) and NEON (baseline on aarch64) paths cover the two
// targets CI builds; everything else takes the scalar loop.
//
// The kernel operates on a contiguous array — one reason the record path
// is struct-of-arrays (see runtime/record_batch.hpp): an AoS scan strides
// 56 bytes per record to touch one double, an SoA scan streams cache lines.
#pragma once

#include <cstddef>
#include <limits>

#if defined(__SSE2__) || defined(_M_X64)
#define VSENSOR_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__)
#define VSENSOR_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace vsensor::simd {

/// Maximum over v[0..n) (0 elements -> lowest double). Used for the
/// ship-time scan over a batch's contiguous t_end array.
inline double max_value(const double* v, size_t n) {
  double best = -std::numeric_limits<double>::infinity();
  size_t i = 0;
#if VSENSOR_SIMD_SSE2
  __m128d vbest = _mm_set1_pd(best);
  for (; i + 2 <= n; i += 2) {
    vbest = _mm_max_pd(vbest, _mm_loadu_pd(v + i));
  }
  alignas(16) double lanes[2];
  _mm_store_pd(lanes, vbest);
  best = lanes[0] > lanes[1] ? lanes[0] : lanes[1];
#elif VSENSOR_SIMD_NEON
  float64x2_t vbest = vdupq_n_f64(best);
  for (; i + 2 <= n; i += 2) vbest = vmaxq_f64(vbest, vld1q_f64(v + i));
  best = vgetq_lane_f64(vbest, 0) > vgetq_lane_f64(vbest, 1)
             ? vgetq_lane_f64(vbest, 0)
             : vgetq_lane_f64(vbest, 1);
#endif
  for (; i < n; ++i) {
    if (v[i] > best) best = v[i];
  }
  return best;
}

}  // namespace vsensor::simd

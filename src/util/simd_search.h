// Branchless bounded lower/upper-bound search over the model's error window.
//
// ALEX's scalar exponential search (util/search.h) costs O(log e) *dependent*
// comparisons. When the model's error bound is tight (paper §5.3.2 argues it
// usually is), the answer lies in a small window [predicted - err,
// predicted + err] and a branchless "count elements < key" scan over that
// window beats the dependent-compare chain: every comparison is independent,
// so the CPU can keep 4-8 in flight, and with AVX2 each vector op retires 4
// comparisons. This is the `Approx {pos, lo, hi}` shape used by RMI-style
// learned indexes: predict a position plus a bracketing window, then resolve
// inside the bracket.
//
// Correctness never depends on the error bound being valid: when the scan
// result lands on a window edge the caller may have been handed a stale
// bound, so we fall back to unbounded exponential search from that edge.
//
// Dispatch:
//   - compile time: AVX2 kernels are compiled only when ALEX_SIMD_X86
//     (util/simd_isa.h: x86-64 GCC/Clang without ALEX_DISABLE_SIMD). The
//     kernels carry __attribute__((target("avx2"))) so the rest of the TU
//     stays baseline-ISA.
//   - run time: __builtin_cpu_supports("avx2") gates the vector path, and
//     setting the ALEX_FORCE_SCALAR_SEARCH environment variable (any value)
//     forces the portable scalar path for A/B testing.
// Both paths return byte-identical results (tests/simd_search_test.cc holds
// them to a std::lower_bound oracle).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <type_traits>

#include "obs/metrics.h"
#include "util/search.h"
#include "util/simd_isa.h"

namespace alex::util {

/// Model prediction plus its bracketing error window: the answer for the
/// predicted key lies in [lo, hi) when the bound that produced the window is
/// valid. `pos` is the raw (clamped) prediction.
struct Approx {
  size_t pos;
  size_t lo;
  size_t hi;
};

/// Builds the clamped error window around `predicted` for an array of `n`
/// elements: [predicted - error, predicted + error + 1) intersected with
/// [0, n).
inline Approx ErrorWindow(size_t predicted, size_t error, size_t n) {
  if (n == 0) return Approx{0, 0, 0};
  if (predicted >= n) predicted = n - 1;
  const size_t lo = predicted > error ? predicted - error : 0;
  const size_t hi = std::min(n, predicted + error + 1);
  return Approx{predicted, lo, hi};
}

namespace simd_internal {

// Window sizes at or below this are resolved by a branchless scan; larger
// windows are first narrowed by binary steps. The default error bound
// (Config::simd_error_bound = 64) yields 129-slot windows, scanned whole.
constexpr size_t kScanThreshold = 256;

template <typename K>
inline size_t CountLessScalar(const K* data, size_t n, K key) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += data[i] < key ? 1 : 0;
  return count;
}

template <typename K>
inline size_t CountLessEqScalar(const K* data, size_t n, K key) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += data[i] <= key ? 1 : 0;
  return count;
}

#if ALEX_SIMD_X86

__attribute__((target("avx2"))) inline size_t CountLessAvx2(
    const int64_t* data, size_t n, int64_t key) {
  const __m256i key_vec = _mm256_set1_epi64x(key);
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i lt = _mm256_cmpgt_epi64(key_vec, v);
    count += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(lt)))));
  }
  for (; i < n; ++i) count += data[i] < key ? 1 : 0;
  return count;
}

__attribute__((target("avx2"))) inline size_t CountLessEqAvx2(
    const int64_t* data, size_t n, int64_t key) {
  const __m256i key_vec = _mm256_set1_epi64x(key);
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    // data[i] <= key  ==  !(data[i] > key); count via 4 - popcount(gt).
    const __m256i gt = _mm256_cmpgt_epi64(v, key_vec);
    count += 4 - static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(
                     _mm256_movemask_pd(_mm256_castsi256_pd(gt)))));
  }
  for (; i < n; ++i) count += data[i] <= key ? 1 : 0;
  return count;
}

// Unsigned 64-bit compare via the signed comparator: XOR-flipping the sign
// bit maps the unsigned order onto the signed order.
__attribute__((target("avx2"))) inline size_t CountLessAvx2(
    const uint64_t* data, size_t n, uint64_t key) {
  const __m256i bias =
      _mm256_set1_epi64x(static_cast<int64_t>(0x8000000000000000ULL));
  const __m256i key_vec = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<int64_t>(key)), bias);
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i)), bias);
    const __m256i lt = _mm256_cmpgt_epi64(key_vec, v);
    count += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(lt)))));
  }
  for (; i < n; ++i) count += data[i] < key ? 1 : 0;
  return count;
}

__attribute__((target("avx2"))) inline size_t CountLessEqAvx2(
    const uint64_t* data, size_t n, uint64_t key) {
  const __m256i bias =
      _mm256_set1_epi64x(static_cast<int64_t>(0x8000000000000000ULL));
  const __m256i key_vec = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<int64_t>(key)), bias);
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i)), bias);
    const __m256i gt = _mm256_cmpgt_epi64(v, key_vec);
    count += 4 - static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(
                     _mm256_movemask_pd(_mm256_castsi256_pd(gt)))));
  }
  for (; i < n; ++i) count += data[i] <= key ? 1 : 0;
  return count;
}

__attribute__((target("avx2"))) inline size_t CountLessAvx2(
    const double* data, size_t n, double key) {
  const __m256d key_vec = _mm256_set1_pd(key);
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(data + i);
    const __m256d lt = _mm256_cmp_pd(v, key_vec, _CMP_LT_OQ);
    count += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_pd(lt))));
  }
  for (; i < n; ++i) count += data[i] < key ? 1 : 0;
  return count;
}

__attribute__((target("avx2"))) inline size_t CountLessEqAvx2(
    const double* data, size_t n, double key) {
  const __m256d key_vec = _mm256_set1_pd(key);
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(data + i);
    const __m256d le = _mm256_cmp_pd(v, key_vec, _CMP_LE_OQ);
    count += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_pd(le))));
  }
  for (; i < n; ++i) count += data[i] <= key ? 1 : 0;
  return count;
}

#endif  // ALEX_SIMD_X86

// Key types with an AVX2 kernel above. Everything else (int32 keys, custom
// comparables) takes the scalar branchless path, which the oracle also
// covers.
template <typename K>
inline constexpr bool kHasAvx2Kernel =
    std::is_same_v<K, int64_t> || std::is_same_v<K, uint64_t> ||
    std::is_same_v<K, double>;

}  // namespace simd_internal

/// True when the AVX2 kernels are compiled in, the CPU reports AVX2, and
/// ALEX_FORCE_SCALAR_SEARCH is not set in the environment. Evaluated once.
inline bool SimdSearchEnabled() {
#if ALEX_SIMD_X86
  static const bool enabled = [] {
    if (std::getenv("ALEX_FORCE_SCALAR_SEARCH") != nullptr) return false;
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return enabled;
#else
  return false;
#endif
}

/// Lower bound over the sorted window [lo, hi): smallest index i in [lo, hi)
/// with data[i] >= key, or hi. Large windows are narrowed by binary steps,
/// then the residual window is resolved by a branchless count of elements
/// < key (AVX2 when available, scalar otherwise — identical results).
template <typename K>
size_t BoundedSearchLowerBound(const K* data, size_t lo, size_t hi, K key) {
  while (hi - lo > simd_internal::kScanThreshold) {
    const size_t mid = lo + (hi - lo) / 2;
    if (data[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
#if ALEX_SIMD_X86
  if constexpr (simd_internal::kHasAvx2Kernel<K>) {
    if (SimdSearchEnabled()) {
      ALEX_OBS_COUNTER_INC("simd.bounded_search_vector");
      return lo + simd_internal::CountLessAvx2(data + lo, hi - lo, key);
    }
  }
#endif
  ALEX_OBS_COUNTER_INC("simd.bounded_search_scalar");
  return lo + simd_internal::CountLessScalar(data + lo, hi - lo, key);
}

/// Upper-bound variant: smallest index i in [lo, hi) with data[i] > key.
template <typename K>
size_t BoundedSearchUpperBound(const K* data, size_t lo, size_t hi, K key) {
  while (hi - lo > simd_internal::kScanThreshold) {
    const size_t mid = lo + (hi - lo) / 2;
    if (data[mid] <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
#if ALEX_SIMD_X86
  if constexpr (simd_internal::kHasAvx2Kernel<K>) {
    if (SimdSearchEnabled()) {
      ALEX_OBS_COUNTER_INC("simd.bounded_search_vector");
      return lo + simd_internal::CountLessEqAvx2(data + lo, hi - lo, key);
    }
  }
#endif
  ALEX_OBS_COUNTER_INC("simd.bounded_search_scalar");
  return lo + simd_internal::CountLessEqScalar(data + lo, hi - lo, key);
}

/// Lower bound over the whole array using the model's error window. Scans
/// [predicted - error, predicted + error] branchlessly; if the result lands
/// on a window edge whose neighbour contradicts it (the bound was stale),
/// falls back to unbounded exponential search from that edge. Correct for
/// every (predicted, error), including error == 0 and predicted >= n.
template <typename K>
size_t PredictedWindowLowerBound(const K* data, size_t n, K key,
                                 size_t predicted, size_t error) {
  if (n == 0) return 0;
  const Approx w = ErrorWindow(predicted, error, n);
  const size_t pos = BoundedSearchLowerBound(data, w.lo, w.hi, key);
  if (pos == w.lo) {
    // Everything in the window is >= key; the answer may lie left of it.
    if (w.lo > 0 && data[w.lo - 1] >= key) {
      return ExponentialSearchLowerBound(data, n, key, w.lo);
    }
    return pos;
  }
  if (pos == w.hi) {
    // Everything in the window is < key; the answer may lie right of it.
    if (w.hi < n && data[w.hi] < key) {
      return ExponentialSearchLowerBound(data, n, key, w.hi);
    }
    return pos;
  }
  return pos;
}

/// Upper-bound variant of PredictedWindowLowerBound.
template <typename K>
size_t PredictedWindowUpperBound(const K* data, size_t n, K key,
                                 size_t predicted, size_t error) {
  if (n == 0) return 0;
  const Approx w = ErrorWindow(predicted, error, n);
  const size_t pos = BoundedSearchUpperBound(data, w.lo, w.hi, key);
  if (pos == w.lo) {
    if (w.lo > 0 && data[w.lo - 1] > key) {
      return ExponentialSearchUpperBound(data, n, key, w.lo);
    }
    return pos;
  }
  if (pos == w.hi) {
    if (w.hi < n && data[w.hi] <= key) {
      return ExponentialSearchUpperBound(data, n, key, w.hi);
    }
    return pos;
  }
  return pos;
}

}  // namespace alex::util

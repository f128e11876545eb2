// Compile-time gate for the x86-64 SIMD kernels (util/simd_search.h,
// util/simd_scan.h) and the SSE4.2 CRC32C checksum (core/serialization.h).
// ALEX_SIMD_X86 is 1 only on x86-64 GCC/Clang when ALEX_DISABLE_SIMD is not
// defined (CMake -DALEX_DISABLE_SIMD=ON defines it). Kernels behind it carry
// __attribute__((target(...))) so the rest of a TU stays baseline-ISA, and
// each is gated once at run time with __builtin_cpu_supports.
#pragma once

#if !defined(ALEX_DISABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define ALEX_SIMD_X86 1
#include <immintrin.h>
#else
#define ALEX_SIMD_X86 0
#endif

// Fixed-width SIMD vectors over interleaved complex data, shared by the
// FFT butterflies (fft/fft2.cpp) and the GEMM micro-kernel
// (linalg/gemm.cpp). Built on GCC/Clang vector extensions: 64-byte lanes
// on AVX-512 hardware, 32-byte otherwise (on non-x86 the compiler lowers
// the fixed-width vectors to whatever the target offers). The
// aligned(sizeof(T)) attribute makes each access legal at
// complex-element alignment. The only shuffle is the in-lane re/im swap.
#pragma once

#include <cstddef>

#if defined(__FMA__)
#include <immintrin.h>
#endif

#if defined(__GNUC__) || defined(__clang__)
#define FFW_SIMD 1
#if defined(__AVX512F__)
#define FFW_SIMD_VEC_BYTES 64
#else
#define FFW_SIMD_VEC_BYTES 32
#endif

namespace ffw {

template <typename T>
struct Simd;

template <>
struct Simd<double> {
  typedef double V __attribute__((vector_size(FFW_SIMD_VEC_BYTES), aligned(8)));
  typedef long long M __attribute__((vector_size(FFW_SIMD_VEC_BYTES)));
  // Half-width fp32 vector that widens into one V.
  typedef float H
      __attribute__((vector_size(FFW_SIMD_VEC_BYTES / 2), aligned(4)));
  static constexpr std::size_t kScalars = FFW_SIMD_VEC_BYTES / sizeof(double);
  static V load(const double* p) { return *reinterpret_cast<const V*>(p); }
  static V load(const float* p) {
    return __builtin_convertvector(*reinterpret_cast<const H*>(p), V);
  }
  static void store(double* p, V v) { *reinterpret_cast<V*>(p) = v; }
  // [re0, im0, re1, im1, ...] -> [im0, re0, im1, re1, ...]
  static V swap_pairs(V v) {
#if defined(__clang__) && FFW_SIMD_VEC_BYTES == 64
    return __builtin_shufflevector(v, v, 1, 0, 3, 2, 5, 4, 7, 6);
#elif defined(__clang__)
    return __builtin_shufflevector(v, v, 1, 0, 3, 2);
#elif FFW_SIMD_VEC_BYTES == 64
    return __builtin_shuffle(v, M{1, 0, 3, 2, 5, 4, 7, 6});
#else
    return __builtin_shuffle(v, M{1, 0, 3, 2});
#endif
  }
  static V broadcast(double a) { return a - V{}; }
  static V alt(double a) {
    V v{};
    for (std::size_t i = 0; i < kScalars; i += 2) {
      v[i] = -a;
      v[i + 1] = a;
    }
    return v;
  }
  // a*b - c in even (real) lanes, a*b + c in odd (imaginary) lanes: one
  // rounding with FMA hardware, the product rounded first without it.
  static V fmaddsub(V a, V b, V c) {
#if defined(__FMA__) && FFW_SIMD_VEC_BYTES == 64
    return _mm512_fmaddsub_pd(a, b, c);
#elif defined(__FMA__)
    return _mm256_fmaddsub_pd(a, b, c);
#else
    return a * b + c * alt(1.0);
#endif
  }
};

template <>
struct Simd<float> {
  typedef float V __attribute__((vector_size(FFW_SIMD_VEC_BYTES), aligned(4)));
  typedef int M __attribute__((vector_size(FFW_SIMD_VEC_BYTES)));
  static constexpr std::size_t kScalars = FFW_SIMD_VEC_BYTES / sizeof(float);
  static V load(const float* p) { return *reinterpret_cast<const V*>(p); }
  static void store(float* p, V v) { *reinterpret_cast<V*>(p) = v; }
  static V swap_pairs(V v) {
#if defined(__clang__) && FFW_SIMD_VEC_BYTES == 64
    return __builtin_shufflevector(v, v, 1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10,
                                   13, 12, 15, 14);
#elif defined(__clang__)
    return __builtin_shufflevector(v, v, 1, 0, 3, 2, 5, 4, 7, 6);
#elif FFW_SIMD_VEC_BYTES == 64
    return __builtin_shuffle(v, M{1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12,
                                  15, 14});
#else
    return __builtin_shuffle(v, M{1, 0, 3, 2, 5, 4, 7, 6});
#endif
  }
  static V broadcast(float a) { return a - V{}; }
  static V alt(float a) {
    V v{};
    for (std::size_t i = 0; i < kScalars; i += 2) {
      v[i] = -a;
      v[i + 1] = a;
    }
    return v;
  }
  static V fmaddsub(V a, V b, V c) {
#if defined(__FMA__) && FFW_SIMD_VEC_BYTES == 64
    return _mm512_fmaddsub_ps(a, b, c);
#elif defined(__FMA__)
    return _mm256_fmaddsub_ps(a, b, c);
#else
    return a * b + c * alt(1.0f);
#endif
  }
};

}  // namespace ffw

#endif  // FFW_SIMD

#include "linalg/gemm.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/simd.hpp"

#ifndef FFW_SIMD
#error "the GEMM micro-kernel needs the vector extensions of common/simd.hpp"
#endif

namespace ffw {

namespace {
// Register-blocked micro-kernel. One call keeps a tile of C — MV vectors
// of Simd<TD> lanes down (16 complex rows of fp64 on AVX-512) by NC <= 4
// columns — in registers across the whole k loop, so C is read and
// written once per tile instead of once per k step, and no k blocking is
// needed. Per k step it loads the tile's A vectors once, swaps their
// re/im lanes once, and shares both across the NC columns. The rounding
// of every element is pinned, independent of tile shape and of n
// (DESIGN.md Sec. 8): for p = 0, 1, ..., k-1 in order,
//   c += (fma(br, ar, -(bi*ai)), fma(br, ai, bi*ar)),
// with (br, bi) = alpha * B(p, j) and A widened to TD. Without FMA
// hardware both products round before the add/subtract.
constexpr std::size_t kNc = 4;   // widest column tile
constexpr std::size_t kNb = 16;  // columns per packed B panel

// Vectors per tile column: 4 x 4 accumulators fill half of AVX-512's 32
// registers; 32-byte targets (16 registers) take 2 x 4.
constexpr std::size_t kMv = FFW_SIMD_VEC_BYTES == 64 ? 4 : 2;

// C(0..MV*kScalars/2, 0..NC) += A * B over k steps. a and c are scalar
// pointers with leading dimensions lda / ldc in scalars; bp holds the
// alpha-scaled B row by row, bp[2*NC*p + 2*j + {0, 1}] = (re, im).
template <typename TS, typename TD, std::size_t MV, std::size_t NC>
void tile(std::size_t k, const TS* a, std::size_t lda, const TD* bp, TD* c,
          std::size_t ldc) {
  using S = Simd<TD>;
  using V = typename S::V;
  constexpr std::size_t W = S::kScalars;
  V acc[NC][MV];
#pragma GCC unroll 4
  for (std::size_t j = 0; j < NC; ++j)
#pragma GCC unroll 4
    for (std::size_t v = 0; v < MV; ++v) acc[j][v] = S::load(c + j * ldc + v * W);
  for (std::size_t p = 0; p < k; ++p, a += lda, bp += 2 * NC) {
    V av[MV], sw[MV];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < MV; ++v) {
      av[v] = S::load(a + v * W);
      sw[v] = S::swap_pairs(av[v]);
    }
#pragma GCC unroll 4
    for (std::size_t j = 0; j < NC; ++j) {
      const V br = S::broadcast(bp[2 * j]), bi = S::broadcast(bp[2 * j + 1]);
#pragma GCC unroll 4
      for (std::size_t v = 0; v < MV; ++v)
        acc[j][v] += S::fmaddsub(br, av[v], bi * sw[v]);
    }
  }
#pragma GCC unroll 4
  for (std::size_t j = 0; j < NC; ++j)
#pragma GCC unroll 4
    for (std::size_t v = 0; v < MV; ++v) S::store(c + j * ldc + v * W, acc[j][v]);
}

// tile<TS, TD, MV, NC> for every MV in 1..kMv and NC in 1..kNc, indexed
// [(MV - 1) * kNc + NC - 1].
template <typename TS, typename TD>
using TileFn = void (*)(std::size_t, const TS*, std::size_t, const TD*, TD*,
                        std::size_t);
template <typename TS, typename TD, std::size_t... I>
constexpr std::array<TileFn<TS, TD>, sizeof...(I)> make_tiles(
    std::index_sequence<I...>) {
  return {&tile<TS, TD, I / kNc + 1, I % kNc + 1>...};
}
template <typename TS, typename TD>
constexpr auto kTiles = make_tiles<TS, TD>(std::make_index_sequence<kMv * kNc>{});
}  // namespace

template <typename TS, typename TD>
void gemm_raw_t(std::size_t m, std::size_t n, std::size_t k,
                std::complex<TD> alpha, const std::complex<TS>* a,
                std::size_t lda, const std::complex<TS>* b, std::size_t ldb,
                std::complex<TD> beta, std::complex<TD>* c, std::size_t ldc) {
  using CD = std::complex<TD>;
  // Scale C by beta once up front.
  if (beta == CD{}) {
    for (std::size_t j = 0; j < n; ++j)
      std::fill(c + j * ldc, c + j * ldc + m, CD{});
  } else if (beta != CD{TD(1)}) {
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < m; ++i) c[j * ldc + i] *= beta;
  }
  if (alpha == CD{} || m == 0 || n == 0 || k == 0) return;

  // Everything below counts scalars, not complex elements.
  constexpr std::size_t W = Simd<TD>::kScalars;
  constexpr std::size_t R = kMv * W;  // rows of a full tile
  const TS* as = reinterpret_cast<const TS*>(a);
  TD* cs = reinterpret_cast<TD*>(c);
  const std::size_t full = 2 * m - 2 * m % R, rem = 2 * m - full;
  const std::size_t mv = (rem + W - 1) / W, rpad = mv * W;
  // The ragged bottom rows of A, zero-padded to whole vectors, packed
  // once; their tile runs on it and on a padded copy of C.
  static thread_local std::vector<TS> apad;
  if (rem) {
    apad.assign(k * rpad, TS(0));
    for (std::size_t p = 0; p < k; ++p)
      std::copy_n(as + 2 * p * lda + full, rem, apad.data() + p * rpad);
  }
  // alpha * B, one panel of up to kNb columns at a time, packed tile by
  // tile with each tile's columns interleaved per k step.
  static thread_local std::vector<TD> bpack;
  if (bpack.size() < 2 * k * kNb) bpack.resize(2 * k * kNb);

  for (std::size_t j0 = 0; j0 < n; j0 += kNb) {
    const std::size_t nb = std::min(kNb, n - j0);
    for (std::size_t jt = 0; jt < nb; jt += kNc) {
      const std::size_t nc = std::min(kNc, nb - jt);
      TD* dst = bpack.data() + 2 * k * jt;
      for (std::size_t p = 0; p < k; ++p)
        for (std::size_t j = 0; j < nc; ++j) {
          const CD bv = alpha * CD(b[(j0 + jt + j) * ldb + p]);
          dst[2 * (nc * p + j)] = bv.real();
          dst[2 * (nc * p + j) + 1] = bv.imag();
        }
    }
    // Row tiles outer, so a tile's A rows stay in L1 across the panel.
    for (std::size_t i = 0; i < full; i += R)
      for (std::size_t jt = 0; jt < nb; jt += kNc) {
        const std::size_t nc = std::min(kNc, nb - jt);
        kTiles<TS, TD>[(kMv - 1) * kNc + nc - 1](
            k, as + i, 2 * lda, bpack.data() + 2 * k * jt,
            cs + 2 * (j0 + jt) * ldc + i, 2 * ldc);
      }
    if (rem == 0) continue;
    for (std::size_t jt = 0; jt < nb; jt += kNc) {
      const std::size_t nc = std::min(kNc, nb - jt);
      TD* cj = cs + 2 * (j0 + jt) * ldc + full;
      alignas(64) TD cpad[R * kNc] = {};
      for (std::size_t j = 0; j < nc; ++j)
        std::copy_n(cj + 2 * j * ldc, rem, cpad + j * rpad);
      kTiles<TS, TD>[(mv - 1) * kNc + nc - 1](
          k, apad.data(), rpad, bpack.data() + 2 * k * jt, cpad, rpad);
      for (std::size_t j = 0; j < nc; ++j)
        std::copy_n(cpad + j * rpad, rem, cj + 2 * j * ldc);
    }
  }
}

template void gemm_raw_t<double, double>(
    std::size_t, std::size_t, std::size_t, cplx, const cplx*, std::size_t,
    const cplx*, std::size_t, cplx, cplx*, std::size_t);
template void gemm_raw_t<float, float>(
    std::size_t, std::size_t, std::size_t, cplx32, const cplx32*, std::size_t,
    const cplx32*, std::size_t, cplx32, cplx32*, std::size_t);
template void gemm_raw_t<float, double>(
    std::size_t, std::size_t, std::size_t, cplx, const cplx32*, std::size_t,
    const cplx32*, std::size_t, cplx, cplx*, std::size_t);

void gemm_expand_mixed(std::size_t m, std::size_t n, std::size_t k,
                       const cplx32* a, std::size_t lda, const cplx32* b,
                       std::size_t ldb, cplx32* c, std::size_t ldc) {
  // fp32 chain length before each promotion into the fp64 tile. Short
  // enough that the fp32 rounding chain stays well under the mixed
  // engine's error budget, long enough to amortise the widen-adds.
  constexpr std::size_t kChunk = 4;
  const std::size_t m2 = 2 * m;
  static thread_local std::vector<double> acc64;
  static thread_local std::vector<float> acc32;
  if (acc64.size() < m2 * 4) acc64.resize(m2 * 4);
  if (acc32.size() < m2 * 4) acc32.resize(m2 * 4);
  std::size_t j0 = 0;
  for (; j0 + 4 <= n; j0 += 4) {  // 4-column tiles, A streamed once each p
    std::fill(acc64.begin(), acc64.begin() + static_cast<std::ptrdiff_t>(m2 * 4), 0.0);
    for (std::size_t k0 = 0; k0 < k; k0 += kChunk) {
      const std::size_t kb = std::min(kChunk, k - k0);
      std::fill(acc32.begin(), acc32.begin() + static_cast<std::ptrdiff_t>(m2 * 4), 0.0f);
      float* c0 = acc32.data();
      float* c1 = acc32.data() + m2;
      float* c2 = acc32.data() + 2 * m2;
      float* c3 = acc32.data() + 3 * m2;
      for (std::size_t p = 0; p < kb; ++p) {
        const float* ap = reinterpret_cast<const float*>(a + (k0 + p) * lda);
        const cplx32 b0 = b[(j0 + 0) * ldb + k0 + p];
        const cplx32 b1 = b[(j0 + 1) * ldb + k0 + p];
        const cplx32 b2 = b[(j0 + 2) * ldb + k0 + p];
        const cplx32 b3 = b[(j0 + 3) * ldb + k0 + p];
        const float b0r = b0.real(), b0i = b0.imag();
        const float b1r = b1.real(), b1i = b1.imag();
        const float b2r = b2.real(), b2i = b2.imag();
        const float b3r = b3.real(), b3i = b3.imag();
#ifdef _OPENMP
#pragma omp simd
#endif
        for (std::size_t i = 0; i < m2; i += 2) {
          const float ar = ap[i], ai = ap[i + 1];
          c0[i] += b0r * ar - b0i * ai;
          c0[i + 1] += b0r * ai + b0i * ar;
          c1[i] += b1r * ar - b1i * ai;
          c1[i + 1] += b1r * ai + b1i * ar;
          c2[i] += b2r * ar - b2i * ai;
          c2[i + 1] += b2r * ai + b2i * ar;
          c3[i] += b3r * ar - b3i * ai;
          c3[i + 1] += b3r * ai + b3i * ar;
        }
      }
      for (std::size_t i = 0; i < m2 * 4; ++i)
        acc64[i] += static_cast<double>(acc32[i]);
    }
    for (std::size_t t = 0; t < 4; ++t) {
      float* cc = reinterpret_cast<float*>(c + (j0 + t) * ldc);
      const double* at = acc64.data() + t * m2;
      for (std::size_t i = 0; i < m2; ++i) cc[i] = static_cast<float>(at[i]);
    }
  }
  for (; j0 < n; ++j0) {  // column remainder: fp64-accumulated dots
    for (std::size_t i = 0; i < m; ++i) {
      cplx acc{};
      for (std::size_t p = 0; p < k; ++p)
        acc += cplx{a[p * lda + i]} * cplx{b[j0 * ldb + p]};
      c[j0 * ldc + i] = cplx32{static_cast<float>(acc.real()),
                               static_cast<float>(acc.imag())};
    }
  }
}

void gemm_herm_raw(std::size_t m, std::size_t n, std::size_t k, cplx alpha,
                   const cplx* a, std::size_t lda, const cplx* b,
                   std::size_t ldb, cplx beta, cplx* c, std::size_t ldc) {
  // A is stored (k x m); column i of the logical A^H is the conjugated
  // i-th column of A read contiguously, so the dot-product form is
  // already stride-1 friendly.
  for (std::size_t j = 0; j < n; ++j) {
    const cplx* bj = b + j * ldb;
    cplx* cj = c + j * ldc;
    for (std::size_t i = 0; i < m; ++i) {
      const cplx* ai = a + i * lda;
      cplx acc{};
      for (std::size_t p = 0; p < k; ++p) acc += std::conj(ai[p]) * bj[p];
      cj[i] = (beta == cplx{0.0} ? cplx{} : beta * cj[i]) + alpha * acc;
    }
  }
}

void gemm(cplx alpha, const CMatrix& a, const CMatrix& b, cplx beta,
          CMatrix& c) {
  FFW_CHECK(a.cols() == b.rows());
  FFW_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  gemm_raw(a.rows(), b.cols(), a.cols(), alpha, a.data(), a.rows(), b.data(),
           b.rows(), beta, c.data(), c.rows());
}

void gemm_herm_a(cplx alpha, const CMatrix& a, const CMatrix& b, cplx beta,
                 CMatrix& c) {
  FFW_CHECK(a.rows() == b.rows());
  FFW_CHECK(c.rows() == a.cols() && c.cols() == b.cols());
  gemm_herm_raw(a.cols(), b.cols(), a.rows(), alpha, a.data(), a.rows(),
                b.data(), b.rows(), beta, c.data(), c.rows());
}

}  // namespace ffw

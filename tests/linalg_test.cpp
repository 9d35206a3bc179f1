// Dense/banded/diagonal linear-algebra substrate tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "linalg/banded.hpp"
#include "linalg/cmatrix.hpp"
#include "linalg/gemm.hpp"
#include "linalg/kernels.hpp"
#include "linalg/lu.hpp"

namespace ffw {
namespace {

CMatrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  CMatrix m(r, c);
  for (std::size_t j = 0; j < c; ++j)
    for (std::size_t i = 0; i < r; ++i) m(i, j) = rng.cnormal();
  return m;
}

void naive_gemm(cplx alpha, const CMatrix& a, const CMatrix& b, cplx beta,
                CMatrix& c) {
  for (std::size_t j = 0; j < b.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) {
      cplx acc{};
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = beta * c(i, j) + alpha * acc;
    }
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + n * 100 + k));
  const CMatrix a = random_matrix(static_cast<std::size_t>(m),
                                  static_cast<std::size_t>(k), rng);
  const CMatrix b = random_matrix(static_cast<std::size_t>(k),
                                  static_cast<std::size_t>(n), rng);
  CMatrix c1 = random_matrix(static_cast<std::size_t>(m),
                             static_cast<std::size_t>(n), rng);
  CMatrix c2 = c1;
  const cplx alpha{1.3, -0.4}, beta{0.2, 0.9};
  gemm(alpha, a, b, beta, c1);
  naive_gemm(alpha, a, b, beta, c2);
  double err = 0.0;
  for (std::size_t j = 0; j < c1.cols(); ++j)
    for (std::size_t i = 0; i < c1.rows(); ++i)
      err = std::max(err, std::abs(c1(i, j) - c2(i, j)));
  EXPECT_LT(err, 1e-11 * static_cast<double>(k));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{4, 2, 128},
                      std::tuple{5, 3, 7}, std::tuple{64, 64, 64},
                      std::tuple{74, 9, 64}, std::tuple{13, 1, 250},
                      std::tuple{8, 2, 129}, std::tuple{3, 5, 2}));

// The GEMM kernel's rounding contract (DESIGN.md Sec. 8): every element
// of C accumulates its k terms in ascending order, each term spelled
//   c += (fma(br, ar, -(bi*ai)), fma(br, ai, bi*ar)),
// with A and B widened to the accumulation scalar TD first. This is the
// scalar reference the tests below hold the kernel to, byte for byte.
template <typename TS, typename TD>
void pinned_fma_gemm(std::size_t m, std::size_t n, std::size_t k,
                     const std::complex<TS>* a, std::size_t lda,
                     const std::complex<TS>* b, std::size_t ldb, bool beta1,
                     std::complex<TD>* c, std::size_t ldc) {
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) {
      TD cr = beta1 ? c[j * ldc + i].real() : TD(0);
      TD ci = beta1 ? c[j * ldc + i].imag() : TD(0);
      for (std::size_t p = 0; p < k; ++p) {
        const TD ar = a[p * lda + i].real(), ai = a[p * lda + i].imag();
        const TD br = b[j * ldb + p].real(), bi = b[j * ldb + p].imag();
        cr += std::fma(br, ar, -(bi * ai));
        ci += std::fma(br, ai, bi * ar);
      }
      c[j * ldc + i] = {cr, ci};
    }
}

template <typename T>
std::vector<std::complex<T>> random_cvec(std::size_t n, Rng& rng) {
  std::vector<std::complex<T>> v(n);
  for (auto& z : v) {
    const cplx w = rng.cnormal();
    z = {static_cast<T>(w.real()), static_cast<T>(w.imag())};
  }
  return v;
}

template <typename TS, typename TD>
void expect_matches_pinned_reference() {
  using CD = std::complex<TD>;
  for (const std::size_t m : {1, 3, 5, 18, 22, 30, 64, 74, 256})
    for (const std::size_t n : {4, 8, 16})
      for (const std::size_t k : {22, 64, 200})
        for (const bool beta1 : {false, true}) {
          Rng rng(1000 * m + 100 * n + k);
          const auto a = random_cvec<TS>(m * k, rng);
          const auto b = random_cvec<TS>(k * n, rng);
          auto got = random_cvec<TD>(m * n, rng);
          auto want = got;
          gemm_raw_t<TS, TD>(m, n, k, CD{TD(1)}, a.data(), m, b.data(), k,
                             beta1 ? CD{TD(1)} : CD{}, got.data(), m);
          pinned_fma_gemm<TS, TD>(m, n, k, a.data(), m, b.data(), k, beta1,
                                  want.data(), m);
          EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                   got.size() * sizeof(CD)))
              << "m=" << m << " n=" << n << " k=" << k << " beta=" << beta1;
        }
}

TEST(Gemm, WidePathMatchesPinnedFmaReference) {
#ifndef __FMA__
  GTEST_SKIP() << "built without FMA instructions (__FMA__ undefined): the "
                  "kernel takes its unfused multiply-then-add form, which "
                  "the std::fma reference does not describe";
#endif
  expect_matches_pinned_reference<double, double>();
  expect_matches_pinned_reference<float, float>();
  expect_matches_pinned_reference<float, double>();
}

// Every column of C depends only on its own column of B: column j of an
// n-wide product is the 1-wide product, byte for byte, whatever n (and so
// whichever column tile width) and whatever the leading dimensions. Holds
// on every build, with or without FMA.
template <typename TS, typename TD>
void expect_columns_match_single_column_products() {
  using CD = std::complex<TD>;
  const std::size_t m = 37, k = 29;
  const std::size_t lda = m + 3, ldb = k + 2, ldc = m + 1;
  for (std::size_t n = 1; n <= 17; ++n) {
    Rng rng(77 + n);
    const auto a = random_cvec<TS>(lda * k, rng);
    const auto b = random_cvec<TS>(ldb * n, rng);
    const auto c0 = random_cvec<TD>(ldc * n, rng);
    auto wide = c0;
    gemm_raw_t<TS, TD>(m, n, k, CD{TD(1)}, a.data(), lda, b.data(), ldb,
                       CD{TD(1)}, wide.data(), ldc);
    for (std::size_t j = 0; j < n; ++j) {
      std::vector<CD> col(c0.begin() + static_cast<std::ptrdiff_t>(j * ldc),
                          c0.begin() + static_cast<std::ptrdiff_t>(j * ldc + m));
      gemm_raw_t<TS, TD>(m, 1, k, CD{TD(1)}, a.data(), lda,
                         b.data() + j * ldb, ldb, CD{TD(1)}, col.data(), m);
      EXPECT_EQ(0, std::memcmp(col.data(), wide.data() + j * ldc,
                               m * sizeof(CD)))
          << "n=" << n << " column " << j;
    }
  }
}

TEST(Gemm, ColumnsMatchSingleColumnProductsBitForBit) {
  expect_columns_match_single_column_products<double, double>();
  expect_columns_match_single_column_products<float, float>();
  expect_columns_match_single_column_products<float, double>();
}

TEST(Gemm, HermitianVariantMatchesNaive) {
  Rng rng(99);
  const CMatrix a = random_matrix(37, 12, rng);
  const CMatrix b = random_matrix(37, 5, rng);
  CMatrix c(12, 5);
  gemm_herm_a(cplx{1.0}, a, b, cplx{0.0}, c);
  const CMatrix ah = a.hermitian();
  CMatrix ref(12, 5);
  naive_gemm(cplx{1.0}, ah, b, cplx{0.0}, ref);
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < 12; ++i)
      EXPECT_NEAR(std::abs(c(i, j) - ref(i, j)), 0.0, 1e-12);
}

TEST(Lu, SolveRandomSystem) {
  Rng rng(5);
  const std::size_t n = 40;
  const CMatrix a = random_matrix(n, n, rng);
  cvec x_true(n);
  rng.fill_cnormal(x_true);
  cvec b(n);
  matvec(a, x_true, b);
  const cvec x = lu_solve(a, b);
  EXPECT_LT(rel_l2_diff(x, x_true), 1e-10);
}

TEST(Lu, HermitianSolve) {
  Rng rng(6);
  const std::size_t n = 25;
  const CMatrix a = random_matrix(n, n, rng);
  LuFactors lu(a);
  cvec x_true(n), b(n);
  rng.fill_cnormal(x_true);
  // b = A^H x_true
  const CMatrix ah = a.hermitian();
  matvec(ah, x_true, b);
  const cvec x = lu.solve_herm(b);
  EXPECT_LT(rel_l2_diff(x, x_true), 1e-10);
}

TEST(Lu, PivotRatioDetectsConditioning) {
  CMatrix ident(8, 8);
  for (std::size_t i = 0; i < 8; ++i) ident(i, i) = 1.0;
  LuFactors lu(std::move(ident));
  EXPECT_DOUBLE_EQ(lu.pivot_ratio(), 1.0);
}

TEST(Banded, ApplyMatchesDense) {
  // A 12->20 periodic band matrix with random band coefficients.
  Rng rng(7);
  PeriodicBandMatrix w(20, 12, 5);
  for (std::size_t r = 0; r < 20; ++r) {
    w.set_first(r, (r * 3 + 5) % 12);
    for (std::size_t j = 0; j < 5; ++j) w.coeff(r, j) = rng.uniform(-1, 1);
  }
  cvec x(12), y(20);
  rng.fill_cnormal(x);
  w.apply(x, y);
  const auto dense = w.to_dense();
  for (std::size_t r = 0; r < 20; ++r) {
    cplx acc{};
    for (std::size_t c = 0; c < 12; ++c) acc += dense[r][c] * x[c];
    EXPECT_NEAR(std::abs(y[r] - acc), 0.0, 1e-13);
  }
}

TEST(Banded, AdjointIsTranspose) {
  Rng rng(8);
  PeriodicBandMatrix w(16, 10, 4);
  for (std::size_t r = 0; r < 16; ++r) {
    w.set_first(r, (2 * r) % 10);
    for (std::size_t j = 0; j < 4; ++j) w.coeff(r, j) = rng.uniform(-1, 1);
  }
  cvec x(10), y(16), wx(16), wty(10);
  rng.fill_cnormal(x);
  rng.fill_cnormal(y);
  w.apply(x, wx);
  w.apply_adjoint(y, wty);
  // <W x, y> == <x, W^T y> for real coefficients.
  EXPECT_NEAR(std::abs(cdot(wx, y) - cdot(x, wty)), 0.0, 1e-12);
}

TEST(Kernels, DotNormAxpy) {
  cvec x{{1, 2}, {3, -1}}, y{{0, 1}, {2, 2}};
  const cplx d = cdot(x, y);
  // conj(1+2i)*(0+i) + conj(3-i)*(2+2i) = (1-2i)(i) + (3+i)(2+2i)
  // = (2 + i) + (4 + 8i) = 6 + 9i
  EXPECT_NEAR(std::abs(d - cplx(6, 9)), 0.0, 1e-14);
  EXPECT_NEAR(nrm2(x), std::sqrt(15.0), 1e-14);
  axpy(cplx{2.0}, x, y);
  EXPECT_NEAR(std::abs(y[0] - cplx(2, 5)), 0.0, 1e-14);
}

TEST(Kernels, DiagOps) {
  cvec d{{2, 0}, {0, 1}}, x{{1, 1}, {3, 0}}, y(2);
  diag_mul(d, x, y);
  EXPECT_NEAR(std::abs(y[0] - cplx(2, 2)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(y[1] - cplx(0, 3)), 0.0, 1e-14);
  diag_mul_conj(d, x, y);
  EXPECT_NEAR(std::abs(y[1] - cplx(0, -3)), 0.0, 1e-14);
}

TEST(Matrix, HermitianTranspose) {
  Rng rng(9);
  const CMatrix a = random_matrix(6, 4, rng);
  const CMatrix ah = a.hermitian();
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_EQ(ah(j, i), std::conj(a(i, j)));
}

}  // namespace
}  // namespace ffw

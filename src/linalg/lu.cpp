#include "linalg/lu.hpp"

#include <cmath>
#include <utility>

namespace ffw {

void lu_factor_inplace(cplx* a, std::size_t n, std::size_t* perm) {
  std::vector<std::size_t> stops;  // rows with a zero multiplier, then n
  for (std::size_t k = 0; k < n; ++k) {
    cplx* colk = a + k * n;
    // Partial pivot: largest |value| in column k at or below the diagonal.
    std::size_t piv = k;
    double best = std::abs(colk[k]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(colk[r]);
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    FFW_CHECK_MSG(best > 0.0, "singular matrix in LU");
    perm[k] = piv;
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(a[c * n + k], a[c * n + piv]);
    }
    const cplx dk = colk[k];
    stops.clear();
    for (std::size_t r = k + 1; r < n; ++r) {
      colk[r] /= dk;
      if (colk[r] == cplx{0.0}) stops.push_back(r);
    }
    stops.push_back(n);
    // Trailing update column by column, so the inner loop runs down a
    // column of the column-major storage. Each entry receives the same
    // single update per pivot step as a row-by-row sweep, with the same
    // rounding (lu_mul_sub), so the loop order does not move a bit. Rows
    // with a zero multiplier are skipped: the update runs over the row
    // ranges between them (almost always the single range k+1..n-1).
    const double* mk = reinterpret_cast<const double*>(colk);
    for (std::size_t c = k + 1; c < n; ++c) {
      double* cc = reinterpret_cast<double*>(a + c * n);
      const double ur = cc[2 * k], ui = cc[2 * k + 1];
      std::size_t begin = k + 1;
      for (const std::size_t stop : stops) {
#ifdef _OPENMP
#pragma omp simd
#endif
        for (std::size_t r = begin; r < stop; ++r)
          lu_mul_sub(cc[2 * r], cc[2 * r + 1], mk[2 * r], mk[2 * r + 1], ur,
                     ui);
        begin = stop + 1;
      }
    }
  }
}

LuFactors::LuFactors(CMatrix a) : lu_(std::move(a)), perm_(lu_.rows()) {
  FFW_CHECK_MSG(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  lu_factor_inplace(lu_.data(), lu_.rows(), perm_.data());
}

cvec LuFactors::solve(ccspan b) const {
  const std::size_t n = dim();
  FFW_CHECK(b.size() == n);
  cvec x(b.begin(), b.end());
  // Apply all row interchanges first: the stored L lives in the *final*
  // row ordering (factorisation swaps whole rows, multipliers included),
  // so P b must be formed completely before forward substitution.
  for (std::size_t k = 0; k < n; ++k) {
    if (perm_[k] != k) std::swap(x[k], x[perm_[k]]);
  }
  for (std::size_t k = 0; k < n; ++k) {  // L y = P b (unit lower)
    for (std::size_t r = k + 1; r < n; ++r) x[r] -= lu_(r, k) * x[k];
  }
  for (std::size_t k = n; k-- > 0;) {  // back substitution
    for (std::size_t c = k + 1; c < n; ++c) x[k] -= lu_(k, c) * x[c];
    x[k] /= lu_(k, k);
  }
  return x;
}

cvec LuFactors::solve_herm(ccspan b) const {
  // A = P^T L U  =>  A^H = U^H L^H P. Solve U^H y = b, then L^H z = y,
  // then x = P^T z (undo pivots in reverse).
  const std::size_t n = dim();
  FFW_CHECK(b.size() == n);
  cvec x(b.begin(), b.end());
  for (std::size_t k = 0; k < n; ++k) {  // U^H is lower triangular
    for (std::size_t c = 0; c < k; ++c) x[k] -= std::conj(lu_(c, k)) * x[c];
    x[k] /= std::conj(lu_(k, k));
  }
  for (std::size_t k = n; k-- > 0;) {  // L^H is unit upper triangular
    for (std::size_t r = k + 1; r < n; ++r) x[k] -= std::conj(lu_(r, k)) * x[r];
  }
  for (std::size_t k = n; k-- > 0;) {
    if (perm_[k] != k) std::swap(x[k], x[perm_[k]]);
  }
  return x;
}

double LuFactors::pivot_ratio() const {
  double lo = 1e300, hi = 0.0;
  for (std::size_t k = 0; k < dim(); ++k) {
    const double p = std::abs(lu_(k, k));
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  return hi > 0.0 ? lo / hi : 0.0;
}

cvec lu_solve(const CMatrix& a, ccspan b) { return LuFactors(a).solve(b); }

}  // namespace ffw

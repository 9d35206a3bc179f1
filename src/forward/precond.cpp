#include "forward/precond.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "linalg/lu.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {

namespace {

// Triangular sweeps of one packed LU block (column-major, unit-lower L
// with the multipliers below the diagonal, pivot row per step) over a
// row-major tile w of nrhs columns: row i of the tile holds entry i of
// every column. Each substitution step runs across all columns at once,
// so every LU entry is loaded once per block and the inner loop is
// unit-stride. Per column, the operations and their order are those of
// a single-vector forward/back substitution, so a column's bits do not
// depend on nrhs. T is the factor storage precision.
template <typename T>
void swap_rows(std::complex<T>* w, std::size_t nrhs, std::size_t a,
               std::size_t b) {
  std::swap_ranges(w + a * nrhs, w + (a + 1) * nrhs, w + b * nrhs);
}

/// Tile row i as interleaved (re, im) reals.
template <typename T>
T* row(std::complex<T>* w, std::size_t nrhs, std::size_t i) {
  return reinterpret_cast<T*>(w + i * nrhs);
}

template <typename T>
void lu_solve_tile(const std::complex<T>* lu, const std::uint32_t* piv,
                   std::size_t n, std::complex<T>* w, std::size_t nrhs) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t p = piv[k];
    if (p != k) swap_rows(w, nrhs, k, p);
  }
  for (std::size_t k = 0; k < n; ++k) {  // L y = P b (unit lower)
    const std::complex<T>* col = lu + k * n;
    const T* wk = row(w, nrhs, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const T lr = col[r].real(), li = col[r].imag();
      T* wr = row(w, nrhs, r);
#ifdef _OPENMP
#pragma omp simd
#endif
      for (std::size_t j = 0; j < nrhs; ++j)  // w_r -= w_k * l
        lu_mul_sub(wr[2 * j], wr[2 * j + 1], wk[2 * j], wk[2 * j + 1], lr, li);
    }
  }
  for (std::size_t k = n; k-- > 0;) {  // U x = y
    T* wk = row(w, nrhs, k);
    for (std::size_t c = k + 1; c < n; ++c) {
      const T ur = lu[c * n + k].real(), ui = lu[c * n + k].imag();
      const T* wc = row(w, nrhs, c);
#ifdef _OPENMP
#pragma omp simd
#endif
      for (std::size_t j = 0; j < nrhs; ++j)  // w_k -= u * w_c
        lu_mul_sub(wk[2 * j], wk[2 * j + 1], ur, ui, wc[2 * j], wc[2 * j + 1]);
    }
    const std::complex<T> d = lu[k * n + k];
    std::complex<T>* wkc = w + k * nrhs;
    for (std::size_t j = 0; j < nrhs; ++j) wkc[j] = wkc[j] / d;
  }
}

/// Hermitian-transpose solve of one packed block over a tile:
/// A = P^T L U  =>  A^H = U^H L^H P (mirrors LuFactors::solve_herm).
template <typename T>
void lu_solve_herm_tile(const std::complex<T>* lu, const std::uint32_t* piv,
                        std::size_t n, std::complex<T>* w, std::size_t nrhs) {
  for (std::size_t k = 0; k < n; ++k) {  // U^H y = b (lower triangular)
    const std::complex<T>* col = lu + k * n;
    T* wk = row(w, nrhs, k);
    for (std::size_t c = 0; c < k; ++c) {
      const T ur = col[c].real(), ui = -col[c].imag();
      const T* wc = row(w, nrhs, c);
#ifdef _OPENMP
#pragma omp simd
#endif
      for (std::size_t j = 0; j < nrhs; ++j)  // w_k -= w_c * conj(u)
        lu_mul_sub(wk[2 * j], wk[2 * j + 1], wc[2 * j], wc[2 * j + 1], ur, ui);
    }
    const std::complex<T> d = std::conj(col[k]);
    std::complex<T>* wkc = w + k * nrhs;
    for (std::size_t j = 0; j < nrhs; ++j) wkc[j] = wkc[j] / d;
  }
  for (std::size_t k = n; k-- > 0;) {  // L^H z = y (unit upper)
    T* wk = row(w, nrhs, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const T lr = lu[k * n + r].real(), li = -lu[k * n + r].imag();
      const T* wr = row(w, nrhs, r);
#ifdef _OPENMP
#pragma omp simd
#endif
      for (std::size_t j = 0; j < nrhs; ++j)  // w_k -= conj(l) * w_r
        lu_mul_sub(wk[2 * j], wk[2 * j + 1], lr, li, wr[2 * j], wr[2 * j + 1]);
    }
  }
  for (std::size_t k = n; k-- > 0;) {  // x = P^T z
    const std::uint32_t p = piv[k];
    if (p != k) swap_rows(w, nrhs, k, p);
  }
}

}  // namespace

NearFieldBlockJacobi::NearFieldBlockJacobi(const CMatrix& self_block,
                                           ccspan contrast_clu,
                                           Precision storage)
    : storage_(storage) {
  FFW_TRACE_SPAN("precond.setup", obs::kNoArg, obs::Counter::kPrecondSetupNs);
  np_ = self_block.rows();
  FFW_CHECK_MSG(np_ > 0 && self_block.cols() == np_,
                "near-field self block must be square");
  FFW_CHECK_MSG(contrast_clu.size() % np_ == 0,
                "contrast slice must cover whole leaf panels");
  nblocks_ = contrast_clu.size() / np_;
  piv_.resize(nblocks_ * np_);
  if (storage_ == Precision::kMixed) {
    lu32_.resize(nblocks_ * np_ * np_);
  } else {
    lu64_.resize(nblocks_ * np_ * np_);
  }

  // Blocks are independent, so each is factored by whichever thread
  // draws it, in its own scratch, with the same arithmetic at any
  // thread count.
  struct Scratch {
    cvec m;
    std::vector<std::size_t> piv;
  };
  std::vector<Scratch> scratch(static_cast<std::size_t>(num_threads()));
  parallel_for(0, nblocks_, [&](std::size_t c) {
    Scratch& s = scratch[static_cast<std::size_t>(thread_rank())];
    s.m.resize(np_ * np_);
    s.piv.resize(np_);
    // M_c = I - A_self * diag(O_c): column j is e_j - O_c[j] * A_self[:,j].
    const cplx* o = contrast_clu.data() + c * np_;
    for (std::size_t j = 0; j < np_; ++j) {
      const cplx oj = o[j];
      cplx* mj = s.m.data() + j * np_;
      for (std::size_t i = 0; i < np_; ++i)
        mj[i] = (i == j ? cplx{1.0} : cplx{}) - self_block(i, j) * oj;
    }
    lu_factor_inplace(s.m.data(), np_, s.piv.data());  // fp64, always
    for (std::size_t k = 0; k < np_; ++k)
      piv_[c * np_ + k] = static_cast<std::uint32_t>(s.piv[k]);
    if (storage_ == Precision::kMixed) {
      cplx32* dst = lu32_.data() + c * np_ * np_;
      for (std::size_t i = 0; i < np_ * np_; ++i) dst[i] = narrow(s.m[i]);
    } else {
      std::copy(s.m.begin(), s.m.end(), lu64_.data() + c * np_ * np_);
    }
  });
}

template <typename T, bool Herm>
void NearFieldBlockJacobi::solve_all(ccspan x, cspan z,
                                     const BlockLayout& lo) const {
  FFW_CHECK(lo.panel == np_ && lo.npanels == nblocks_);
  FFW_CHECK(x.size() == lo.size() && z.size() == lo.size());
  const std::complex<T>* lu_base;
  if constexpr (std::is_same_v<T, float>) {
    lu_base = lu32_.data();
  } else {
    lu_base = lu64_.data();
  }
  const std::size_t nrhs = lo.nrhs;
  std::vector<std::vector<std::complex<T>>> tiles(
      static_cast<std::size_t>(num_threads()));
  parallel_for(0, nblocks_, [&](std::size_t c) {
    std::vector<std::complex<T>>& w =
        tiles[static_cast<std::size_t>(thread_rank())];
    w.resize(np_ * nrhs);
    for (std::size_t r = 0; r < nrhs; ++r) {
      const cplx* xs = x.data() + lo.at(c, r);
      for (std::size_t i = 0; i < np_; ++i)
        w[i * nrhs + r] = to_scalar<T>(xs[i]);
    }
    const std::complex<T>* lu = lu_base + c * np_ * np_;
    const std::uint32_t* piv = piv_.data() + c * np_;
    if constexpr (Herm) {
      lu_solve_herm_tile(lu, piv, np_, w.data(), nrhs);
    } else {
      lu_solve_tile(lu, piv, np_, w.data(), nrhs);
    }
    for (std::size_t r = 0; r < nrhs; ++r) {
      cplx* zs = z.data() + lo.at(c, r);
      for (std::size_t i = 0; i < np_; ++i)
        zs[i] = cplx{w[i * nrhs + r].real(), w[i * nrhs + r].imag()};
    }
  });
}

void NearFieldBlockJacobi::apply(ccspan x, cspan z,
                                 const BlockLayout& lo) const {
  FFW_TRACE_SPAN("precond.apply", obs::kNoArg, obs::Counter::kPrecondApplyNs);
  if (storage_ == Precision::kMixed) {
    solve_all<float, false>(x, z, lo);
  } else {
    solve_all<double, false>(x, z, lo);
  }
}

void NearFieldBlockJacobi::apply_herm(ccspan x, cspan z,
                                      const BlockLayout& lo) const {
  FFW_TRACE_SPAN("precond.apply", obs::kNoArg, obs::Counter::kPrecondApplyNs);
  if (storage_ == Precision::kMixed) {
    solve_all<float, true>(x, z, lo);
  } else {
    solve_all<double, true>(x, z, lo);
  }
}

std::size_t NearFieldBlockJacobi::bytes() const {
  return lu64_.size() * sizeof(cplx) + lu32_.size() * sizeof(cplx32) +
         piv_.size() * sizeof(std::uint32_t);
}

}  // namespace ffw

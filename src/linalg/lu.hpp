// Dense LU factorisation with partial pivoting. This is the O(N^3)
// direct solver the paper contrasts against (Sec. I); we use it as the
// exact reference for small problems in tests and as the dense forward
// solver in `forward/dense_ref`.
#pragma once

#include <cmath>
#include <vector>

#include "linalg/cmatrix.hpp"

namespace ffw {

class LuFactors {
 public:
  /// Factor A = P * L * U in place (A is copied). Aborts on exactly
  /// singular pivots; `nearly_singular()` reports pivot conditioning.
  explicit LuFactors(CMatrix a);

  /// Solve A x = b. b.size() == n.
  cvec solve(ccspan b) const;

  /// Solve A^H x = b (uses U^H L^H P^T without refactoring).
  cvec solve_herm(ccspan b) const;

  /// Ratio of smallest to largest |pivot| — a cheap conditioning probe.
  double pivot_ratio() const;

  std::size_t dim() const { return lu_.rows(); }

  /// Packed factors (column-major; unit-lower L multipliers below the
  /// diagonal, U on and above) and the pivot row chosen at each step —
  /// exposed so batched consumers (forward/precond.hpp packs one LU per
  /// leaf) can copy the factorisation into their own storage layout.
  const CMatrix& factors() const { return lu_; }
  const std::vector<std::size_t>& pivots() const { return perm_; }

 private:
  CMatrix lu_;
  std::vector<std::size_t> perm_;  // row permutation: pivot row at step k
};

/// acc -= x * y on complex numbers held as (re, im) reals, with the
/// product spelled as fused multiply-adds: re -= fma(xr, yr, -(xi yi)),
/// im -= fma(xr, yi, xi yr) — the rounding FMA contraction gave the
/// std::complex `acc -= x * y` of the earlier scalar LU kernels. Spelled
/// out, it stays the same whatever the loop order and however a loop is
/// vectorised (left to the compiler, a vector body and its scalar tail
/// may fuse different products), which keeps the LU kernels' bits fixed.
template <typename T>
inline void lu_mul_sub(T& acc_re, T& acc_im, T xr, T xi, T yr, T yi) {
  acc_re -= std::fma(xr, yr, -(xi * yi));
  acc_im -= std::fma(xr, yi, xi * yr);
}

/// Factors the column-major n x n matrix at `a` in place into the packed
/// layout of LuFactors::factors() and writes the pivot row of each step
/// to `perm` (n entries). LuFactors runs on it; batched consumers
/// (forward/precond.hpp) call it on their own per-thread storage.
void lu_factor_inplace(cplx* a, std::size_t n, std::size_t* perm);

/// Determinant-free convenience: solve A x = b with a one-shot LU.
cvec lu_solve(const CMatrix& a, ccspan b);

}  // namespace ffw

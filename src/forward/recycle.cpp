#include "forward/recycle.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "linalg/lu.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {

std::size_t KrylovRecycler::seed(ccspan b, cspan x, const BlockLayout& lo,
                                 const DotReducer& reduce) const {
  FFW_CHECK(b.size() == lo.size() && x.size() == lo.size());
  std::fill(x.begin(), x.end(), cplx{});
  const std::size_t m = snaps_.size();
  if (m == 0) return 0;
  for (const Snapshot& s : snaps_) FFW_CHECK(s.b.size() == lo.size());

  // All Gram entries and projections of every column in ONE reduction:
  // per column r the m x m Gram G(i,j) = <b_i, b_j>_r row-major, then the
  // m projections c_i = <b_i, b_new>_r. Batching keeps the collective
  // count independent of depth and the coefficients bit-identical across
  // serial, parallel, and rerun executions.
  const std::size_t per_col = m * m + m;
  cvec dots(lo.nrhs * per_col);
  parallel_for(0, lo.nrhs, [&](std::size_t r) {
    cplx* d = dots.data() + r * per_col;
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < m; ++j)
        d[i * m + j] = block_col_dot(lo, snaps_[i].b, snaps_[j].b, r);
    for (std::size_t i = 0; i < m; ++i)
      d[m * m + i] = block_col_dot(lo, snaps_[i].b, b, r);
  });
  reduce.sum_cplx_vec(cspan{dots});

  // Columns are independent from here on: each solves its own ridge
  // system and accumulates only its own slice of x.
  std::vector<char> hit(lo.nrhs, 0);
  parallel_for(0, lo.nrhs, [&](std::size_t r) {
    const cplx* d = dots.data() + r * per_col;
    double trace = 0.0;
    for (std::size_t i = 0; i < m; ++i) trace += d[i * m + i].real();
    if (!(trace > 0.0)) return;  // degenerate history for this column
    const double ridge = opts_.ridge * trace / static_cast<double>(m);
    CMatrix g(m, m);
    cvec c(m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) g(i, j) = d[i * m + j];
      g(i, i) += ridge;
      c[i] = d[m * m + i];
    }
    const cvec a = lu_solve(g, c);
    // x += a_i x_i on split reals, each complex multiply-add spelled as
    // one std::fma on a named product so its rounding does not depend
    // on how the compiler contracts the loop.
    double* xd = reinterpret_cast<double*>(x.data());
    for (std::size_t i = 0; i < m; ++i) {
      const double ar = a[i].real(), ai = a[i].imag();
      const double* sd = reinterpret_cast<const double*>(snaps_[i].x.data());
      for (std::size_t p = 0; p < lo.npanels; ++p) {
        const std::size_t o = 2 * lo.at(p, r);
        for (std::size_t k = 0; k < 2 * lo.panel; k += 2) {
          const double br = sd[o + k], bi = sd[o + k + 1];
          xd[o + k] += std::fma(ar, br, -(ai * bi));
          xd[o + k + 1] += std::fma(ar, bi, ai * br);
        }
      }
    }
    hit[r] = 1;
  });
  const auto seeded =
      static_cast<std::size_t>(std::count(hit.begin(), hit.end(), 1));
  // Counters are per thread: record on the caller, not on the workers.
  obs::add(obs::Counter::kRecycleHits, seeded);
  return seeded;
}

void KrylovRecycler::store(ccspan b, ccspan x, const BlockLayout& lo) {
  if (opts_.depth == 0) return;
  FFW_CHECK(b.size() == lo.size() && x.size() == lo.size());
  snaps_.push_back(Snapshot{cvec(b.begin(), b.end()), cvec(x.begin(), x.end())});
  while (snaps_.size() > opts_.depth) snaps_.pop_front();
}

}  // namespace ffw

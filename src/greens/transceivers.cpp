#include "greens/transceivers.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "greens/greens.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {

std::vector<Vec2> ring_positions(int count, double radius, double angle_begin,
                                 double angle_end) {
  FFW_CHECK(count >= 1 && radius > 0.0);
  std::vector<Vec2> out(static_cast<std::size_t>(count));
  const double span = angle_end - angle_begin;
  for (int i = 0; i < count; ++i) {
    const double a = angle_begin + span * i / count;
    out[static_cast<std::size_t>(i)] = {radius * std::cos(a),
                                        radius * std::sin(a)};
  }
  return out;
}

Transceivers::Transceivers(const Grid& grid, std::vector<Vec2> transmitters,
                           std::vector<Vec2> receivers,
                           std::size_t materialize_budget)
    : grid_(&grid), tx_(std::move(transmitters)), rx_(std::move(receivers)) {
  FFW_CHECK(!tx_.empty() && !rx_.empty());
  const std::size_t n = grid.num_pixels();
  if (rx_.size() * n <= materialize_budget) {
    CMatrix m(rx_.size(), n);
    parallel_for(0, rx_.size(), [&](std::size_t r) {
      for (std::size_t p = 0; p < n; ++p) {
        m(r, p) = gr_entry(static_cast<int>(r), p);
      }
    });
    gr_ = std::move(m);
  }
}

cplx Transceivers::gr_entry(int r, std::size_t pixel) const {
  const int nx = grid_->nx();
  const Vec2 rp = grid_->pixel_center(static_cast<int>(pixel) % nx,
                                      static_cast<int>(pixel) / nx);
  const double d = norm(rx_[static_cast<std::size_t>(r)] - rp);
  return source_factor(*grid_) * g0_point(grid_->k0(), d);
}

cvec Transceivers::incident_field(int t) const {
  FFW_CHECK(t >= 0 && t < num_transmitters());
  const std::size_t n = grid_->num_pixels();
  const int nx = grid_->nx();
  const Vec2 src = tx_[static_cast<std::size_t>(t)];
  cvec out(n);
  parallel_for(0, n, [&](std::size_t p) {
    const Vec2 rp = grid_->pixel_center(static_cast<int>(p) % nx,
                                        static_cast<int>(p) / nx);
    out[p] = g0_point(grid_->k0(), norm(rp - src));
  });
  return out;
}

void Transceivers::apply_gr_subset(ccspan x_sub,
                                   std::span<const std::uint32_t> pixels,
                                   cspan y_accum) const {
  FFW_CHECK(x_sub.size() == pixels.size() && y_accum.size() == rx_.size());
  const std::size_t m = rx_.size();
  if (gr_) {
    for (std::size_t i = 0; i < pixels.size(); ++i) {
      const cplx xi = x_sub[i];
      const cplx* col = gr_->col(pixels[i]).data();
      for (std::size_t r = 0; r < m; ++r) y_accum[r] += col[r] * xi;
    }
    return;
  }
  for (std::size_t r = 0; r < m; ++r) {
    cplx acc{};
    for (std::size_t i = 0; i < pixels.size(); ++i)
      acc += gr_entry(static_cast<int>(r), pixels[i]) * x_sub[i];
    y_accum[r] += acc;
  }
}

void Transceivers::apply_gr_herm_subset(ccspan u,
                                        std::span<const std::uint32_t> pixels,
                                        cspan y_sub) const {
  FFW_CHECK(u.size() == rx_.size() && y_sub.size() == pixels.size());
  const std::size_t m = rx_.size();
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    cplx acc{};
    if (gr_) {
      const cplx* col = gr_->col(pixels[i]).data();
      for (std::size_t r = 0; r < m; ++r) acc += std::conj(col[r]) * u[r];
    } else {
      for (std::size_t r = 0; r < m; ++r)
        acc += std::conj(gr_entry(static_cast<int>(r), pixels[i])) * u[r];
    }
    y_sub[i] = acc;
  }
}

void Transceivers::incident_field_subset(int t,
                                         std::span<const std::uint32_t> pixels,
                                         cspan out) const {
  FFW_CHECK(t >= 0 && t < num_transmitters() && out.size() == pixels.size());
  const int nx = grid_->nx();
  const Vec2 src = tx_[static_cast<std::size_t>(t)];
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    const Vec2 rp = grid_->pixel_center(static_cast<int>(pixels[i]) % nx,
                                        static_cast<int>(pixels[i]) / nx);
    out[i] = g0_point(grid_->k0(), norm(rp - src));
  }
}

void Transceivers::apply_gr(ccspan x, cspan y) const {
  const std::size_t n = grid_->num_pixels();
  FFW_CHECK(x.size() == n && y.size() == rx_.size());
  if (gr_) {
    apply_gr_panel(x, y, 1);
    return;
  }
  parallel_for(0, rx_.size(), [&](std::size_t r) {
    cplx acc{};
    for (std::size_t p = 0; p < n; ++p)
      acc += gr_entry(static_cast<int>(r), p) * x[p];
    y[r] = acc;
  });
}

void Transceivers::apply_gr_herm(ccspan x, cspan y) const {
  const std::size_t n = grid_->num_pixels();
  FFW_CHECK(x.size() == rx_.size() && y.size() == n);
  if (gr_) {
    apply_gr_herm_panel(x, y, 1);
    return;
  }
  parallel_for(0, n, [&](std::size_t p) {
    cplx acc{};
    for (std::size_t r = 0; r < rx_.size(); ++r)
      acc += std::conj(gr_entry(static_cast<int>(r), p)) * x[r];
    y[p] = acc;
  });
}

// The materialised products, single-column calls included, all run
// through the two panel kernels below. They work on split real /
// imaginary parts and round each complex multiply-add with one
// std::fma on a named product, so an output's bits depend neither on
// the panel width nor on how the compiler contracts the loop; every
// output keeps one summation order, so neither do they depend on the
// thread count (transceivers_test checks both). Without std::complex's
// NaN-recovery branch the inner loops vectorise. When the build target
// has no FMA (FFW_NATIVE_ARCH=OFF on x86-64), std::fma is a library
// call and these loops run scalar.

void Transceivers::apply_gr_panel(ccspan x, cspan y, std::size_t nrhs) const {
  const std::size_t n = grid_->num_pixels();
  const std::size_t m = rx_.size();
  FFW_CHECK(x.size() == n * nrhs && y.size() == m * nrhs);
  if (!gr_) {
    for (std::size_t t = 0; t < nrhs; ++t)
      apply_gr(x.subspan(t * n, n), y.subspan(t * m, m));
    return;
  }
  if (nrhs == 0) return;
  // One task per (receiver block, column group). Column groups are as
  // wide as possible (at most kGroup columns) while still giving every
  // thread a task, so G_R is streamed once when the receiver blocks
  // alone cover the threads. Each task sums its outputs over all pixels
  // in ascending order.
  constexpr std::size_t kBlock = 8, kGroup = 16;
  const std::size_t nblocks = (m + kBlock - 1) / kBlock;
  const std::size_t want =
      (static_cast<std::size_t>(num_threads()) + nblocks - 1) / nblocks;
  const std::size_t ngroups =
      std::min(nrhs, std::max(want, (nrhs + kGroup - 1) / kGroup));
  const std::size_t width = (nrhs + ngroups - 1) / ngroups;
  const std::size_t ntasks = nblocks * ((nrhs + width - 1) / width);
  const double* g = reinterpret_cast<const double*>(gr_->data());
  const double* xd = reinterpret_cast<const double*>(x.data());
  parallel_for(0, ntasks, [&](std::size_t task) {
    const std::size_t r0 = (task % nblocks) * kBlock;
    const std::size_t rn = std::min(kBlock, m - r0);
    const std::size_t t0 = (task / nblocks) * width;
    const std::size_t tn = std::min(width, nrhs - t0);
    double acc_re[kGroup][kBlock] = {}, acc_im[kGroup][kBlock] = {};
    double gr[kBlock] = {}, gi[kBlock] = {};  // lanes >= rn stay zero
    for (std::size_t p = 0; p < n; ++p) {
      const double* col = g + 2 * (p * m + r0);
      for (std::size_t r = 0; r < rn; ++r) {
        gr[r] = col[2 * r];
        gi[r] = col[2 * r + 1];
      }
      for (std::size_t j = 0; j < tn; ++j) {
        const double* xp = xd + 2 * ((t0 + j) * n + p);
        const double xr = xp[0], xi = xp[1];
        double* re = acc_re[j];
        double* im = acc_im[j];
        for (std::size_t r = 0; r < kBlock; ++r) {
          re[r] += std::fma(gr[r], xr, -(gi[r] * xi));
          im[r] += std::fma(gr[r], xi, gi[r] * xr);
        }
      }
    }
    for (std::size_t j = 0; j < tn; ++j)
      for (std::size_t r = 0; r < rn; ++r)
        y[(t0 + j) * m + r0 + r] = cplx{acc_re[j][r], acc_im[j][r]};
  });
}

void Transceivers::apply_gr_herm_panel(ccspan x, cspan y,
                                       std::size_t nrhs) const {
  const std::size_t n = grid_->num_pixels();
  const std::size_t m = rx_.size();
  FFW_CHECK(x.size() == m * nrhs && y.size() == n * nrhs);
  if (!gr_) {
    for (std::size_t t = 0; t < nrhs; ++t)
      apply_gr_herm(x.subspan(t * m, m), y.subspan(t * n, n));
    return;
  }
  // Blocks of kPixels pixels, several per task: each block's G_R
  // columns are transposed into (receiver, pixel) order once and reused
  // by every column of the panel, and every output sums its receivers
  // in ascending order.
  constexpr std::size_t kPixels = 8;
  const std::size_t nblk = (n + kPixels - 1) / kPixels;
  const std::size_t per_task = std::max<std::size_t>(
      1, nblk / (4 * static_cast<std::size_t>(num_threads())));
  const double* g = reinterpret_cast<const double*>(gr_->data());
  const double* xd = reinterpret_cast<const double*>(x.data());
  parallel_for(0, (nblk + per_task - 1) / per_task, [&](std::size_t task) {
    std::vector<double> gr(m * kPixels), gi(m * kPixels);
    const std::size_t b_end = std::min(nblk, (task + 1) * per_task);
    for (std::size_t b = task * per_task; b < b_end; ++b) {
      const std::size_t p0 = b * kPixels;
      const std::size_t pn = std::min(kPixels, n - p0);
      for (std::size_t k = 0; k < kPixels; ++k) {
        const double* col = k < pn ? g + 2 * (p0 + k) * m : nullptr;
        for (std::size_t r = 0; r < m; ++r) {
          gr[r * kPixels + k] = col != nullptr ? col[2 * r] : 0.0;
          gi[r * kPixels + k] = col != nullptr ? col[2 * r + 1] : 0.0;
        }
      }
      for (std::size_t t = 0; t < nrhs; ++t) {
        double re[kPixels] = {}, im[kPixels] = {};
        for (std::size_t r = 0; r < m; ++r) {
          const double xr = xd[2 * (t * m + r)], xi = xd[2 * (t * m + r) + 1];
          const double* grr = gr.data() + r * kPixels;
          const double* gir = gi.data() + r * kPixels;
          for (std::size_t k = 0; k < kPixels; ++k) {  // conj(g) * x
            re[k] += std::fma(grr[k], xr, gir[k] * xi);
            im[k] += std::fma(grr[k], xi, -(gir[k] * xr));
          }
        }
        for (std::size_t k = 0; k < pn; ++k)
          y[t * n + p0 + k] = cplx{re[k], im[k]};
      }
    }
  });
}

}  // namespace ffw

// Transmitter/receiver operator tests: geometry, dense-vs-matrix-free
// G_R paths (full image and pixel subsets), adjoint identity, incident
// fields.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/rng.hpp"
#include "greens/greens.hpp"
#include "greens/transceivers.hpp"
#include "grid/quadtree.hpp"
#include "linalg/kernels.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {
namespace {

TEST(Ring, FullRingGeometry) {
  const auto pos = ring_positions(8, 2.0);
  ASSERT_EQ(pos.size(), 8u);
  EXPECT_NEAR(pos[0].x, 2.0, 1e-14);
  EXPECT_NEAR(pos[0].y, 0.0, 1e-14);
  EXPECT_NEAR(pos[2].x, 0.0, 1e-13);
  EXPECT_NEAR(pos[2].y, 2.0, 1e-13);
  for (const auto& p : pos) EXPECT_NEAR(norm(p), 2.0, 1e-13);
}

TEST(Ring, LimitedArc) {
  // Quarter arc on the right side (paper Fig. 2 style).
  const auto pos = ring_positions(5, 3.0, -pi / 4, pi / 4);
  for (const auto& p : pos) {
    EXPECT_GT(p.x, 0.0);
    const double a = angle_of(p);
    EXPECT_GE(a, -pi / 4 - 1e-12);
    EXPECT_LT(a, pi / 4);
  }
}

TEST(Transceivers, DenseAndMatrixFreePathsAgree) {
  Grid grid(32);
  const auto tx = ring_positions(4, grid.domain());
  const auto rx = ring_positions(16, grid.domain());
  Transceivers dense(grid, tx, rx);              // default budget: cached
  Transceivers lazy(grid, tx, rx, /*budget=*/0); // forced matrix-free
  EXPECT_TRUE(dense.gr_materialized());
  EXPECT_FALSE(lazy.gr_materialized());

  Rng rng(51);
  cvec x(grid.num_pixels());
  rng.fill_cnormal(x);
  cvec y1(16), y2(16);
  dense.apply_gr(x, y1);
  lazy.apply_gr(x, y2);
  EXPECT_LT(rel_l2_diff(y1, y2), 1e-13);

  cvec u(16), g1(grid.num_pixels()), g2(grid.num_pixels());
  rng.fill_cnormal(u);
  dense.apply_gr_herm(u, g1);
  lazy.apply_gr_herm(u, g2);
  EXPECT_LT(rel_l2_diff(g1, g2), 1e-13);
}

// The distributed DBIM drivers project through the pixel subset a tree
// rank owns (a slice of the Morton order). The materialised G_R and the
// matrix-free path must give the same subset projections, the subset
// calls over every pixel must be the full-image operators, and the
// incident subset must be the full incident field bit for bit.
TEST(Transceivers, SubsetProjectionsMatchMatrixFree) {
  Grid grid(32);
  const auto tx = ring_positions(4, grid.domain());
  const auto rx = ring_positions(16, grid.domain());
  Transceivers dense(grid, tx, rx);
  Transceivers lazy(grid, tx, rx, /*budget=*/0);
  ASSERT_TRUE(dense.gr_materialized());
  ASSERT_FALSE(lazy.gr_materialized());

  // Tree rank 1 of 4: the second quarter of the cluster order.
  const QuadTree tree(grid);
  const std::size_t n = grid.num_pixels();
  const std::span<const std::uint32_t> slice{tree.perm().data() + n / 4,
                                             n / 4};
  Rng rng(54);
  cvec x(slice.size()), u(16);
  rng.fill_cnormal(x);
  rng.fill_cnormal(u);
  cvec y1(16, cplx{}), y2(16, cplx{});
  dense.apply_gr_subset(x, slice, y1);
  lazy.apply_gr_subset(x, slice, y2);
  EXPECT_LE(rel_l2_diff(y1, y2), 1e-13);
  cvec g1(slice.size()), g2(slice.size());
  dense.apply_gr_herm_subset(u, slice, g1);
  lazy.apply_gr_herm_subset(u, slice, g2);
  EXPECT_LE(rel_l2_diff(g1, g2), 1e-13);

  std::vector<std::uint32_t> all(n);
  std::iota(all.begin(), all.end(), std::uint32_t{0});
  cvec xa(n);
  rng.fill_cnormal(xa);
  for (const Transceivers* trx : {&dense, &lazy}) {
    cvec want(16), got(16, cplx{});
    trx->apply_gr(xa, want);
    trx->apply_gr_subset(xa, all, got);
    EXPECT_LE(rel_l2_diff(got, want), 1e-12);
    cvec hwant(n), hgot(n);
    trx->apply_gr_herm(u, hwant);
    trx->apply_gr_herm_subset(u, all, hgot);
    EXPECT_LE(rel_l2_diff(hgot, hwant), 1e-12);
  }

  for (int t = 0; t < 4; ++t) {
    const cvec full = dense.incident_field(t);
    cvec sub(slice.size());
    dense.incident_field_subset(t, slice, sub);
    std::size_t differ = 0;
    for (std::size_t i = 0; i < slice.size(); ++i)
      differ += sub[i] != full[slice[i]];
    EXPECT_EQ(differ, 0u) << "transmitter " << t;
  }
}

// The DBIM passes project all illuminations through the panel forms;
// materialised, the single-column apply_gr / apply_gr_herm are the
// nrhs = 1 panel. Every output keeps one summation order and rounding,
// so the panels must equal per-column calls made on one thread bit for
// bit: materialised and matrix-free, at panel widths below, between and
// at the column-group width, at one and four threads. 20 receivers
// leave a partial receiver block. The materialised panels must also
// match the matrix-free entries.
TEST(Transceivers, PanelProjectionsMatchColumnLoopBitForBit) {
  Grid grid(32);
  const auto tx = ring_positions(4, grid.domain());
  const auto rx = ring_positions(20, grid.domain());
  const std::size_t n = grid.num_pixels(), m = rx.size();
  const Transceivers lazy(grid, tx, rx, /*budget=*/0);
  for (const std::size_t budget : {std::size_t{16} << 20, std::size_t{0}}) {
    Transceivers trx(grid, tx, rx, budget);
    ASSERT_EQ(trx.gr_materialized(), budget != 0);
    for (const std::size_t nrhs : {1u, 3u, 16u}) {
      Rng rng(60 + nrhs);
      cvec x(n * nrhs), u(m * nrhs);
      rng.fill_cnormal(x);
      rng.fill_cnormal(u);
      cvec y_ref(m * nrhs), g_ref(n * nrhs);
      set_num_threads(1);
      for (std::size_t t = 0; t < nrhs; ++t) {
        trx.apply_gr(ccspan{x.data() + t * n, n}, cspan{y_ref.data() + t * m, m});
        trx.apply_gr_herm(ccspan{u.data() + t * m, m},
                          cspan{g_ref.data() + t * n, n});
      }
      for (const int threads : {1, 4}) {
        set_num_threads(threads);
        cvec y(m * nrhs), g(n * nrhs);
        trx.apply_gr_panel(x, y, nrhs);
        trx.apply_gr_herm_panel(u, g, nrhs);
        EXPECT_EQ(std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(cplx)),
                  0)
            << "G_R, budget " << budget << ", nrhs " << nrhs << ", "
            << threads << " threads";
        EXPECT_EQ(std::memcmp(g.data(), g_ref.data(), g.size() * sizeof(cplx)),
                  0)
            << "G_R^H, budget " << budget << ", nrhs " << nrhs << ", "
            << threads << " threads";
        cvec y_free(m * nrhs), g_free(n * nrhs);
        lazy.apply_gr_panel(x, y_free, nrhs);
        lazy.apply_gr_herm_panel(u, g_free, nrhs);
        EXPECT_LT(rel_l2_diff(y, y_free), 1e-13);
        EXPECT_LT(rel_l2_diff(g, g_free), 1e-13);
      }
    }
  }
  set_num_threads(0);
}

TEST(Transceivers, GrAdjointIdentity) {
  Grid grid(32);
  Transceivers trx(grid, ring_positions(2, grid.domain()),
                   ring_positions(10, grid.domain()));
  Rng rng(52);
  cvec x(grid.num_pixels()), u(10), gx(10), ghu(grid.num_pixels());
  rng.fill_cnormal(x);
  rng.fill_cnormal(u);
  trx.apply_gr(x, gx);
  trx.apply_gr_herm(u, ghu);
  EXPECT_NEAR(std::abs(cdot(u, gx) - cdot(ghu, x)), 0.0,
              1e-12 * std::abs(cdot(u, gx)));
}

TEST(Transceivers, IncidentFieldIsLineSourceKernel) {
  Grid grid(16);
  const auto tx = ring_positions(3, grid.domain());
  Transceivers trx(grid, tx, ring_positions(4, grid.domain()));
  const cvec inc = trx.incident_field(1);
  // Spot check a pixel against the raw kernel.
  const Vec2 p = grid.pixel_center(3, 7);
  const cplx want = g0_point(grid.k0(), norm(p - tx[1]));
  EXPECT_NEAR(std::abs(inc[grid.pixel_index(3, 7)] - want), 0.0, 1e-14);
}

TEST(Transceivers, ReceiverKernelIncludesSourceFactor) {
  Grid grid(16);
  const auto rx = ring_positions(4, grid.domain());
  Transceivers trx(grid, ring_positions(2, grid.domain()), rx);
  // Apply G_R to a delta at one pixel: result must be sf * g0.
  cvec x(grid.num_pixels(), cplx{});
  x[grid.pixel_index(5, 5)] = 1.0;
  cvec y(4);
  trx.apply_gr(x, y);
  const Vec2 p = grid.pixel_center(5, 5);
  for (int r = 0; r < 4; ++r) {
    const cplx want = source_factor(grid) *
                      g0_point(grid.k0(), norm(rx[static_cast<std::size_t>(r)] - p));
    EXPECT_NEAR(std::abs(y[static_cast<std::size_t>(r)] - want), 0.0, 1e-14);
  }
}

}  // namespace
}  // namespace ffw

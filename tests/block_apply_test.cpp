// Multi-RHS (blocked) MLFMA apply: every column of apply_block /
// apply_herm_block must match the single-vector apply on the same
// engine, across tree depths including the degenerate near-only tree.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "linalg/block.hpp"
#include "linalg/kernels.hpp"
#include "mlfma/engine.hpp"

namespace ffw {
namespace {

BlockLayout engine_layout(const QuadTree& tree, std::size_t nrhs) {
  return BlockLayout{static_cast<std::size_t>(tree.pixels_per_leaf()), nrhs,
                     tree.num_leaves()};
}

struct Case {
  int nx;
  std::size_t nrhs;
};

class BlockApplySweep : public ::testing::TestWithParam<Case> {};

TEST_P(BlockApplySweep, BlockApplyMatchesLoopedApply) {
  const Case c = GetParam();
  Grid grid(c.nx);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  const std::size_t n = grid.num_pixels();
  const BlockLayout lo = engine_layout(tree, c.nrhs);

  Rng rng(static_cast<std::uint64_t>(100 * c.nx + c.nrhs));
  std::vector<cvec> cols(c.nrhs);
  cvec xb(lo.size()), yb(lo.size());
  for (std::size_t r = 0; r < c.nrhs; ++r) {
    cols[r].resize(n);
    rng.fill_cnormal(cols[r]);
    block_col_set(lo, xb, r, cols[r]);
  }
  engine.apply_block(xb, yb, c.nrhs);

  cvec want(n), got(n);
  for (std::size_t r = 0; r < c.nrhs; ++r) {
    engine.apply(cols[r], want);
    block_col_get(lo, yb, r, got);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      num += std::norm(got[i] - want[i]);
      den += std::norm(want[i]);
    }
    EXPECT_LT(std::sqrt(num), 1e-12 * std::sqrt(den))
        << "nx=" << c.nx << " nrhs=" << c.nrhs << " col=" << r;
  }
}

// Companion of the test above: every phase treats the block's columns
// independently and in the single-vector order, so the columns agree byte
// for byte, not only to 1e-12.
TEST_P(BlockApplySweep, BlockApplyMatchesLoopedApplyBitForBit) {
  const Case c = GetParam();
  Grid grid(c.nx);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  const std::size_t n = grid.num_pixels();
  const BlockLayout lo = engine_layout(tree, c.nrhs);

  Rng rng(static_cast<std::uint64_t>(100 * c.nx + c.nrhs));
  std::vector<cvec> cols(c.nrhs);
  cvec xb(lo.size()), yb(lo.size());
  for (std::size_t r = 0; r < c.nrhs; ++r) {
    cols[r].resize(n);
    rng.fill_cnormal(cols[r]);
    block_col_set(lo, xb, r, cols[r]);
  }
  engine.apply_block(xb, yb, c.nrhs);

  cvec want(n), got(n);
  for (std::size_t r = 0; r < c.nrhs; ++r) {
    engine.apply(cols[r], want);
    block_col_get(lo, yb, r, got);
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), n * sizeof(cplx)))
        << "nx=" << c.nx << " nrhs=" << c.nrhs << " col=" << r;
  }
}

TEST_P(BlockApplySweep, HermBlockMatchesLoopedHerm) {
  const Case c = GetParam();
  Grid grid(c.nx);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  const std::size_t n = grid.num_pixels();
  const BlockLayout lo = engine_layout(tree, c.nrhs);

  Rng rng(static_cast<std::uint64_t>(200 * c.nx + c.nrhs));
  std::vector<cvec> cols(c.nrhs);
  cvec xb(lo.size()), yb(lo.size());
  for (std::size_t r = 0; r < c.nrhs; ++r) {
    cols[r].resize(n);
    rng.fill_cnormal(cols[r]);
    block_col_set(lo, xb, r, cols[r]);
  }
  engine.apply_herm_block(xb, yb, c.nrhs);

  cvec want(n), got(n);
  for (std::size_t r = 0; r < c.nrhs; ++r) {
    engine.apply_herm(cols[r], want);
    block_col_get(lo, yb, r, got);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      num += std::norm(got[i] - want[i]);
      den += std::norm(want[i]);
    }
    EXPECT_LT(std::sqrt(num), 1e-12 * std::sqrt(den))
        << "nx=" << c.nx << " nrhs=" << c.nrhs << " col=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndWidths, BlockApplySweep,
    ::testing::Values(Case{16, 2},   // degenerate: zero far-field levels
                      Case{16, 5},   //
                      Case{32, 3},   // one translation level
                      Case{64, 2},   // multi-level
                      Case{64, 8},   //
                      Case{128, 4}));

TEST(BlockApply, Nrhs1IsBitIdenticalToApply) {
  Grid grid(64);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  const std::size_t n = grid.num_pixels();
  Rng rng(17);
  cvec x(n), y1(n), y2(n);
  rng.fill_cnormal(x);
  engine.apply(x, y1);
  engine.apply_block(x, y2, 1);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(BlockApply, GrowingThenShrinkingWidthStaysCorrect) {
  // Block capacity only grows; a narrow apply after a wide one must not
  // read stale spectra from the over-allocated panels.
  Grid grid(64);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  const std::size_t n = grid.num_pixels();
  const BlockLayout wide = engine_layout(tree, 6);
  Rng rng(23);
  cvec xw(wide.size()), yw(wide.size());
  rng.fill_cnormal(xw);
  engine.apply_block(xw, yw, 6);

  cvec x(n), y1(n), y2(n);
  rng.fill_cnormal(x);
  engine.apply(x, y1);  // narrow apply after capacity growth
  MlfmaEngine fresh(tree);
  fresh.apply(x, y2);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(BlockApply, ApplicationsCounterAdvancesByNrhs) {
  Grid grid(32);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  const BlockLayout lo = engine_layout(tree, 4);
  cvec x(lo.size(), cplx{1.0, 0.0}), y(lo.size());
  const std::uint64_t before = engine.phase_times().applications;
  engine.apply_block(x, y, 4);
  EXPECT_EQ(engine.phase_times().applications, before + 4);
}

}  // namespace
}  // namespace ffw

// google-benchmark microbenchmarks of the kernels behind Table I: the
// batched dense expansions, the band-diagonal interpolation, the
// diagonal translations, and the 9-type near-field pass — plus the full
// MLFMA apply, the near-field block-Jacobi preconditioner's factor and
// apply, and one forward solve.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "fft/fft2.hpp"
#include "forward/forward.hpp"
#include "forward/precond.hpp"
#include "greens/nearfield.hpp"
#include "linalg/gemm.hpp"
#include "mlfma/engine.hpp"
#include "parallel/parallel_for.hpp"
#include "phantom/phantom.hpp"

using namespace ffw;

namespace {

struct Fixture {
  Grid grid;
  QuadTree tree;
  MlfmaEngine engine;
  explicit Fixture(int nx) : grid(nx), tree(grid), engine(tree) {}
};

Fixture& fixture128() {
  static Fixture f(128);
  return f;
}

}  // namespace

static void BM_MlfmaApply(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  const std::size_t n = f.grid.num_pixels();
  Rng rng(1);
  cvec x(n), y(n);
  rng.fill_cnormal(x);
  for (auto _ : state) {
    f.engine.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MlfmaApply)->Arg(64)->Arg(128)->Arg(256)->Complexity();

static void BM_ExpansionGemm(benchmark::State& state) {
  Fixture& f = fixture128();
  const auto& e = f.engine.operators().expansion();
  const std::size_t nleaf = f.tree.num_leaves();
  CMatrix x(static_cast<std::size_t>(f.tree.pixels_per_leaf()), nleaf),
      s(e.rows(), nleaf);
  Rng rng(2);
  rng.fill_cnormal(cspan{x.data(), x.size()});
  for (auto _ : state) {
    gemm(cplx{1.0}, e, x, cplx{0.0}, s);
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(BM_ExpansionGemm);

static void BM_Interpolation(benchmark::State& state) {
  Fixture& f = fixture128();
  const auto& w = f.engine.operators().level(0).interp;
  cvec x(w.cols()), y(w.rows());
  Rng rng(3);
  rng.fill_cnormal(x);
  for (auto _ : state) {
    w.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Interpolation);

static void BM_TranslationDiag(benchmark::State& state) {
  Fixture& f = fixture128();
  const auto& trans = f.engine.operators().level(0).translations[0];
  cvec s(trans.size()), g(trans.size(), cplx{});
  Rng rng(4);
  rng.fill_cnormal(s);
  for (auto _ : state) {
    for (std::size_t i = 0; i < trans.size(); ++i) g[i] += trans[i] * s[i];
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_TranslationDiag);

static void BM_NearFieldPass(benchmark::State& state) {
  Fixture& f = fixture128();
  NearFieldOperators near(f.tree);
  const std::size_t n = f.grid.num_pixels();
  Rng rng(5);
  cvec x(n), y(n, cplx{});
  rng.fill_cnormal(x);
  for (auto _ : state) {
    std::fill(y.begin(), y.end(), cplx{});
    near.apply(f.tree, x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_NearFieldPass);

// The three MLFMA GEMM phases at their production shapes on the 64x64,
// leaf-8 tree (np = 64 pixels per leaf, q0 = 74 level-0 samples, 64
// leaves, nrhs = 16), split across threads the way MlfmaEngine splits
// them, in fp64:
//   near       Y_leaf (64x16) += N (64x64) * X_src (64x16) per leaf;
//   expansion  S (74 x 64*16) = E (74x64) * X (64 x 64*16);
//   local      Y (64 x 64*16) += R (64x74) * G (74 x 64*16).
// Phase 0/1/2 = near/expansion/local. "Mcmac/s" counts m*n*k complex
// multiply-accumulates per product.
static void BM_GemmPhaseShape(benchmark::State& state) {
  const int phase = static_cast<int>(state.range(0));
  set_num_threads(static_cast<int>(state.range(1)));
  const std::size_t np = 64, q0 = 74, nleaf = 64, nrhs = 16;
  const std::size_t m = phase == 1 ? q0 : np, k = phase == 2 ? q0 : np;
  Rng rng(11);
  cvec a(m * k), x(k * nleaf * nrhs), y(m * nleaf * nrhs);
  rng.fill_cnormal(a);
  rng.fill_cnormal(x);
  rng.fill_cnormal(y);
  const cplx beta = phase == 1 ? cplx{} : cplx{1.0};
  for (auto _ : state) {
    if (phase == 0) {
      parallel_for_dynamic(0, nleaf, [&](std::size_t c) {
        gemm_raw(m, nrhs, k, cplx{1.0}, a.data(), m,
                 x.data() + c * k * nrhs, k, beta,
                 y.data() + c * m * nrhs, m);
      });
    } else {
      const std::size_t nthreads =
          std::min<std::size_t>(static_cast<std::size_t>(num_threads()), nleaf);
      const std::size_t chunk = (nleaf + nthreads - 1) / nthreads;
      parallel_for(0, nthreads, [&](std::size_t tid) {
        const std::size_t c0 = tid * chunk;
        const std::size_t c1 = std::min(nleaf, c0 + chunk);
        if (c0 >= c1) return;
        gemm_raw(m, (c1 - c0) * nrhs, k, cplx{1.0}, a.data(), m,
                 x.data() + c0 * k * nrhs, k, beta,
                 y.data() + c0 * m * nrhs, m);
      });
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  set_num_threads(0);
  state.SetLabel(phase == 0 ? "near" : phase == 1 ? "expansion" : "local");
  state.counters["Mcmac/s"] = benchmark::Counter(
      1e-6 * static_cast<double>(m * k * nleaf * nrhs),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmPhaseShape)
    ->Apply([](auto* b) {
      b->ArgNames({"phase", "threads"});
      for (const std::int64_t phase : {0, 1, 2})
        for (const std::int64_t t : {1, hardware_threads()})
          b->Args({phase, t});
    })
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// The 1-D FFT through the shared plan cache (what fft()/ifft() do now)
// against a fresh plan per call (what they used to do: twiddle tables or
// the Bluestein chirp recomputed every time). Arg 96 exercises the
// Bluestein path, where the setup dwarfs the transform itself.
static void BM_FftPlanCached(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  cvec x(n);
  rng.fill_cnormal(x);
  (void)fft_plan(n);  // warm the cache: steady-state hit cost
  for (auto _ : state) {
    fft_plan(n)->forward(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_FftPlanCached)->Arg(128)->Arg(96)->Arg(254);

static void BM_FftPlanPerCall(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  cvec x(n);
  rng.fill_cnormal(x);
  for (auto _ : state) {
    Fft1Plan<double> plan(n);
    plan.forward(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_FftPlanPerCall)->Arg(128)->Arg(96)->Arg(254);

// The CBS hot loop's unit of work: one batched 2-D round trip over a
// padded multi-RHS panel (256 = padded side for a 128x128 grid).
static void BM_Fft2PanelRoundTrip(benchmark::State& state) {
  const std::size_t p = 256, nrhs = static_cast<std::size_t>(state.range(0));
  Fft2Plan<double> plan(p, p);
  Rng rng(9);
  cvec panels(p * p * nrhs);
  rng.fill_cnormal(panels);
  for (auto _ : state) {
    plan.forward(panels, nrhs);
    plan.inverse(panels, nrhs);
    benchmark::DoNotOptimize(panels.data());
  }
}
BENCHMARK(BM_Fft2PanelRoundTrip)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// The near-field block-Jacobi preconditioner (forward/precond.hpp) on a
// 64x64 strong-contrast (0.3) blob: LU-factoring every leaf self block,
// and one M^{-1} apply over nrhs columns, at leaf side 8 (np = 64) and 16
// (np = 256), on 1 thread and on every hardware thread. "Mcmac/s" counts
// complex multiply-accumulates: sum_k (np-1-k)^2 per block factorisation
// and np^2 per block and column for an apply (both triangles plus the
// diagonal divisions).
struct PrecondFixture {
  Grid grid{64};
  QuadTree tree;
  MlfmaEngine engine;
  cvec o_clu;
  explicit PrecondFixture(int leaf)
      : tree(grid, leaf), engine(tree), o_clu(grid.num_pixels()) {
    const cvec deps =
        gaussian_blob(grid, Vec2{0.0, 0.0}, 0.6, cplx{0.3, 0.0});
    tree.to_cluster_order(contrast_from_permittivity(grid, deps), o_clu);
  }
  std::size_t np() const {
    return static_cast<std::size_t>(tree.pixels_per_leaf());
  }
};

PrecondFixture& precond_fixture(std::int64_t np) {
  static PrecondFixture leaf8(8), leaf16(16);
  return np == 64 ? leaf8 : leaf16;
}

static void PrecondArgs(benchmark::internal::Benchmark* b, bool sweep_nrhs) {
  b->ArgNames({"np", "nrhs", "threads"});
  for (const std::int64_t np : {64, 256})
    for (const std::int64_t nrhs : {1, 16}) {
      if (!sweep_nrhs && nrhs > 1) continue;
      for (const std::int64_t t : {1, hardware_threads()})
        b->Args({np, nrhs, t});
    }
}

static void BM_NearFieldPrecondFactor(benchmark::State& state) {
  PrecondFixture& f = precond_fixture(state.range(0));
  set_num_threads(static_cast<int>(state.range(2)));
  std::size_t blocks = 0;
  for (auto _ : state) {
    const NearFieldBlockJacobi m(f.engine.nearfield().type(4), f.o_clu);
    blocks = m.num_blocks();
    benchmark::DoNotOptimize(m.bytes());
  }
  set_num_threads(0);
  const double n = static_cast<double>(f.np());
  state.counters["Mcmac/s"] = benchmark::Counter(
      1e-6 * static_cast<double>(blocks) * (n - 1) * n * (2 * n - 1) / 6,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_NearFieldPrecondFactor)
    ->Apply([](auto* b) { PrecondArgs(b, false); })
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

static void BM_NearFieldPrecondApply(benchmark::State& state) {
  PrecondFixture& f = precond_fixture(state.range(0));
  const auto nrhs = static_cast<std::size_t>(state.range(1));
  set_num_threads(static_cast<int>(state.range(2)));
  const NearFieldBlockJacobi m(f.engine.nearfield().type(4), f.o_clu);
  const BlockLayout lo{f.np(), nrhs, m.num_blocks()};
  Rng rng(10);
  cvec x(lo.size()), z(lo.size());
  rng.fill_cnormal(x);
  for (auto _ : state) {
    m.apply(x, z, lo);
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
  }
  set_num_threads(0);
  const double n = static_cast<double>(f.np());
  state.counters["Mcmac/s"] = benchmark::Counter(
      1e-6 * static_cast<double>(lo.npanels * nrhs) * n * n,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_NearFieldPrecondApply)
    ->Apply([](auto* b) { PrecondArgs(b, true); })
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

static void BM_ForwardSolve(benchmark::State& state) {
  Fixture& f = fixture128();
  ForwardSolver fs(f.engine);
  const cvec deps =
      gaussian_blob(f.grid, Vec2{0.0, 0.0}, 2.0, cplx{0.01, 0.0});
  fs.set_contrast(contrast_from_permittivity(f.grid, deps));
  const std::size_t n = f.grid.num_pixels();
  Rng rng(6);
  cvec rhs(n), phi(n);
  rng.fill_cnormal(rhs);
  for (auto _ : state) {
    std::fill(phi.begin(), phi.end(), cplx{});
    const auto res = fs.solve(rhs, phi);
    benchmark::DoNotOptimize(res.iterations);
  }
}
BENCHMARK(BM_ForwardSolve)->Unit(benchmark::kMillisecond);

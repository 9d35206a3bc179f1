// The 2-D parallel DBIM driver must reproduce the serial driver for any
// (illumination groups x tree ranks) decomposition — same residual
// trajectory (up to floating-point ordering) and the same image.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "dbim/parallel_driver.hpp"
#include "obs/obs.hpp"
#include "phantom/setup.hpp"
#include "vcluster/fault.hpp"

namespace ffw {
namespace {

struct SceneFixture {
  ScenarioConfig cfg;
  std::unique_ptr<Scenario> scene;

  SceneFixture() {
    cfg.nx = 32;
    cfg.num_transmitters = 8;
    cfg.num_receivers = 24;
    Grid grid(cfg.nx);
    scene = std::make_unique<Scenario>(
        cfg, gaussian_blob(grid, Vec2{0.3, -0.2}, 0.5, cplx{0.01, 0.0}));
  }
};

class Decompositions
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Decompositions, MatchesSerialDriver) {
  const auto [ig, tr] = GetParam();
  SceneFixture f;

  DbimOptions opts;
  opts.max_iterations = 6;
  const DbimResult serial = dbim_reconstruct(
      f.scene->engine(), f.scene->transceivers(), f.scene->measurements(),
      opts);

  ParallelDbimConfig pcfg;
  pcfg.illum_groups = ig;
  pcfg.tree_ranks = tr;
  pcfg.dbim = opts;
  VCluster vc(ig * tr);
  const DbimResult par = dbim_reconstruct_parallel(
      vc, f.scene->tree(), f.scene->transceivers(), f.scene->measurements(),
      pcfg);

  ASSERT_EQ(par.history.relative_residual.size(),
            serial.history.relative_residual.size());
  for (std::size_t i = 0; i < serial.history.relative_residual.size(); ++i) {
    EXPECT_NEAR(par.history.relative_residual[i],
                serial.history.relative_residual[i],
                0.02 * serial.history.relative_residual[i])
        << "iteration " << i << " (ig=" << ig << ", tr=" << tr << ")";
  }
  EXPECT_LT(image_rmse(par.contrast, serial.contrast), 0.05)
      << "ig=" << ig << " tr=" << tr;
}

INSTANTIATE_TEST_SUITE_P(
    Grids, Decompositions,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 1}, std::pair{4, 1},
                      std::pair{1, 4}, std::pair{2, 2}, std::pair{4, 4}));

TEST(ParallelDbim, IlluminationSyncTrafficIsTwicePerIteration) {
  // With tree_ranks = 1 the only communication is the two global
  // combines per DBIM iteration (gradient + step/cost scalars): message
  // count must scale with iterations, not with forward solves.
  SceneFixture f;
  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 4;
  pcfg.tree_ranks = 1;
  pcfg.dbim.max_iterations = 3;
  VCluster vc(4);
  dbim_reconstruct_parallel(vc, f.scene->tree(), f.scene->transceivers(),
                            f.scene->measurements(), pcfg);
  const TrafficStats t = vc.traffic();
  EXPECT_GT(t.total_messages(), 0u);
  // Gradient combine: gather+bcast over 4 ranks = 6 msgs; cost and denom
  // allreduce (recursive doubling, 4 ranks): 8 msgs each; step scalar via
  // the same pattern. Bound: well under 100 messages per iteration, and
  // zero MLFMA halo bytes (tree not partitioned).
  EXPECT_LT(t.total_messages(), 100u * 3u);
}

// The returned history reports the ranks' real block-BiCGStab work:
// solves, Krylov iterations, operator applications and near-field
// factor time, counted the way the serial driver counts them.
TEST(ParallelDbim, HistoryReportsTheRanksSolveWork) {
  SceneFixture f;
  DbimOptions opts;
  opts.max_iterations = 3;
  opts.near_precondition = true;
  const DbimResult serial = dbim_reconstruct(
      f.scene->engine(), f.scene->transceivers(), f.scene->measurements(),
      opts);

  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 2;
  pcfg.dbim = opts;
  VCluster vc(4);
  const DbimResult par = dbim_reconstruct_parallel(
      vc, f.scene->tree(), f.scene->transceivers(), f.scene->measurements(),
      pcfg);

  const DbimHistory& h = par.history;
  ASSERT_EQ(h.relative_residual.size(), 3u);
  EXPECT_EQ(h.forward_solves, 3u * 8u * 3u);  // 3 passes x T x iterations
  EXPECT_EQ(h.forward_solves, serial.history.forward_solves);
  EXPECT_GT(h.bicgstab_iterations, 0u);
  EXPECT_GT(h.operator_applications, h.forward_solves);
  EXPECT_GT(h.precond_setup_seconds, 0.0);
  const double iters = static_cast<double>(serial.history.bicgstab_iterations);
  EXPECT_NEAR(static_cast<double>(h.bicgstab_iterations), iters, 0.25 * iters);
}

// A run that stops early reports the solves it actually ran, not the
// nominal 3 * T * max_iterations.
TEST(ParallelDbim, HistoryCountsOnlyTheIterationsRun) {
  SceneFixture f;
  constexpr std::uint64_t kT = 8;
  DbimOptions opts;
  opts.max_iterations = 8;
  const DbimResult full = dbim_reconstruct(
      f.scene->engine(), f.scene->transceivers(), f.scene->measurements(),
      opts);
  const auto& r = full.history.relative_residual;
  ASSERT_GE(r.size(), 3u);
  ASSERT_LT(r[2], 0.9 * r[1]);  // a clear gap for the stopping rule

  // residual_tol stops after the residual and gradient passes of the
  // third iteration: 3 T solves per full iteration plus 2 T.
  opts.residual_tol = std::sqrt(r[1] * r[2]);
  const DbimResult serial = dbim_reconstruct(
      f.scene->engine(), f.scene->transceivers(), f.scene->measurements(),
      opts);
  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 2;
  pcfg.dbim = opts;
  VCluster vc(4);
  const DbimResult par = dbim_reconstruct_parallel(
      vc, f.scene->tree(), f.scene->transceivers(), f.scene->measurements(),
      pcfg);
  ASSERT_EQ(par.history.relative_residual.size(), 3u);
  EXPECT_EQ(par.history.forward_solves, kT * (3 * 2 + 2));
  EXPECT_EQ(par.history.forward_solves, serial.history.forward_solves);

  // The windowed driver's plateau rule stops after a full iteration:
  // exactly 3 T solves per iteration run.
  WindowedDbimConfig wcfg;
  wcfg.illum_groups = 2;
  wcfg.tree_ranks = 2;
  wcfg.dbim.max_iterations = 8;
  wcfg.plateau_window = 1;
  wcfg.plateau_rtol = 0.5;
  const PartitionedMlfma pm(f.scene->tree(), MlfmaParams{}, 2);
  DbimHistory windowed;
  VCluster wvc(4);
  wvc.run([&](Comm& comm) {
    const DbimResult res = dbim_reconstruct_windowed(
        comm, pm, f.scene->tree(), f.scene->transceivers(),
        f.scene->measurements(), wcfg);
    if (comm.rank() == 0) windowed = res.history;
  });
  const std::size_t ran = windowed.relative_residual.size();
  ASSERT_GT(ran, 0u);
  ASSERT_LT(ran, 8u) << "plateau rule never fired";
  EXPECT_EQ(windowed.forward_solves, 3 * kT * ran);
  EXPECT_GT(windowed.operator_applications, windowed.forward_solves);
  EXPECT_GT(windowed.bicgstab_iterations, 0u);
}

// The ranks project through G_R slices: read from the materialised
// matrix when it fits the budget, evaluated per entry otherwise. Both
// paths must give the same reconstruction.
TEST(ParallelDbim, MatrixFreeReceiversMatchMaterialized) {
  SceneFixture f;
  const Transceivers& dense = f.scene->transceivers();
  const Transceivers lazy(f.scene->tree().grid(), dense.transmitters(),
                          dense.receivers(), /*budget=*/0);
  ASSERT_TRUE(dense.gr_materialized());
  ASSERT_FALSE(lazy.gr_materialized());

  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 2;
  pcfg.dbim.max_iterations = 4;
  pcfg.dbim.near_precondition = true;
  const auto run = [&](const Transceivers& trx) {
    VCluster vc(4);
    return dbim_reconstruct_parallel(vc, f.scene->tree(), trx,
                                     f.scene->measurements(), pcfg);
  };
  const DbimResult a = run(dense);
  const DbimResult b = run(lazy);
  ASSERT_EQ(a.history.relative_residual.size(), 4u);
  ASSERT_EQ(b.history.relative_residual.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(b.history.relative_residual[i], a.history.relative_residual[i],
                1e-10)
        << "iteration " << i;
  }
  EXPECT_LE(image_rmse(b.contrast, a.contrast), 1e-10);
}

// The incident panel (DbimOptions::incident_panel) replaces per-pixel
// Hankel evaluations with reads of the same values, so a run fed the
// panel is the run without it, bit for bit, in both parallel drivers.
// With one tree rank there is no halo exchange, so reruns are
// bit-identical and the comparison is exact.
TEST(ParallelDbim, IncidentPanelRunIsBitIdentical) {
  SceneFixture f;
  const Transceivers& trx = f.scene->transceivers();
  const std::size_t n = f.scene->tree().grid().num_pixels();
  const int t_count = trx.num_transmitters();
  cvec panel(n * static_cast<std::size_t>(t_count));
  for (int t = 0; t < t_count; ++t) {
    const cvec col = trx.incident_field(t);
    std::copy(col.begin(), col.end(),
              panel.begin() + static_cast<std::ptrdiff_t>(t * n));
  }
  const auto same_bits = [](const DbimResult& x, const DbimResult& y) {
    return x.contrast == y.contrast &&
           x.history.relative_residual == y.history.relative_residual;
  };

  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 1;
  pcfg.dbim.max_iterations = 4;
  const auto run = [&](const ParallelDbimConfig& c) {
    VCluster vc(2);
    return dbim_reconstruct_parallel(vc, f.scene->tree(), trx,
                                     f.scene->measurements(), c);
  };
  const DbimResult plain = run(pcfg);
  EXPECT_TRUE(same_bits(run(pcfg), plain)) << "rerun differs";
  pcfg.dbim.incident_panel = panel;
  EXPECT_TRUE(same_bits(run(pcfg), plain)) << "panel run differs";

  WindowedDbimConfig wcfg;
  wcfg.illum_groups = 2;
  wcfg.tree_ranks = 1;
  wcfg.dbim.max_iterations = 4;
  const PartitionedMlfma pm(f.scene->tree(), MlfmaParams{}, 1);
  const auto run_windowed = [&](const WindowedDbimConfig& c) {
    DbimResult out;
    VCluster vc(2);
    vc.run([&](Comm& comm) {
      DbimResult res = dbim_reconstruct_windowed(
          comm, pm, f.scene->tree(), trx, f.scene->measurements(), c);
      if (comm.rank() == 0) out = std::move(res);
    });
    return out;
  };
  const DbimResult wplain = run_windowed(wcfg);
  wcfg.dbim.incident_panel = panel;
  EXPECT_TRUE(same_bits(run_windowed(wcfg), wplain)) << "windowed panel run";
}

// Both parallel drivers record the serial stepper's per-pass spans on
// every rank: one dbim.iteration, dbim.residual_pass, dbim.gradient_pass
// and dbim.step_pass per iteration.
TEST(ParallelDbim, DriversRecordPerPassSpans) {
  SceneFixture f;
  constexpr std::uint64_t kIters = 3;
  const auto span_count = [](int rank, const char* name) {
    for (const obs::PhaseTotal& p : obs::phase_totals(rank))
      if (p.name == name) return p.count;
    return std::uint64_t{0};
  };
  const auto expect_spans = [&](const char* driver) {
    for (int r = 0; r < 4; ++r) {
      for (const char* name : {"dbim.iteration", "dbim.residual_pass",
                               "dbim.gradient_pass", "dbim.step_pass"}) {
        EXPECT_EQ(span_count(r, name), kIters)
            << driver << " rank " << r << " " << name;
      }
    }
  };

  obs::reset();
  obs::set_enabled(true);
  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 2;
  pcfg.dbim.max_iterations = static_cast<int>(kIters);
  VCluster vc(4);
  dbim_reconstruct_parallel(vc, f.scene->tree(), f.scene->transceivers(),
                            f.scene->measurements(), pcfg);
  obs::set_enabled(false);
  expect_spans("parallel");

  obs::reset();
  obs::set_enabled(true);
  WindowedDbimConfig wcfg;
  wcfg.illum_groups = 2;
  wcfg.tree_ranks = 2;
  wcfg.dbim.max_iterations = static_cast<int>(kIters);
  const PartitionedMlfma pm(f.scene->tree(), MlfmaParams{}, 2);
  VCluster wvc(4);
  wvc.run([&](Comm& comm) {
    dbim_reconstruct_windowed(comm, pm, f.scene->tree(),
                              f.scene->transceivers(),
                              f.scene->measurements(), wcfg);
  });
  obs::set_enabled(false);
  expect_spans("windowed");
  obs::reset();
}

TEST(ParallelDbim, SurvivesInjectedCrashesViaCheckpointRestart) {
  // End-to-end crash recovery: two injected rank crashes mid-run must
  // leave the reconstruction indistinguishable from the fault-free one.
  // The driver's supervisor catches each RankFailure, recovers the
  // cluster and resumes from the last atomically-saved checkpoint.
  SceneFixture f;
  DbimOptions opts;
  opts.max_iterations = 6;
  // Warm-started background fields are deliberately not checkpointed
  // (they are re-derived on resume); with warm starts off every iterate
  // is a pure function of the checkpointed outer-loop state, so the
  // crashed run must match the fault-free run to rounding.
  opts.warm_start_fields = false;

  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 2;
  pcfg.dbim = opts;
  pcfg.checkpoint_path = "/tmp/ffw_dbim_e2e_ref.ckpt";

  constexpr int p = 4;
  VCluster vc_ref(p);
  const DbimResult ref = dbim_reconstruct_parallel(
      vc_ref, f.scene->tree(), f.scene->transceivers(),
      f.scene->measurements(), pcfg);

  // Place the crashes from the fault-free run's per-rank send totals:
  // rank 1 dies ~40% in, rank 2 ~70% in. The 1-based send counters are
  // cumulative across recoveries and every value is eventually reached,
  // so any at_send below the clean-run total is guaranteed to fire.
  const TrafficStats t = vc_ref.traffic();
  const auto sends_of = [&t](int r) {
    std::uint64_t s = 0;
    for (int d = 0; d < p; ++d) s += t.messages[r * p + d];
    return s;
  };
  ASSERT_GT(sends_of(1), 10u);
  ASSERT_GT(sends_of(2), 10u);

  FaultPlan plan;
  plan.crashes.push_back({1, sends_of(1) * 2 / 5});
  plan.crashes.push_back({2, sends_of(2) * 7 / 10});

  pcfg.checkpoint_path = "/tmp/ffw_dbim_e2e_crash.ckpt";
  pcfg.max_restarts = 2;
  VCluster vc_crash(p);
  vc_crash.install_fault_plan(plan);
  const DbimResult crashed = dbim_reconstruct_parallel(
      vc_crash, f.scene->tree(), f.scene->transceivers(),
      f.scene->measurements(), pcfg);

  EXPECT_EQ(vc_crash.fault_stats().crashes, 2u);
  ASSERT_EQ(crashed.history.relative_residual.size(),
            ref.history.relative_residual.size());
  for (std::size_t i = 0; i < ref.history.relative_residual.size(); ++i) {
    EXPECT_NEAR(crashed.history.relative_residual[i],
                ref.history.relative_residual[i],
                1e-10 * ref.history.relative_residual[i])
        << "iteration " << i;
  }
  EXPECT_LE(image_rmse(crashed.contrast, ref.contrast), 1e-10);
  std::remove("/tmp/ffw_dbim_e2e_ref.ckpt");
  std::remove("/tmp/ffw_dbim_e2e_crash.ckpt");
}

TEST(ParallelDbim, CrashBeforeFirstCheckpointRestartsFromScratch) {
  // A crash before any iteration completes finds no checkpoint on disk;
  // the supervisor must rerun from scratch and still converge.
  SceneFixture f;
  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 1;
  pcfg.dbim.max_iterations = 3;
  pcfg.dbim.warm_start_fields = false;
  pcfg.checkpoint_path = "/tmp/ffw_dbim_e2e_early.ckpt";
  pcfg.max_restarts = 1;

  VCluster vc_ref(2);
  const DbimResult ref = dbim_reconstruct_parallel(
      vc_ref, f.scene->tree(), f.scene->transceivers(),
      f.scene->measurements(), pcfg);
  std::remove("/tmp/ffw_dbim_e2e_early.ckpt");

  FaultPlan plan;
  plan.crashes.push_back({1, 1});  // rank 1 dies on its very first send
  VCluster vc(2);
  vc.install_fault_plan(plan);
  const DbimResult got = dbim_reconstruct_parallel(
      vc, f.scene->tree(), f.scene->transceivers(), f.scene->measurements(),
      pcfg);
  EXPECT_EQ(vc.fault_stats().crashes, 1u);
  EXPECT_LE(image_rmse(got.contrast, ref.contrast), 1e-12);
  std::remove("/tmp/ffw_dbim_e2e_early.ckpt");
}

TEST(ParallelDbim, ExhaustedRestartBudgetPropagatesTheFailure) {
  // With max_restarts = 0 the supervisor must not mask the failure.
  SceneFixture f;
  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 1;
  pcfg.dbim.max_iterations = 2;
  FaultPlan plan;
  plan.crashes.push_back({1, 1});
  VCluster vc(2);
  vc.install_fault_plan(plan);
  EXPECT_THROW(dbim_reconstruct_parallel(vc, f.scene->tree(),
                                         f.scene->transceivers(),
                                         f.scene->measurements(), pcfg),
               RankFailure);
}

}  // namespace
}  // namespace ffw

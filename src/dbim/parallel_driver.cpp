#include "dbim/parallel_driver.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "common/timer.hpp"
#include "forward/precond.hpp"
#include "forward/recycle.hpp"
#include "linalg/kernels.hpp"
#include "obs/obs.hpp"
#include "service/table_cache.hpp"

namespace ffw {

namespace {

/// Rank-local state and sub-operations for one rank of the 2-D grid.
/// Shared by the cluster-wide driver (dbim_reconstruct_parallel) and
/// the windowed driver (dbim_reconstruct_windowed), whose 2-D grid
/// occupies only a window of the cluster's ranks; both run the same
/// outer iteration (iterate()).
struct RankCtx {
  Comm* comm;
  const PartitionedMlfma* pm;
  const Transceivers* trx;
  const CMatrix* measured;
  const DbimOptions* dbim;
  BicgstabOptions fw_opts;
  double meas_norm2 = 0.0;

  int group = 0;       // illumination group index
  int tree_rank = 0;   // rank within the tree group
  int rank_base = 0;   // first global rank of this tree group
  std::vector<int> tree_group;    // global ranks sharing this MLFMA
  std::vector<int> column_group;  // same tree_rank across illum groups
  /// Sums a scalar over every rank of the 2-D grid.
  std::function<double(double)> grid_sum;

  std::size_t nloc = 0;                  // local pixel count
  std::vector<std::uint32_t> nat_idx;    // natural pixel index per local q
  cvec o_loc;                            // background contrast slice
  // Iteration-reduction state (ISSUE 6): the Eisenstat-Walker tolerance
  // of the current iteration, the rank-local near-field block-Jacobi
  // (communication-free: it only inverts leaf self blocks this rank
  // owns), and the Krylov recycling histories of the gradient and
  // step-length solves.
  double forcing_tol = 0.0;
  std::unique_ptr<NearFieldBlockJacobi> precond;
  KrylovRecycler rec_grad, rec_step;
  // Incident and background fields of all local transmitters as ONE
  // block vector each in the leaf-interleaved layout (panel =
  // pixels_per_leaf, one column per local illumination), so the
  // residual pass is a single block solve. The incident block is fixed
  // for the run and filled once.
  cvec inc_b, phi_b;
  std::vector<int> local_t;              // transmitters of this group
  BlockLayout lo;                        // local block layout (nrhs = |local_t|)
  // Outer-loop (Polak-Ribiere+) state: this rank's slices of the
  // gradient, the previous gradient and the search direction (replicated
  // across illumination groups), its group's residual columns, and the
  // replicated scalars. prev_relres < 0 = no completed iteration yet.
  cvec grad, grad_prev, direction, residuals;
  double grad_prev_norm2 = 0.0;
  double prev_relres = -1.0;
  // This rank's share of the returned DbimHistory totals.
  std::uint64_t solves = 0, krylov_iters = 0, applications = 0;
  double precond_setup_s = 0.0;

  /// Places the calling rank on an ig x pm.nranks() grid whose first
  /// global rank is `base`: illumination group (rank - base) / tr owns
  /// transmitters group, group + ig, ...; tree rank (rank - base) % tr
  /// owns PartitionedMlfma slice tree_rank. Fills the incident block
  /// (from dbim.incident_panel when set) and starts the background
  /// fields from it with a zero contrast.
  RankCtx(Comm& c, const PartitionedMlfma& p, const QuadTree& tree,
          const Transceivers& t, const CMatrix& meas, const DbimOptions& d,
          const BicgstabOptions& fw, int ig, int base)
      : comm(&c), pm(&p), trx(&t), measured(&meas), dbim(&d), fw_opts(fw) {
    const int tr = p.nranks();
    const int wrank = c.rank() - base;
    group = wrank / tr;
    tree_rank = wrank % tr;
    rank_base = base + group * tr;
    for (int r = 0; r < tr; ++r) tree_group.push_back(rank_base + r);
    for (int g = 0; g < ig; ++g)
      column_group.push_back(base + g * tr + tree_rank);
    for (std::size_t col = 0; col < meas.cols(); ++col) {
      const double nn = nrm2(meas.col(col));
      meas_norm2 += nn * nn;
    }

    nloc = p.local_pixels(tree_rank);
    const std::size_t npl = static_cast<std::size_t>(tree.pixels_per_leaf());
    const std::size_t q0 = p.leaf_begin(tree_rank) * npl;
    nat_idx.resize(nloc);
    for (std::size_t q = 0; q < nloc; ++q) nat_idx[q] = tree.perm()[q0 + q];
    for (int tx = group; tx < t.num_transmitters(); tx += ig)
      local_t.push_back(tx);
    o_loc.assign(nloc, cplx{});
    lo = BlockLayout{npl, local_t.size(), nloc / npl};

    const std::size_t npix = tree.grid().num_pixels();
    const ccspan panel = d.incident_panel;
    FFW_CHECK_MSG(panel.empty() ||
                      panel.size() >= npix * static_cast<std::size_t>(
                                                 t.num_transmitters()),
                  "parallel DBIM: incident panel smaller than n x T");
    inc_b.assign(lo.size(), cplx{});
    cvec inc(nloc);
    for (std::size_t i = 0; i < lo.nrhs; ++i) {
      if (panel.empty()) {
        t.incident_field_subset(local_t[i], nat_idx, inc);
      } else {
        const cplx* col =
            panel.data() + static_cast<std::size_t>(local_t[i]) * npix;
        for (std::size_t q = 0; q < nloc; ++q) inc[q] = col[nat_idx[q]];
      }
      block_col_set(lo, inc_b, i, inc);
    }
    phi_b = inc_b;
    if (d.recycle_depth > 0) {
      const RecycleOptions ro{static_cast<std::size_t>(d.recycle_depth),
                              d.recycle_ridge};
      rec_grad = KrylovRecycler(ro);
      rec_step = KrylovRecycler(ro);
    }
    grad.assign(nloc, cplx{});
    grad_prev.assign(nloc, cplx{});
    direction.assign(nloc, cplx{});
    residuals.assign(meas.rows() * local_t.size(), cplx{});
  }

  DotReducer tree_reduce() {
    return DotReducer{
        [this](cplx v) {
          double buf[2] = {v.real(), v.imag()};
          comm->group_allreduce_sum(rspan{buf, 2}, tree_group);
          return cplx{buf[0], buf[1]};
        },
        [this](double v) {
          return comm->group_allreduce_sum(v, tree_group);
        },
        [this](cspan v) { comm->group_allreduce_sum(v, tree_group); },
        [this](rspan v) { comm->group_allreduce_sum(v, tree_group); }};
  }

  /// Y = [I - G0 O] X on local block slices (collective over the tree
  /// group; one halo message per peer per level for all columns).
  void forward_op_block(ccspan x, cspan y) {
    cvec ox(lo.size());
    block_diag_mul(lo, o_loc, x, ox);
    pm->apply_block(*comm, ox, y, lo.nrhs, rank_base);
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = x[i] - y[i];
  }

  /// Y = [I - G0 O]^H X.
  void adjoint_op_block(ccspan x, cspan y) {
    pm->apply_herm_block(*comm, x, y, lo.nrhs, rank_base);
    for (std::size_t c = 0; c < lo.npanels; ++c) {
      const cplx* op = o_loc.data() + c * lo.panel;
      for (std::size_t r = 0; r < lo.nrhs; ++r) {
        const cplx* xp = x.data() + lo.at(c, r);
        cplx* yp = y.data() + lo.at(c, r);
        for (std::size_t i = 0; i < lo.panel; ++i)
          yp[i] = xp[i] - std::conj(op[i]) * yp[i];
      }
    }
  }

  /// Per-iteration Krylov options: the base tolerance loosened to the
  /// Eisenstat-Walker forcing tolerance when one is active.
  BicgstabOptions krylov_opts() const {
    BicgstabOptions o = fw_opts;
    if (forcing_tol > 0.0) o.tol = std::max(forcing_tol, o.tol);
    return o;
  }

  BlockBicgstabResult solve_forward_block(ccspan rhs, cspan x) {
    return tally(block_bicgstab(
        [this](ccspan in, cspan out) { forward_op_block(in, out); }, rhs, x,
        lo, krylov_opts(), tree_reduce(),
        PrecondContext{precond.get(), lo, /*herm=*/false}));
  }

  BlockBicgstabResult solve_adjoint_block(ccspan rhs, cspan x) {
    return tally(block_bicgstab(
        [this](ccspan in, cspan out) { adjoint_op_block(in, out); }, rhs, x,
        lo, krylov_opts(), tree_reduce(),
        PrecondContext{precond.get(), lo, /*herm=*/true}));
  }

  BlockBicgstabResult tally(BlockBicgstabResult res) {
    solves += res.rhs.size();
    krylov_iters += res.total_iterations();
    applications += static_cast<std::uint64_t>(res.block_matvecs) * lo.nrhs;
    return res;
  }

  /// Rebuilds the rank-local block-Jacobi for the current background
  /// contrast: rank-local leaf self blocks only, so the factorisation is
  /// communication-free.
  void refactor_precond() {
    Timer t;
    precond = std::make_unique<NearFieldBlockJacobi>(
        pm->nearfield().type(4), ccspan{o_loc}, Precision::kDouble);
    precond_setup_s += t.seconds();
  }

  /// Fills the work totals of `h` from every rank in `ranks`
  /// (collective over them). The ranks of a tree group share each block
  /// solve, so solves, Krylov iterations and operator applications are
  /// counted once per tree group, as the serial driver counts them;
  /// factor seconds are summed over all ranks.
  void reduce_history(DbimHistory& h, std::span<const int> ranks) {
    const bool leader = tree_rank == 0;
    double buf[4] = {leader ? static_cast<double>(solves) : 0.0,
                     leader ? static_cast<double>(krylov_iters) : 0.0,
                     leader ? static_cast<double>(applications) : 0.0,
                     precond_setup_s};
    comm->group_allreduce_sum(rspan{buf, 4}, ranks);
    h.forward_solves = static_cast<std::uint64_t>(buf[0]);
    h.bicgstab_iterations = static_cast<std::uint64_t>(buf[1]);
    h.operator_applications = static_cast<std::uint64_t>(buf[2]);
    h.precond_setup_seconds = buf[3];
  }

  /// G_R projections of all block columns at once: cols[t] = G_R v_t,
  /// replicated within the tree group after ONE batched allreduce
  /// (instead of one per transmitter).
  void gr_full_block(ccspan v_block, cspan cols) {
    const std::size_t nr = static_cast<std::size_t>(trx->num_receivers());
    FFW_CHECK(cols.size() == nr * lo.nrhs);
    std::fill(cols.begin(), cols.end(), cplx{});
    cvec v(nloc);
    for (std::size_t t = 0; t < lo.nrhs; ++t) {
      block_col_get(lo, v_block, t, v);
      trx->apply_gr_subset(v, nat_idx, cspan{cols.data() + t * nr, nr});
    }
    comm->group_allreduce_sum(cols, tree_group);
  }

  /// Residual pass over all local illuminations as one block solve:
  /// returns sum_t ||b_t||^2 and fills `residuals` (R x |local_t|).
  double residual_pass_all(cspan residuals) {
    const std::size_t nr = static_cast<std::size_t>(trx->num_receivers());
    const BlockBicgstabResult res = solve_forward_block(inc_b, phi_b);
    FFW_CHECK_MSG(res.converged, "parallel DBIM forward solve diverged");
    cvec v(lo.size());
    block_diag_mul(lo, o_loc, phi_b, v);
    gr_full_block(v, residuals);
    double cost = 0.0;
    for (std::size_t i = 0; i < lo.nrhs; ++i) {
      cspan residual{residuals.data() + i * nr, nr};
      sub(residual, measured->col(static_cast<std::size_t>(local_t[i])),
          residual);
      const double rn = nrm2(ccspan{residual.data(), nr});
      cost += rn * rn;
    }
    return cost;
  }

  /// grad_loc += sum_t F_t^H b_t with one block adjoint solve.
  void gradient_pass_all(ccspan residuals, cspan grad_loc) {
    const std::size_t nr = static_cast<std::size_t>(trx->num_receivers());
    cvec g1(lo.size()), w2(lo.size()), w3(lo.size(), cplx{}), w4(lo.size());
    cvec g(nloc);
    for (std::size_t i = 0; i < lo.nrhs; ++i) {
      trx->apply_gr_herm_subset(ccspan{residuals.data() + i * nr, nr},
                                nat_idx, g);
      block_col_set(lo, g1, i, g);
    }
    block_diag_mul_conj(lo, o_loc, g1, w2);
    // Krylov recycling: seed from the least-squares combination of the
    // retained (rhs, solution) pairs — collective over the tree group,
    // one batched reduction.
    rec_grad.seed(w2, w3, lo, tree_reduce());
    FFW_CHECK(solve_adjoint_block(w2, w3).converged);
    rec_grad.store(w2, w3, lo);
    pm->apply_herm_block(*comm, w3, w4, lo.nrhs, rank_base);
    for (std::size_t c = 0; c < lo.npanels; ++c) {
      cplx* gq = grad_loc.data() + c * lo.panel;
      for (std::size_t r = 0; r < lo.nrhs; ++r) {
        const cplx* phi = phi_b.data() + lo.at(c, r);
        const cplx* g1p = g1.data() + lo.at(c, r);
        const cplx* w4p = w4.data() + lo.at(c, r);
        for (std::size_t i = 0; i < lo.panel; ++i)
          gq[i] += std::conj(phi[i]) * (g1p[i] + w4p[i]);
      }
    }
  }

  /// sum_t ||F_t d||^2 with one block forward solve.
  double step_pass_all(ccspan d_loc) {
    const std::size_t nr = static_cast<std::size_t>(trx->num_receivers());
    cvec u1(lo.size()), u2(lo.size()), w(lo.size(), cplx{});
    block_diag_mul(lo, d_loc, phi_b, u1);
    pm->apply_block(*comm, u1, u2, lo.nrhs, rank_base);
    rec_step.seed(u2, w, lo, tree_reduce());
    FFW_CHECK(solve_forward_block(u2, w).converged);
    rec_step.store(u2, w, lo);
    for (std::size_t c = 0; c < lo.npanels; ++c) {
      const cplx* op = o_loc.data() + c * lo.panel;
      for (std::size_t r = 0; r < lo.nrhs; ++r) {
        const cplx* wp = w.data() + lo.at(c, r);
        cplx* up = u1.data() + lo.at(c, r);
        for (std::size_t i = 0; i < lo.panel; ++i) up[i] += op[i] * wp[i];
      }
    }
    cvec sc(nr * lo.nrhs);
    gr_full_block(u1, sc);
    double denom = 0.0;
    for (std::size_t i = 0; i < lo.nrhs; ++i) {
      const double fn = nrm2(ccspan{sc.data() + i * nr, nr});
      denom += fn * fn;
    }
    return denom;
  }

  /// One DBIM iteration on this rank (paper Fig. 4): residual and
  /// gradient passes, the gradient combine across illumination groups,
  /// the Polak-Ribiere+ direction, the step-length pass and the contrast
  /// update. `record` receives the relative residual as soon as it is
  /// known. Returns false when the run stops instead of updating — the
  /// residual reached residual_tol, or the gradient or the step
  /// denominator vanished; every rank reaches the same verdict.
  bool iterate(int iter, const std::function<void(double)>& record) {
    FFW_TRACE_SPAN("dbim.iteration", iter);
    const DbimOptions& o = *dbim;
    const double tr = static_cast<double>(tree_group.size());
    const DotReducer red = tree_reduce();
    if (o.near_precondition) refactor_precond();
    if (o.adaptive_forcing) {
      // Lagged Eisenstat-Walker forcing, as in DbimStepper; on resume
      // prev_relres comes from the checkpointed residual history, so the
      // recovered tolerances are bit-identical.
      const double base = fw_opts.tol;
      const double cap = std::max(base, o.forcing_cap);
      forcing_tol = prev_relres >= 0.0
                        ? std::clamp(o.forcing_c * prev_relres, base, cap)
                        : cap;
    }
    // Pass 1 + 2: residual and gradient, each as one block solve over
    // the whole local illumination set.
    std::fill(grad.begin(), grad.end(), cplx{});
    double cost_loc = 0.0;
    if (!local_t.empty()) {
      // Mirror the serial driver's warm-start policy: with
      // warm_start_fields off the block solve restarts from the
      // incident fields instead of the previous background fields, and
      // the recycle histories reset with them (keeps every iterate a
      // pure function of the checkpointed outer-loop state, which is
      // what the checkpoint stores; crash recovery relies on this).
      if (!o.warm_start_fields) {
        copy(inc_b, phi_b);
        rec_grad.clear();
        rec_step.clear();
      }
      {
        FFW_TRACE_SPAN("dbim.residual_pass", iter);
        cost_loc = residual_pass_all(residuals);
      }
      {
        FFW_TRACE_SPAN("dbim.gradient_pass", iter);
        gradient_pass_all(residuals, grad);
      }
    }
    // Cost: each illumination's cost is replicated tr times.
    const double cost = grid_sum(cost_loc) / tr;
    // Gradient combine across illumination groups (paper Fig. 4 sync 1).
    comm->group_allreduce_sum(cspan{grad}, column_group);
    if (o.tikhonov > 0.0) {
      for (std::size_t q = 0; q < nloc; ++q) grad[q] += o.tikhonov * o_loc[q];
    }

    const double relres = std::sqrt(cost / meas_norm2);
    prev_relres = relres;
    record(relres);
    if (o.residual_tol > 0.0 && relres < o.residual_tol) return false;

    // Conjugate direction (identical scalars on every rank).
    double gn_loc = 0.0;
    for (const auto& v : grad) gn_loc += std::norm(v);
    const double gnorm2 = red.sum_double(gn_loc);
    if (gnorm2 == 0.0) return false;
    double beta = 0.0;
    if (o.conjugate_gradient && iter > 0 && grad_prev_norm2 > 0.0) {
      cplx num_loc{};
      for (std::size_t q = 0; q < nloc; ++q)
        num_loc += std::conj(grad[q]) * (grad[q] - grad_prev[q]);
      beta = std::max(0.0, red.sum_cplx(num_loc).real() / grad_prev_norm2);
    }
    if (beta == 0.0) {
      for (std::size_t q = 0; q < nloc; ++q) direction[q] = -grad[q];
    } else {
      for (std::size_t q = 0; q < nloc; ++q)
        direction[q] = -grad[q] + beta * direction[q];
    }

    // Pass 3: step length (paper Fig. 4 sync 2), one block solve.
    double denom_loc = 0.0;
    if (!local_t.empty()) {
      FFW_TRACE_SPAN("dbim.step_pass", iter);
      denom_loc = step_pass_all(direction);
    }
    double denom = grid_sum(denom_loc) / tr;
    if (o.tikhonov > 0.0) {
      double dn_loc = 0.0;
      for (std::size_t q = 0; q < nloc; ++q) dn_loc += std::norm(direction[q]);
      denom += o.tikhonov * red.sum_double(dn_loc);
    }
    if (denom == 0.0) return false;
    cplx num_loc{};
    for (std::size_t q = 0; q < nloc; ++q)
      num_loc += std::conj(grad[q]) * direction[q];
    const double alpha = -red.sum_cplx(num_loc).real() / denom;
    for (std::size_t q = 0; q < nloc; ++q) o_loc[q] += alpha * direction[q];

    copy(grad, grad_prev);
    grad_prev_norm2 = gnorm2;
    return true;
  }
};

}  // namespace

DbimResult dbim_reconstruct_parallel(VCluster& vc, const QuadTree& tree,
                                     const Transceivers& trx,
                                     const CMatrix& measured,
                                     const ParallelDbimConfig& config) {
  const int ig = config.illum_groups, tr = config.tree_ranks;
  FFW_CHECK(vc.size() == ig * tr);
  const PartitionedMlfma pm =
      config.table_cache != nullptr
          ? PartitionedMlfma(
                config.table_cache->mlfma_tables(
                    tree.grid(), tree.leaf_pixel_side(), config.mlfma),
                tr)
          : PartitionedMlfma(tree, config.mlfma, tr);
  const std::size_t npix = tree.grid().num_pixels();

  // Shared result buffers (group 0 / rank 0 write disjoint parts).
  cvec out_cluster(npix, cplx{});
  std::vector<double> history;
  DbimHistory totals;  // work totals, written by rank 0

  // Crash-recovery state: set between (re)runs by the supervisor loop
  // below, read-only while rank threads are live.
  DbimCheckpoint resume_state;
  bool have_resume = false;

  const auto rank_program = [&](Comm& comm) {
    if (config.dbim.near_precondition) {
      FFW_CHECK_MSG(pm.nearfield().precision() == Precision::kDouble,
                    "parallel DBIM near-field preconditioner needs fp64 "
                    "near-field tables");
    }
    FFW_CHECK_MSG(config.dbim.backend == BackendKind::kMlfma,
                  "parallel DBIM runs on the partitioned MLFMA engine only; "
                  "CBS/auto backend routing is a serial-driver feature");
    RankCtx ctx(comm, pm, tree, trx, measured, config.dbim, config.forward,
                ig, /*base=*/0);
    ctx.grid_sum = [&comm](double v) { return comm.allreduce_sum(v); };
    std::vector<int> all_ranks;
    for (int r = 0; r < vc.size(); ++r) all_ranks.push_back(r);

    int start_iter = 0;
    if (have_resume) {
      // The checkpoint stores full natural-order arrays, so every rank
      // (the contrast and CG memory are replicated across illumination
      // groups) restores its cluster-order slice through nat_idx. The
      // lagged Eisenstat-Walker residual is recovered from the
      // checkpointed residual history.
      FFW_CHECK_MSG(!resume_state.mixed_precision,
                    "parallel DBIM resume: checkpoint precision policy "
                    "(mixed) does not match this fp64 driver");
      FFW_CHECK_MSG(resume_state.backend == BackendKind::kMlfma,
                    "parallel DBIM resume: checkpoint backend policy is not "
                    "MLFMA; this driver cannot continue a CBS/auto run");
      FFW_CHECK(resume_state.contrast.size() == npix &&
                resume_state.gradient_prev.size() == npix &&
                resume_state.direction.size() == npix);
      for (std::size_t q = 0; q < ctx.nloc; ++q) {
        ctx.o_loc[q] = resume_state.contrast[ctx.nat_idx[q]];
        ctx.grad_prev[q] = resume_state.gradient_prev[ctx.nat_idx[q]];
        ctx.direction[q] = resume_state.direction[ctx.nat_idx[q]];
      }
      ctx.grad_prev_norm2 = std::pow(nrm2(resume_state.gradient_prev), 2);
      start_iter = resume_state.iteration;
      if (!resume_state.residual_history.empty())
        ctx.prev_relres = resume_state.residual_history.back();
    }

    for (int iter = start_iter; iter < config.dbim.max_iterations; ++iter) {
      const bool updated = ctx.iterate(iter, [&](double relres) {
        if (comm.rank() != 0) return;
        history.push_back(relres);
        if (config.dbim.progress) config.dbim.progress(iter, relres);
      });
      if (!updated) break;

      // Atomic checkpoint of the completed iteration: group-0 tree ranks
      // ship their cluster-order slices to global rank 0, which scatters
      // them into natural order (via the tree permutation, per sender)
      // and saves the same DbimCheckpoint format the serial driver
      // emits. Every rank restores from it on a supervisor restart.
      if (!config.checkpoint_path.empty() && ctx.group == 0 &&
          (iter + 1) % std::max(1, config.checkpoint_every) == 0) {
        constexpr int kTagCkpt = -4000;  // reserved: checkpoint gather
        const std::size_t npl =
            static_cast<std::size_t>(tree.pixels_per_leaf());
        if (comm.rank() != 0) {
          cvec pack(3 * ctx.nloc);
          std::copy(ctx.o_loc.begin(), ctx.o_loc.end(), pack.begin());
          std::copy(ctx.grad_prev.begin(), ctx.grad_prev.end(),
                    pack.begin() + static_cast<std::ptrdiff_t>(ctx.nloc));
          std::copy(ctx.direction.begin(), ctx.direction.end(),
                    pack.begin() + static_cast<std::ptrdiff_t>(2 * ctx.nloc));
          comm.send(0, kTagCkpt, ccspan{pack});
        } else {
          DbimCheckpoint state;
          state.iteration = iter + 1;
          state.mixed_precision = false;
          state.contrast.assign(npix, cplx{});
          state.gradient_prev.assign(npix, cplx{});
          state.direction.assign(npix, cplx{});
          const auto scatter = [&](int r, ccspan o, ccspan g, ccspan d) {
            const std::size_t q0r = pm.leaf_begin(r) * npl;
            for (std::size_t q = 0; q < o.size(); ++q) {
              const std::uint32_t nat = tree.perm()[q0r + q];
              state.contrast[nat] = o[q];
              state.gradient_prev[nat] = g[q];
              state.direction[nat] = d[q];
            }
          };
          scatter(0, ctx.o_loc, ctx.grad_prev, ctx.direction);
          for (int r = 1; r < tr; ++r) {
            const cvec pack = comm.recv<cplx>(r, kTagCkpt);
            const std::size_t nl = pm.local_pixels(r);
            FFW_CHECK(pack.size() == 3 * nl);
            scatter(r, ccspan{pack.data(), nl}, ccspan{pack.data() + nl, nl},
                    ccspan{pack.data() + 2 * nl, nl});
          }
          state.residual_history.assign(history.begin(), history.end());
          FFW_CHECK_MSG(state.save(config.checkpoint_path),
                        "parallel DBIM: checkpoint save failed");
        }
      }
    }

    DbimHistory run_totals;
    ctx.reduce_history(run_totals, all_ranks);
    if (comm.rank() == 0) totals = run_totals;
    if (ctx.group == 0) {
      std::copy(ctx.o_loc.begin(), ctx.o_loc.end(),
                out_cluster.begin() +
                    static_cast<std::ptrdiff_t>(
                        pm.leaf_begin(ctx.tree_rank) *
                        static_cast<std::size_t>(tree.pixels_per_leaf())));
    }
    // Real-process ranks share no out_cluster: group-0 slices travel to
    // global rank 0 by message instead, so the process hosting rank 0
    // assembles the full image (the only process whose DbimResult
    // carries it).
    if (!vc.hosts_all()) {
      constexpr int kTagResult = -4100;  // reserved: result gather
      const std::size_t npl =
          static_cast<std::size_t>(tree.pixels_per_leaf());
      if (comm.rank() == 0) {
        for (int r = 1; r < tr; ++r) {
          const cvec slice = comm.recv<cplx>(r, kTagResult);
          FFW_CHECK(slice.size() == pm.local_pixels(r));
          std::copy(slice.begin(), slice.end(),
                    out_cluster.begin() +
                        static_cast<std::ptrdiff_t>(pm.leaf_begin(r) * npl));
        }
      } else if (ctx.group == 0) {
        comm.send(0, kTagResult, ccspan{ctx.o_loc});
      }
    }
  };

  // Supervisor: a failed run (e.g. an injected RankFailure) is caught
  // here; the cluster is recovered and the ranks rerun from the last
  // atomically-saved checkpoint (or from scratch when the crash landed
  // before the first save). Consumed crash triggers do not re-fire
  // (VCluster keeps the cumulative send counters across recover()).
  if (config.resume_from_checkpoint && !config.checkpoint_path.empty() &&
      resume_state.load(config.checkpoint_path)) {
    have_resume = true;
    history.assign(resume_state.residual_history.begin(),
                   resume_state.residual_history.end());
  }
  int restarts = 0;
  for (;;) {
    try {
      vc.run(rank_program);
      break;
    } catch (const CommFailure&) {
      // Process mode cannot restart locally — the failure means a peer
      // *process* is gone, and only the process-tree supervisor
      // (ffw_launch) can bring a whole consistent world back.
      if (!vc.hosts_all() || restarts >= config.max_restarts) throw;
      ++restarts;
      vc.recover();
      have_resume = !config.checkpoint_path.empty() &&
                    resume_state.load(config.checkpoint_path);
      history.clear();
      if (have_resume) {
        history.assign(resume_state.residual_history.begin(),
                       resume_state.residual_history.end());
      }
      std::fill(out_cluster.begin(), out_cluster.end(), cplx{});
    }
  }

  DbimResult out;
  out.contrast.assign(npix, cplx{});
  tree.to_natural_order(out_cluster, out.contrast);
  totals.relative_residual = std::move(history);
  out.history = std::move(totals);
  return out;
}

DbimResult dbim_reconstruct_windowed(Comm& comm, const PartitionedMlfma& pm,
                                     const QuadTree& tree,
                                     const Transceivers& trx,
                                     const CMatrix& measured,
                                     const WindowedDbimConfig& config,
                                     ccspan initial_contrast) {
  const int ig = config.illum_groups, tr = config.tree_ranks;
  FFW_CHECK(ig >= 1 && tr >= 1 && pm.nranks() == tr);
  const int window = ig * tr;
  const int wrank = comm.rank() - config.rank_base;
  FFW_CHECK_MSG(wrank >= 0 && wrank < window,
                "windowed DBIM: calling rank outside its window");
  FFW_CHECK(config.rank_base + window <= comm.size());
  FFW_CHECK_MSG(config.dbim.backend == BackendKind::kMlfma,
                "windowed DBIM runs on the partitioned MLFMA engine only");
  FFW_CHECK_MSG(config.dbim.mixed_engine == nullptr &&
                    config.dbim.resume == nullptr && !config.dbim.checkpoint,
                "windowed DBIM: per-scene DBIM pointers are unsupported "
                "(stage-level checkpointing is the ladder's job)");
  if (config.dbim.near_precondition) {
    FFW_CHECK_MSG(pm.nearfield().precision() == Precision::kDouble,
                  "windowed DBIM near-field preconditioner needs fp64 "
                  "near-field tables");
  }
  const std::size_t npix = tree.grid().num_pixels();
  const std::size_t npl = static_cast<std::size_t>(tree.pixels_per_leaf());

  // Window ranks, NOT the whole cluster: every collective below runs on
  // group primitives over explicit rank lists, never on the global
  // barrier/allreduce (which would deadlock against the other band
  // groups running their own windows concurrently).
  std::vector<int> window_ranks;
  for (int r = 0; r < window; ++r)
    window_ranks.push_back(config.rank_base + r);
  RankCtx ctx(comm, pm, tree, trx, measured, config.dbim, config.forward, ig,
              config.rank_base);
  ctx.grid_sum = [&comm, &window_ranks](double v) {
    return comm.group_allreduce_sum(v, window_ranks);
  };
  if (!initial_contrast.empty()) {
    FFW_CHECK(initial_contrast.size() == npix);
    for (std::size_t q = 0; q < ctx.nloc; ++q)
      ctx.o_loc[q] = initial_contrast[ctx.nat_idx[q]];
  }

  std::vector<double> history;
  for (int iter = 0; iter < config.dbim.max_iterations; ++iter) {
    const bool updated = ctx.iterate(iter, [&](double relres) {
      history.push_back(relres);
      if (config.dbim.progress && wrank == 0)
        config.dbim.progress(iter, relres);
    });
    if (!updated) break;

    // Per-band plateau stop, after the update so the serial stepper
    // (update inside step(), plateau checked by the caller between
    // steps) and this driver cut the band at the identical state. The
    // decision is a pure function of the replicated history — every
    // window rank reaches the same verdict with no extra message.
    if (config.plateau_window > 0 &&
        history.size() > static_cast<std::size_t>(config.plateau_window)) {
      const double then =
          history[history.size() - 1 -
                  static_cast<std::size_t>(config.plateau_window)];
      if (history.back() > (1.0 - config.plateau_rtol) * then) break;
    }
  }

  // Assemble the full natural-order image on every window rank: the
  // group-0 tree ranks hold the authoritative slices (the contrast is
  // replicated across illumination groups); gather them to the window
  // leader by message — works identically for thread and process ranks
  // — then broadcast over the window.
  constexpr int kTagWindowResult = -4150;  // reserved: windowed gather
  cvec out_cluster(npix, cplx{});
  if (wrank == 0) {
    std::copy(ctx.o_loc.begin(), ctx.o_loc.end(), out_cluster.begin());
    for (int r = 1; r < tr; ++r) {
      const cvec slice =
          comm.recv<cplx>(config.rank_base + r, kTagWindowResult);
      FFW_CHECK(slice.size() == pm.local_pixels(r));
      std::copy(slice.begin(), slice.end(),
                out_cluster.begin() +
                    static_cast<std::ptrdiff_t>(pm.leaf_begin(r) * npl));
    }
  } else if (ctx.group == 0) {
    comm.send(config.rank_base, kTagWindowResult, ccspan{ctx.o_loc});
  }
  comm.group_bcast(cspan{out_cluster}, window_ranks);

  DbimResult out;
  ctx.reduce_history(out.history, window_ranks);
  out.contrast.assign(npix, cplx{});
  tree.to_natural_order(out_cluster, out.contrast);
  out.history.relative_residual = std::move(history);
  return out;
}

}  // namespace ffw

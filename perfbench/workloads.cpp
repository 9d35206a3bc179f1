// The four benchmark workloads (README.md has the why of each).
//
// Every workload drives the library only through its public API:
// OperatorTableCache for tables, DbimStepper / dbim_reconstruct_parallel
// for reconstructions, ReconstructionService for jobs, MlfmaEngine for
// phase times and direct block applies, VCluster for traffic, and the
// obs switch and readers for the traced pass.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "dbim/continuation.hpp"
#include "dbim/parallel_driver.hpp"
#include "linalg/kernels.hpp"
#include "parallel/parallel_for.hpp"
#include "perfmodel/census.hpp"
#include "perfmodel/predictor.hpp"
#include "phantom/phantom.hpp"
#include "phantom/resample.hpp"
#include "phantom/setup.hpp"
#include "service/service.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace ffw;
using obs::Counter;

namespace {

// ---- Shared scene parameters ----
constexpr int kTx = 16;
constexpr int kRx = 32;
constexpr double kKrylovTol = 1e-6;
/// Relative std of the seeded additive measurement noise: the seed's
/// contribution to the reconstruction workloads' inputs.
constexpr double kNoise = 1e-3;
/// Relative tolerance of the quality checks against the recorded
/// references; equals the final_residual / image_rmse bound in
/// BENCHMARK.json.
constexpr double kQualityTol = 0.05;
/// Reconstructions per run at the least, whatever --seconds says.
constexpr int kMinRecons = 2;

struct Quality {
  double final_residual = 0.0;
  double image_rmse = 0.0;
};

BicgstabOptions forward_options() {
  BicgstabOptions fw;
  fw.tol = kKrylovTol;
  return fw;
}

/// The README acceleration stack: near-field preconditioning,
/// Eisenstat-Walker forcing and depth-2 Krylov recycling.
DbimOptions accel_options(int iterations) {
  DbimOptions o;
  o.max_iterations = iterations;
  o.near_precondition = true;
  o.adaptive_forcing = true;
  o.recycle_depth = 2;
  return o;
}

int nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Benchmark input: geometry, seeded measured panel and the truth.
/// Synthesised before any timing starts (not part of setup_s), through
/// `synth` when given so jobs of one configuration share its tables.
struct Scene {
  int nx = 0;
  std::vector<Vec2> tx, rx;
  CMatrix measured;
  cvec truth;  // contrast O = k0^2 delta_eps, natural order
};

Scene make_scene(int nx, int leaf, const cvec& delta_eps,
                 std::uint64_t noise_seed, OperatorTableCache* synth = nullptr) {
  OperatorTableCache local;
  OperatorTableCache& cache = synth != nullptr ? *synth : local;
  const Grid grid(nx);
  Scene out;
  out.nx = nx;
  out.tx = ring_positions(kTx, grid.domain());
  out.rx = ring_positions(kRx, grid.domain());
  out.truth = contrast_from_permittivity(grid, delta_eps);
  MlfmaEngine engine(cache.mlfma_tables(grid, leaf, MlfmaParams{}));
  const auto trx = cache.transceiver_tables(grid, out.tx, out.rx);
  // One preconditioned block solve over every transmitter, then the
  // receiver projection and the additive noise model of
  // synthesize_measurements (noise_std * per-illumination RMS).
  ForwardSolver solver(engine, forward_options());
  solver.set_near_preconditioner(leaf <= 8);
  solver.set_contrast(out.truth);
  const std::size_t n = grid.num_pixels();
  cvec phi(trx->incident().begin(), trx->incident().end());
  FFW_CHECK_MSG(solver.solve_panel(trx->incident(), phi, kTx, 0.0),
                "benchmark input synthesis: forward solve failed");
  out.measured = CMatrix(kRx, kTx);
  cvec ophi(n);
  Rng rng(noise_seed);
  for (std::size_t t = 0; t < static_cast<std::size_t>(kTx); ++t) {
    diag_mul(out.truth, ccspan{phi.data() + t * n, n}, ophi);
    auto col = out.measured.col(t);
    trx->trx.apply_gr(ophi, col);
    const double rms = nrm2(col) / std::sqrt(static_cast<double>(kRx));
    for (auto& v : col) v += kNoise * rms * std::sqrt(0.5) * rng.cnormal();
  }
  return out;
}

bool bit_identical(const DbimResult& a, const DbimResult& b) {
  return a.contrast.size() == b.contrast.size() &&
         std::memcmp(a.contrast.data(), b.contrast.data(),
                     a.contrast.size() * sizeof(cplx)) == 0 &&
         a.history.relative_residual == b.history.relative_residual;
}

double final_residual(const DbimResult& r) {
  return r.history.relative_residual.empty()
             ? std::nan("")
             : r.history.relative_residual.back();
}

std::string fmt(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.6g", v);
  return b;
}

void check_quality(RunReport& rep, const Quality& ref, double fr, double rmse,
                   const char* what) {
  const auto near = [](double v, double r) {
    return std::isfinite(v) && std::abs(v - r) <= kQualityTol * std::abs(r);
  };
  rep.check(near(fr, ref.final_residual),
            std::string(what) + " final_residual " + fmt(fr) + " vs reference " +
                fmt(ref.final_residual) + " (rel tol " + fmt(kQualityTol) + ")");
  rep.check(near(rmse, ref.image_rmse),
            std::string(what) + " image_rmse " + fmt(rmse) + " vs reference " +
                fmt(ref.image_rmse) + " (rel tol " + fmt(kQualityTol) + ")");
}

// ---- Per-module metrics shared by every workload ----

const char* const kPhaseKeys[] = {"expansion",      "aggregation",
                                  "translation",    "disaggregation",
                                  "local_expansion", "nearfield"};
const char* const kPhaseSpans[] = {"mlfma.expand",     "mlfma.aggregate",
                                   "mlfma.translate",  "mlfma.disaggregate",
                                   "mlfma.local_expand", "mlfma.nearfield"};
constexpr std::size_t kPhases = static_cast<std::size_t>(MlfmaPhase::kCount);

/// What a traced pass hands to layer_metrics besides the obs analysis.
struct TracedPass {
  double recon_untraced_s = 0.0;
  double recon_traced_s = 0.0;
  /// Rank-0 wall time spent inside the dbim layer during the traced
  /// pass (the base of dbim.unattributed_s).
  double dbim_wall_rank0_s = 0.0;
  /// Wall time of each DBIM iteration in the traced pass.
  std::vector<double> iter_s;
  std::uint64_t iterations = 0;
  std::uint64_t forward_solves = 0;
  std::uint64_t operator_applications = 0;
  /// > 0: operator_applications = kMlfmaApplications counter / this.
  int apps_counter_divisor = 0;
  bool escalated = false;
  /// Phase times read from the engines (empty: use mlfma.* spans).
  std::vector<PhaseTimes> phase_times;
  /// cmacs of one application per phase (empty: not defined).
  std::vector<double> census_cmacs;
  double apply_ms_per_rhs = 0.0;
  double apply_pred_ratio = 0.0;
  bool per_pass_spans = true;   // dbim.*_pass spans exist
  bool have_cluster = false;
  TrafficStats traffic;
  // Table-cache activity during the traced pass.
  OperatorTableCache::Stats cache_before, cache_after;
  // Setup parts (median over the run's setups).
  double setup_mlfma_s = 0.0, setup_trx_s = 0.0, setup_cbs_s = 0.0;
  // Service-only.
  bool service = false;
  std::vector<double> queue_wait_s;
  double pool_busy_frac = 0.0;
};

void layer_metrics(RunReport& rep, const TracedPass& p,
                   const trace::Analysis& an) {
  const auto sec = [](std::uint64_t ns) { return 1e-9 * static_cast<double>(ns); };
  const auto cnt = [](std::uint64_t v) { return static_cast<double>(v); };
  const char* no_service = "workload does not use ReconstructionService";

  // dbim
  rep.layer("dbim.iter_s_p50", median(p.iter_s), "s");
  rep.layer("dbim.iter_s_max",
            p.iter_s.empty() ? 0.0
                             : *std::max_element(p.iter_s.begin(), p.iter_s.end()),
            "s");
  rep.layer("dbim.iterations", cnt(p.iterations), "count");
  if (p.per_pass_spans) {
    const double norm = static_cast<double>(an.nranks);
    rep.layer("dbim.residual_pass_s", an.span_total_s("dbim.residual_pass") / norm, "s");
    rep.layer("dbim.gradient_pass_s", an.span_total_s("dbim.gradient_pass") / norm, "s");
    rep.layer("dbim.step_pass_s", an.span_total_s("dbim.step_pass") / norm, "s");
  } else {
    const char* why =
        "dbim_reconstruct_parallel records no per-pass spans and runs its "
        "passes inside one library call";
    rep.omit("dbim.residual_pass_s", "s", why);
    rep.omit("dbim.gradient_pass_s", "s", why);
    rep.omit("dbim.step_pass_s", "s", why);
  }
  rep.layer("dbim.unattributed_s",
            std::max(0.0, p.dbim_wall_rank0_s - an.lower_coverage_rank0_s), "s");

  // forward
  const std::uint64_t krylov = an.counter(Counter::kBicgstabTotalIters);
  const double apps =
      p.apps_counter_divisor > 0
          ? cnt(an.counter(Counter::kMlfmaApplications)) / p.apps_counter_divisor
          : cnt(p.operator_applications);
  rep.layer("forward.krylov_iters", cnt(krylov), "count");
  rep.layer("forward.operator_applications", apps, "count");
  rep.layer("forward.apps_per_solve",
            p.forward_solves ? apps / cnt(p.forward_solves) : 0.0, "ratio");
  rep.layer("forward.precond_setup_s", sec(an.counter(Counter::kPrecondSetupNs)), "s");
  rep.layer("forward.precond_apply_s", sec(an.counter(Counter::kPrecondApplyNs)), "s");
  if (an.precond_setups > 0) {
    rep.layer("forward.precond_used_frac",
              cnt(an.precond_setups_used) / cnt(an.precond_setups), "ratio");
  } else {
    rep.omit("forward.precond_used_frac", "ratio",
             "no near-field factorisation ran in the traced pass");
  }
  rep.layer("forward.recycle_hits", cnt(an.counter(Counter::kRecycleHits)), "count");
  rep.layer("forward.cbs_iters", cnt(an.counter(Counter::kCbsIterations)), "count");
  rep.layer("forward.cbs_solve_s", an.span_total_s("cbs.solve"), "s");
  rep.layer("forward.escalated", p.escalated ? 1.0 : 0.0, "count");

  // mlfma: phase seconds from the engines when reachable, else spans.
  std::array<double, kPhases> phase_s{};
  double applications = 0.0;
  if (!p.phase_times.empty()) {
    for (const auto& pt : p.phase_times) {
      for (std::size_t i = 0; i < kPhases; ++i) phase_s[i] += pt.seconds[i];
      applications += static_cast<double>(pt.applications);
    }
  } else if (p.have_cluster && !p.service) {
    // PartitionedMlfma is private to dbim_reconstruct_parallel; its
    // dist.* spans split the apply into upward / translate / downward /
    // near, which maps onto two of the six phases only.
    phase_s[2] = an.span_total_s("dist.translate") / an.nranks;
    phase_s[5] = an.span_total_s("dist.near") / an.nranks;
  } else {
    for (std::size_t i = 0; i < kPhases; ++i)
      phase_s[i] = an.span_total_s(kPhaseSpans[i]);
  }
  for (std::size_t i = 0; i < kPhases; ++i) {
    const std::string name = std::string("mlfma.") + kPhaseKeys[i] + "_s";
    if (p.have_cluster && !p.service && i != 2 && i != 5) {
      rep.omit(name, "s",
               "the partitioned engine is private to the parallel driver and "
               "its dist.upward/dist.downward spans merge this phase with "
               "another");
    } else {
      rep.layer(name, phase_s[i], "s");
    }
  }
  for (std::size_t i = 0; i < kPhases; ++i) {
    const std::string name = std::string("mlfma.") + kPhaseKeys[i] + "_mcmacs";
    if (p.census_cmacs.empty() || p.phase_times.empty()) {
      rep.omit(name, "Mcmac/s",
               p.service ? "jobs mix three operator configurations inside "
                           "private engines, so cmacs per application is "
                           "undefined"
                         : "phase times of the partitioned engine are not "
                           "reachable from outside the parallel driver");
    } else {
      rep.layer(name,
                phase_s[i] > 0.0
                    ? p.census_cmacs[i] * applications / phase_s[i] / 1e6
                    : 0.0,
                "Mcmac/s");
    }
  }
  rep.layer("mlfma.apply_ms_per_rhs", p.apply_ms_per_rhs, "ms");
  rep.layer("perfmodel.apply_pred_ratio", p.apply_pred_ratio, "ratio");

  // fft
  rep.layer("fft.fft_s", sec(an.counter(Counter::kFftNs)), "s");
  rep.layer("fft.plan_hits", cnt(an.counter(Counter::kFftPlanHits)), "count");
  rep.layer("fft.plan_misses", cnt(an.counter(Counter::kFftPlanMisses)), "count");

  // vcluster
  const double cmax = an.max_rank_ns_counter_s(Counter::kComputeNs);
  const double cmean = an.mean_rank_ns_counter_s(Counter::kComputeNs);
  rep.layer("vcluster.halo_wait_s_max", an.max_rank_ns_counter_s(Counter::kHaloWaitNs), "s");
  rep.layer("vcluster.compute_s_max", cmax, "s");
  if (cmean > 0.0) {
    rep.layer("vcluster.rank_imbalance", cmax / cmean, "ratio");
  } else {
    rep.omit("vcluster.rank_imbalance", "ratio",
             "no rank recorded partitioned-apply compute time");
  }
  rep.layer("vcluster.messages", p.have_cluster ? cnt(p.traffic.total_messages()) : 0.0, "count");
  rep.layer("vcluster.payload_bytes", p.have_cluster ? cnt(p.traffic.total_bytes()) : 0.0, "B");

  // service
  if (p.service) {
    rep.layer("service.queue_wait_s_p50", median(p.queue_wait_s), "s");
    rep.layer("service.step_s_p50", median(an.span_durations("service.step")), "s");
    rep.layer("service.pool_busy_frac", p.pool_busy_frac, "ratio");
  } else {
    rep.omit("service.queue_wait_s_p50", "s", no_service);
    rep.omit("service.step_s_p50", "s", no_service);
    rep.omit("service.pool_busy_frac", "ratio", no_service);
  }
  const double hits = cnt(p.cache_after.hits - p.cache_before.hits);
  const double misses = cnt(p.cache_after.misses - p.cache_before.misses);
  if (hits + misses > 0.0) {
    rep.layer("service.table_hit_rate", hits / (hits + misses), "ratio");
  } else {
    rep.omit("service.table_hit_rate", "ratio",
             "no table-cache lookup happened in the traced pass");
  }
  rep.layer("service.table_misses", misses, "count");
  rep.layer("service.table_build_s",
            p.cache_after.build_seconds - p.cache_before.build_seconds, "s");

  // setup
  rep.layer("setup.mlfma_tables_s", p.setup_mlfma_s, "s");
  rep.layer("setup.transceiver_tables_s", p.setup_trx_s, "s");
  rep.layer("setup.cbs_tables_s", p.setup_cbs_s, "s");

  // Self time per module and tracing overhead.
  for (const trace::Module m :
       {trace::Module::kDbim, trace::Module::kForward, trace::Module::kMlfma,
        trace::Module::kFft, trace::Module::kVcluster, trace::Module::kService}) {
    rep.layer(std::string("self.") + trace::module_name(m) + "_s",
              an.self_s[static_cast<std::size_t>(m)], "s");
  }
  rep.layer("trace.overhead_s", p.recon_traced_s - p.recon_untraced_s, "s");
  rep.layer("trace.overhead_frac",
            p.recon_untraced_s > 0.0
                ? (p.recon_traced_s - p.recon_untraced_s) / p.recon_untraced_s
                : 0.0,
            "ratio");
  rep.layer("trace.dropped_spans", cnt(an.dropped), "count");
}

/// Per-RHS time of direct apply_block calls at nrhs = 16 (median of 3
/// after one warm-up), and its ratio to the calibrated model's
/// prediction for the same tree and plan.
void apply_probe(MlfmaEngine& engine, TracedPass& p) {
  constexpr std::size_t nrhs = 16;
  const std::size_t n = engine.tree().grid().num_pixels();
  Rng rng(7);
  cvec x(n * nrhs), y(n * nrhs);
  rng.fill_cnormal(x);
  engine.apply_block(x, y, nrhs);
  std::vector<double> t;
  for (int r = 0; r < 3; ++r) {
    const double t0 = now_s();
    {
      trace::Span s("perfbench.apply_block");
      engine.apply_block(x, y, nrhs);
    }
    t.push_back(now_s() - t0);
  }
  const double per_rhs = median(t) / nrhs;
  p.apply_ms_per_rhs = 1e3 * per_rhs;
  // Model rates are calibrated at a fixed 64x64 single-RHS apply, so the
  // ratio shows what blocking and problem size buy over the model.
  const ScalingModel model(MachineParams{}, calibrate(64, 3));
  const double pred =
      model.mlfma_apply_time(engine.tree(), engine.plan(), 1, false);
  p.apply_pred_ratio = pred > 0.0 ? per_rhs / pred : 0.0;
}

std::vector<double> census_of(const MlfmaEngine& e) {
  const WorkCensus w = census_work(e.tree(), e.plan());
  return std::vector<double>(w.cmacs.begin(), w.cmacs.end());
}

// ---- Serial reconstruction workloads (strong_serial, weak_auto) ----

struct SerialSpec {
  const char* name;
  int nx;
  int leaf;
  double contrast;  // Shepp-Logan peak delta_eps
  BackendKind backend;
  bool mixed;  // mixed_engine + cbs.precision = kMixed
  int iterations;
  Quality reference;
};

/// Everything setup_s covers: a fresh cache, tables, transceivers,
/// engines and the stepper, ready to iterate.
struct SerialStack {
  OperatorTableCache cache;
  std::shared_ptr<const OperatorTables> tables, tables32;
  std::shared_ptr<const TransceiverTables> trx;
  std::unique_ptr<MlfmaEngine> engine, engine32;
  std::unique_ptr<DbimStepper> stepper;
  double setup_s = 0.0, mlfma_s = 0.0, trx_s = 0.0, cbs_s = 0.0;
};

std::unique_ptr<SerialStack> build_serial(const SerialSpec& sp,
                                          const Scene& scene) {
  auto st = std::make_unique<SerialStack>();
  const double t0 = now_s();
  const Grid grid(sp.nx);
  MlfmaParams p64;
  st->tables = st->cache.mlfma_tables(grid, sp.leaf, p64);
  if (sp.mixed) {
    MlfmaParams p32;
    p32.precision = Precision::kMixed;
    st->tables32 = st->cache.mlfma_tables(grid, sp.leaf, p32);
  }
  const double t1 = now_s();
  st->trx = st->cache.transceiver_tables(grid, scene.tx, scene.rx);
  const double t2 = now_s();
  if (sp.backend != BackendKind::kMlfma) {  // the stepper takes it from the cache
    st->cache.cbs_tables(grid, sp.mixed ? Precision::kMixed : Precision::kDouble);
  }
  const double t3 = now_s();
  st->engine = std::make_unique<MlfmaEngine>(st->tables);
  if (sp.mixed) st->engine32 = std::make_unique<MlfmaEngine>(st->tables32);
  DbimOptions o = accel_options(sp.iterations);
  o.backend = sp.backend;
  o.table_cache = &st->cache;
  o.incident_panel = st->trx->incident();
  if (sp.mixed) {
    o.mixed_engine = st->engine32.get();
    o.cbs.precision = Precision::kMixed;
  }
  st->stepper = std::make_unique<DbimStepper>(
      *st->engine, st->trx->trx, scene.measured, o, forward_options());
  st->setup_s = now_s() - t0;
  st->mlfma_s = t1 - t0;
  st->trx_s = t2 - t1;
  st->cbs_s = sp.backend != BackendKind::kMlfma ? t3 - t2 : 0.0;
  return st;
}

struct StepRun {
  double recon_s = 0.0;
  std::vector<double> iter_s;
  DbimResult result;
};

StepRun step_to_end(DbimStepper& stepper) {
  StepRun out;
  const double t0 = now_s();
  for (;;) {
    const int before = stepper.iteration();
    const double a = now_s();
    bool more = false;
    {
      trace::Span s("perfbench.dbim_step");
      more = stepper.step();
    }
    if (stepper.iteration() > before) out.iter_s.push_back(now_s() - a);
    if (!more) break;
  }
  out.recon_s = now_s() - t0;
  out.result = stepper.result();
  return out;
}

struct SetupTimes {
  double total = 0.0, mlfma = 0.0, trx = 0.0, cbs = 0.0;
};

/// A reconstruction workload: setup() builds a fresh ready-to-iterate
/// stack, reconstruct() runs the fixed iteration budget on it (filling
/// `tp` when the pass is traced), check() adds workload-specific output
/// checks.
class ReconWorkload {
 public:
  virtual ~ReconWorkload() = default;
  virtual SetupTimes setup() = 0;
  virtual StepRun reconstruct(TracedPass* tp) = 0;
  /// Untraced direct apply_block probe on the traced pass's engine.
  virtual void probe(TracedPass& tp) = 0;
  virtual void check(RunReport&, const DbimResult&) {}
  /// A rerun on a fresh stack must reproduce the first run bit for bit.
  virtual void check_rerun(RunReport& rep, const DbimResult& first,
                           const DbimResult& again) {
    rep.check(bit_identical(first, again),
              "rerun bit-identical to the run's first reconstruction");
  }
};

/// Setup-only builds per run on top of the reconstructions' own, so
/// setup_s is a median over enough samples to be steady.
constexpr int kExtraSetups = 15;

/// The run loop shared by the reconstruction workloads: extra setups,
/// then setup + reconstruction until `seconds` passed (at least
/// kMinRecons times) — or, traced, one untraced and one traced pass.
void drive(const Args& args, const char* name, const Quality& ref,
           const Scene& scene, int nranks, ReconWorkload& w, RunReport& rep) {
  std::vector<double> setup_s, mlfma_s, trx_s, cbs_s;
  std::vector<double> recon_s, latency_s, fr, rmse;
  std::unique_ptr<DbimResult> first;
  const auto build = [&] {
    const SetupTimes t = w.setup();
    setup_s.push_back(t.total);
    mlfma_s.push_back(t.mlfma);
    trx_s.push_back(t.trx);
    cbs_s.push_back(t.cbs);
    return t.total;
  };
  const auto one = [&](TracedPass* tp) {
    const double setup = build();
    if (tp != nullptr) trace::begin();
    StepRun run = w.reconstruct(tp);
    if (tp != nullptr) trace::end();
    recon_s.push_back(run.recon_s);
    latency_s.push_back(setup + run.recon_s);
    fr.push_back(final_residual(run.result));
    rmse.push_back(image_rmse(run.result.contrast, scene.truth));
    check_quality(rep, ref, fr.back(), rmse.back(), name);
    w.check(rep, run.result);
    if (!first) {
      first = std::make_unique<DbimResult>(std::move(run.result));
    } else {
      w.check_rerun(rep, *first, run.result);
    }
    return run.recon_s;
  };

  reset_peak_rss();
  const double t_start = now_s();
  for (int i = 0; i < kExtraSetups; ++i) build();
  if (!args.trace) {
    while (recon_s.size() < static_cast<std::size_t>(kMinRecons) ||
           now_s() - t_start < args.seconds) {
      one(nullptr);
    }
  } else {
    // Untraced passes on both sides of the traced one, so warm-up and
    // drift do not land in the tracing overhead.
    TracedPass tp;
    const double before = one(nullptr);
    tp.recon_traced_s = one(&tp);
    w.probe(tp);
    tp.recon_untraced_s = 0.5 * (before + one(nullptr));
    tp.dbim_wall_rank0_s = tp.recon_traced_s;
    tp.setup_mlfma_s = median(mlfma_s);
    tp.setup_trx_s = median(trx_s);
    tp.setup_cbs_s = median(cbs_s);
    layer_metrics(rep, tp, trace::analyze(nranks));
  }
  const double rss = peak_rss_mb();
  std::string all = "recon_s of every reconstruction:";
  for (const double r : recon_s) all += " " + fmt(r);
  rep.notes.push_back(all);

  rep.e2e("setup_s", median(setup_s), "s");
  rep.e2e("recon_s", median(recon_s), "s");
  rep.e2e("final_residual", median(fr), "ratio");
  rep.e2e("image_rmse", median(rmse), "ratio");
  double busy = 0.0;
  for (const double l : latency_s) busy += l;
  rep.e2e("jobs_per_s", static_cast<double>(latency_s.size()) / busy, "1/s");
  rep.e2e("job_latency_p50_s", median(latency_s), "s");
  rep.e2e("job_latency_p90_s", percentile(latency_s, 0.9), "s");
  rep.e2e("peak_rss_mb", rss, "MiB");
}

/// strong_serial / weak_auto: one DbimStepper stepped an iteration at a
/// time on nproc OpenMP threads.
class SerialWorkload : public ReconWorkload {
 public:
  SerialWorkload(const SerialSpec& sp, const Scene& scene)
      : sp_(sp), scene_(scene) {}

  SetupTimes setup() override {
    st_.reset();
    st_ = build_serial(sp_, scene_);
    return {st_->setup_s, st_->mlfma_s, st_->trx_s, st_->cbs_s};
  }

  StepRun reconstruct(TracedPass* tp) override {
    const auto cache_before = st_->cache.stats();
    StepRun run = step_to_end(*st_->stepper);
    if (tp != nullptr) {
      tp->iter_s = run.iter_s;
      tp->iterations = run.iter_s.size();
      tp->forward_solves = run.result.history.forward_solves;
      tp->operator_applications = run.result.history.operator_applications;
      tp->escalated = run.result.history.cbs_escalated;
      tp->phase_times.push_back(st_->engine->phase_times());
      if (st_->engine32) tp->phase_times.push_back(st_->engine32->phase_times());
      tp->census_cmacs = census_of(*st_->engine);
      tp->cache_before = cache_before;
      tp->cache_after = st_->cache.stats();
    }
    return run;
  }

  void probe(TracedPass& tp) override { apply_probe(*st_->engine, tp); }

 private:
  SerialSpec sp_;
  const Scene& scene_;
  std::unique_ptr<SerialStack> st_;
};

RunReport run_serial(const Args& args, const SerialSpec& sp,
                     std::uint64_t salt) {
  RunReport rep;
  rep.ranks = 1;
  rep.omp_threads_per_rank = nproc();
  set_num_threads(nproc());
  const Scene scene = make_scene(sp.nx, sp.leaf,
                                 shepp_logan(Grid(sp.nx), sp.contrast),
                                 mix_seed(args.seed, salt));
  SerialWorkload w(sp, scene);
  drive(args, sp.name, sp.reference, scene, 1, w, rep);
  return rep;
}

// strong_serial and strong_2x2 share inputs: the same seed gives both
// the same scene, so their images must agree (parity check).
constexpr std::uint64_t kStrongSalt = 11;
const SerialSpec kStrong{"strong_serial", 64, 8, 0.3, BackendKind::kMlfma,
                         false, 10, Quality{0.04510, 0.3756}};

/// strong_2x2: dbim_reconstruct_parallel on an in-process VCluster of
/// 2 illumination groups x 2 sub-tree ranks, one OpenMP thread per rank.
class ParallelWorkload : public ReconWorkload {
 public:
  static constexpr int kIllum = 2, kTree = 2;

  ParallelWorkload(const Scene& scene, DbimResult serial)
      : scene_(scene), serial_(std::move(serial)) {}

  SetupTimes setup() override {
    st_.reset();
    st_ = std::make_unique<Stack>();
    const Grid grid(kStrong.nx);
    const double t0 = now_s();
    st_->tables = st_->cache.mlfma_tables(grid, kStrong.leaf, MlfmaParams{});
    const double t1 = now_s();
    st_->trx = st_->cache.transceiver_tables(grid, scene_.tx, scene_.rx);
    const double t2 = now_s();
    st_->vc = std::make_unique<VCluster>(kIllum * kTree);
    ParallelDbimConfig& c = st_->cfg;
    c.illum_groups = kIllum;
    c.tree_ranks = kTree;
    c.dbim = accel_options(kStrong.iterations);
    c.dbim.incident_panel = st_->trx->incident();
    c.forward = forward_options();
    c.table_cache = &st_->cache;
    std::vector<double>* stamps = &st_->stamps;
    c.dbim.progress = [stamps](int, double) { stamps->push_back(now_s()); };
    return {now_s() - t0, t1 - t0, t2 - t1, 0.0};
  }

  StepRun reconstruct(TracedPass* tp) override {
    const auto cache_before = st_->cache.stats();
    StepRun run;
    const double t0 = now_s();
    {
      trace::Span w("perfbench.wait.parallel_recon");
      run.result = dbim_reconstruct_parallel(*st_->vc, st_->tables->tree(),
                                             st_->trx->trx, scene_.measured,
                                             st_->cfg);
    }
    run.recon_s = now_s() - t0;
    double prev = t0;
    for (const double t : st_->stamps) {
      run.iter_s.push_back(t - prev);
      prev = t;
    }
    if (tp != nullptr) {
      tp->iter_s = run.iter_s;
      tp->iterations = run.iter_s.size();
      // The parallel driver's history reports operator_applications and
      // bicgstab_iterations as 0 (README.md, open defects); applications
      // come from the obs counter, which every tree rank bumps.
      tp->forward_solves = run.result.history.forward_solves;
      tp->apps_counter_divisor = kTree;
      tp->per_pass_spans = false;
      tp->have_cluster = true;
      tp->traffic = st_->vc->traffic();
      tp->cache_before = cache_before;
      tp->cache_after = st_->cache.stats();
    }
    return run;
  }

  /// The partitioned engine is private to the driver: probe a serial
  /// engine on the same tables with nproc threads.
  void probe(TracedPass& tp) override {
    MlfmaEngine engine(st_->tables);
    set_num_threads(nproc());
    apply_probe(engine, tp);
    set_num_threads(1);
  }

  void check(RunReport& rep, const DbimResult& r) override {
    const double parity = image_rmse(r.contrast, serial_.contrast);
    rep.check(parity <= 1e-10, "image vs strong_serial: RMSE " + fmt(parity) +
                                   " (limit 1e-10)");
  }

  /// The arrival-order halo drain makes reruns differ in the last bits
  /// (README.md, open defects), so reruns are held to the same 1e-10
  /// parity as serial vs parallel and the bitwise outcome is a note.
  void check_rerun(RunReport& rep, const DbimResult& first,
                   const DbimResult& again) override {
    const double d = image_rmse(again.contrast, first.contrast);
    rep.check(d <= 1e-10, "rerun vs the run's first reconstruction: RMSE " +
                              fmt(d) + " (limit 1e-10)");
    rep.notes.push_back(std::string("rerun bit-identical: ") +
                        (bit_identical(first, again) ? "yes" : "no"));
  }

 private:
  struct Stack {
    OperatorTableCache cache;
    std::shared_ptr<const OperatorTables> tables;
    std::shared_ptr<const TransceiverTables> trx;
    std::unique_ptr<VCluster> vc;
    ParallelDbimConfig cfg;
    std::vector<double> stamps;  // rank 0's per-iteration progress times
  };
  const Scene& scene_;
  DbimResult serial_;
  std::unique_ptr<Stack> st_;
};

}  // namespace

RunReport run_strong_serial(const Args& args) {
  return run_serial(args, kStrong, kStrongSalt);
}

RunReport run_weak_auto(const Args& args) {
  const SerialSpec sp{"weak_auto", 128, 8, 0.02, BackendKind::kAuto,
                      true, 10, Quality{0.003057, 0.5612}};
  return run_serial(args, sp, 13);
}

RunReport run_strong_2x2(const Args& args) {
  RunReport rep;
  rep.ranks = ParallelWorkload::kIllum * ParallelWorkload::kTree;
  rep.omp_threads_per_rank = 1;
  const Scene scene =
      make_scene(kStrong.nx, kStrong.leaf, shepp_logan(Grid(kStrong.nx), kStrong.contrast),
                 mix_seed(args.seed, kStrongSalt));
  // Serial reference on the same inputs, for the parity check.
  set_num_threads(nproc());
  DbimResult serial = step_to_end(*build_serial(kStrong, scene)->stepper).result;
  set_num_threads(1);
  ParallelWorkload w(scene, std::move(serial));
  drive(args, "strong_2x2", kStrong.reference, scene, rep.ranks, w, rep);
  return rep;
}

// ---- service_mix: closed loop of 4 clients over ReconstructionService ----

namespace {

constexpr int kClients = 4;     // = ServiceOptions::max_active_jobs
constexpr int kPoolRanks = 2;
constexpr int kOmpPerRank = 2;
constexpr int kMinJobs = 150;   // p90 then has >= 15 samples beyond it
constexpr int kDistinctJobs = 100;
constexpr int kServiceSetups = 9;

/// Runs fn(i) for every i in [0, n) on nproc threads with one OpenMP
/// thread each: input generation and solo checks are many small
/// problems that parallelise better across than within.
template <class Fn>
void parallel_items(int n, const Fn& fn) {
  const int saved = num_threads();
  set_num_threads(1);
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  for (int w = 0; w < nproc(); ++w) {
    pool.emplace_back([&] {
      for (int i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& t : pool) t.join();
  set_num_threads(saved);
}

/// One tenant configuration of the mix.
enum class Mix { kMlfma32, kAuto64, kLadder };

struct TenantJob {
  Mix mix;
  JobSpec spec;
  cvec truth;  // final band's true contrast
};

struct MixConfig {
  int nx;
  int leaf;
  BackendKind backend;
  double contrast;
  int iterations;
};
constexpr MixConfig kMlfma32{32, 16, BackendKind::kMlfma, 0.1, 2};
constexpr MixConfig kAuto64{64, 8, BackendKind::kAuto, 0.02, 2};
constexpr int kLadderLeaf = 8;
constexpr double kLadderContrast = 0.1;
constexpr int kLadderIters[2] = {1, 1};

/// Seeded per-job phantom: a Shepp-Logan head with a jittered peak plus
/// a random Gaussian inclusion.
cvec job_phantom(const Grid& grid, double contrast, Rng& rng) {
  cvec p = shepp_logan(grid, contrast * rng.uniform(0.9, 1.1));
  const double half = 0.25 * grid.domain();
  const cvec blob = gaussian_blob(
      grid, Vec2{rng.uniform(-half, half), rng.uniform(-half, half)},
      0.05 * grid.domain(), cplx{contrast * rng.uniform(0.1, 0.3), 0.0});
  for (std::size_t i = 0; i < p.size(); ++i) p[i] += blob[i];
  return p;
}

JobSpec spec_for(const MixConfig& c, const Scene& s) {
  JobSpec spec;
  spec.nx = c.nx;
  spec.leaf_pixel_side = c.leaf;
  spec.transmitters = s.tx;
  spec.receivers = s.rx;
  spec.measured = s.measured;
  spec.dbim = accel_options(c.iterations);
  spec.dbim.backend = c.backend;
  spec.forward = forward_options();
  return spec;
}

TenantJob make_job(int k, std::uint64_t seed, OperatorTableCache& synth) {
  Rng rng(mix_seed(seed, 1000 + static_cast<std::uint64_t>(k)));
  const std::uint64_t noise = mix_seed(seed, 5000 + static_cast<std::uint64_t>(k));
  TenantJob j;
  j.mix = static_cast<Mix>(k % 3);
  if (j.mix == Mix::kMlfma32 || j.mix == Mix::kAuto64) {
    const MixConfig& c = j.mix == Mix::kMlfma32 ? kMlfma32 : kAuto64;
    const Grid grid(c.nx);
    const Scene s =
        make_scene(c.nx, c.leaf, job_phantom(grid, c.contrast, rng), noise, &synth);
    j.spec = spec_for(c, s);
    j.truth = s.truth;
  } else {
    const Grid fine(64);
    const cvec truth64 = job_phantom(fine, kLadderContrast, rng);
    const Scene s32 = make_scene(32, kLadderLeaf, downsample2(truth64, 64),
                                 noise, &synth);
    const Scene s64 = make_scene(64, kLadderLeaf, truth64, noise + 1, &synth);
    j.spec.nx = 64;
    j.spec.leaf_pixel_side = kLadderLeaf;
    j.spec.dbim = accel_options(kLadderIters[0] + kLadderIters[1]);
    j.spec.forward = forward_options();
    int b = 0;
    for (const Scene* s : {&s32, &s64}) {
      JobBand band;
      band.nx = s->nx;
      band.transmitters = s->tx;
      band.receivers = s->rx;
      band.measured = s->measured;
      band.max_iterations = kLadderIters[b++];
      j.spec.bands.push_back(std::move(band));
    }
    j.truth = s64.truth;
  }
  j.spec.name = "job" + std::to_string(k);
  return j;
}

/// Solo dbim_reconstruct of one spec through `cache` (the service's
/// exact per-job path); ladder jobs run their bands by hand with the
/// shared warm-start arithmetic.
DbimResult solo(OperatorTableCache& cache, const JobSpec& spec) {
  const auto run_one = [&cache](const JobSpec& s, int nx, const std::vector<Vec2>& tx,
                                const std::vector<Vec2>& rx, const CMatrix& meas,
                                int iters, const cvec& init) {
    const Grid grid(nx);
    MlfmaEngine engine(cache.mlfma_tables(grid, s.leaf_pixel_side, s.mlfma));
    const auto tt = cache.transceiver_tables(grid, tx, rx);
    DbimOptions o = s.dbim;
    o.progress = nullptr;
    o.max_iterations = iters;
    o.incident_panel = tt->incident();
    o.table_cache = &cache;
    return dbim_reconstruct(engine, tt->trx, meas, o, s.forward, init);
  };
  if (spec.bands.empty()) {
    return run_one(spec, spec.nx, spec.transmitters, spec.receivers,
                   spec.measured, spec.dbim.max_iterations,
                   spec.initial_contrast);
  }
  DbimResult r;
  cvec init = spec.initial_contrast;
  int prev_nx = 0;
  for (const JobBand& b : spec.bands) {
    if (prev_nx > 0) {
      const Grid g0(prev_nx), g1(b.nx);
      init = continuation_warm_start(r.contrast, prev_nx, b.nx,
                                     g0.k0() * g0.k0(), g1.k0() * g1.k0());
    }
    r = run_one(spec, b.nx, b.transmitters, b.receivers, b.measured,
                b.max_iterations, init);
    prev_nx = b.nx;
  }
  return r;
}

/// Pre-warms every table the mix uses; returns per-kind build seconds.
void prewarm(OperatorTableCache& cache, const std::vector<TenantJob>& jobs,
             double& mlfma_s, double& trx_s, double& cbs_s) {
  // One job of each configuration carries every geometry the mix uses.
  for (int m = 0; m < 3 && m < static_cast<int>(jobs.size()); ++m) {
    const JobSpec& s = jobs[static_cast<std::size_t>(m)].spec;
    std::vector<const JobBand*> bands;
    JobBand base;
    if (s.bands.empty()) {
      base.nx = s.nx;
      base.transmitters = s.transmitters;
      base.receivers = s.receivers;
      bands.push_back(&base);
    } else {
      for (const auto& b : s.bands) bands.push_back(&b);
    }
    for (const JobBand* b : bands) {
      const Grid grid(b->nx);
      double t = now_s();
      cache.mlfma_tables(grid, s.leaf_pixel_side, s.mlfma);
      mlfma_s += now_s() - t;
      t = now_s();
      cache.transceiver_tables(grid, b->transmitters, b->receivers);
      trx_s += now_s() - t;
      if (s.dbim.backend != BackendKind::kMlfma) {
        t = now_s();
        cache.cbs_tables(grid, s.dbim.cbs.precision);
        cbs_s += now_s() - t;
      }
    }
  }
}

struct LoopResult {
  std::vector<int> ids;           // in submission order
  std::vector<int> job_index;     // TenantJob index per id
  std::vector<double> latency_s;  // submit -> observed completion, per id
  double wall_s = 0.0;
};

/// Per-configuration count of jobs submitted so far; a client's next job
/// is the next tenant of its configuration, cycling through them.
using MixCursor = std::array<int, 3>;

/// Closed loop: each client submits its next job as soon as its previous
/// one is observed complete, until `seconds` passed and `min_jobs`
/// completed. Client c always submits configuration c % 3, so the set of
/// configurations in flight is the same in every run. run() drains on a
/// runner thread and is re-entered when it returns early (every job
/// momentarily terminal).
LoopResult closed_loop(ReconstructionService& svc, VCluster& vc,
                       const std::vector<TenantJob>& jobs, MixCursor& next,
                       double seconds, int min_jobs) {
  LoopResult out;
  std::atomic<bool> stop{false};
  std::thread runner([&] {
    while (!stop.load()) {
      svc.run(vc);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  struct Client {
    int id = -1;
    std::size_t seq = 0;  // index into out.ids
    double submitted = 0.0;
  };
  std::array<Client, kClients> clients{};
  int submitted = 0;
  const double t0 = now_s();
  double last_done = t0;
  for (;;) {
    const bool more = now_s() - t0 < seconds || submitted < min_jobs;
    bool busy = false;
    for (std::size_t ci = 0; ci < clients.size(); ++ci) {
      Client& c = clients[ci];
      if (c.id >= 0) {
        const JobState st = svc.status(c.id).state;
        if (st == JobState::kQueued || st == JobState::kRunning) {
          busy = true;
          continue;
        }
        last_done = now_s();
        out.latency_s[c.seq] = last_done - c.submitted;
        c.id = -1;
      }
      if (!more) continue;
      const int m = static_cast<int>(ci % 3);
      const int per_mix = (static_cast<int>(jobs.size()) - m + 2) / 3;
      const int k = m + 3 * (next[static_cast<std::size_t>(m)]++ % per_mix);
      c.submitted = now_s();
      {
        trace::Span s("perfbench.submit",
                      static_cast<std::int64_t>(out.ids.size()));
        c.id = svc.submit(jobs[static_cast<std::size_t>(k)].spec);
      }
      c.seq = out.ids.size();
      out.ids.push_back(c.id);
      out.job_index.push_back(k);
      out.latency_s.push_back(0.0);
      ++submitted;
      busy = true;
    }
    if (!busy) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  runner.join();
  out.wall_s = last_done - t0;
  return out;
}

}  // namespace

RunReport run_service_mix(const Args& args) {
  RunReport rep;
  rep.ranks = kPoolRanks;
  rep.omp_threads_per_rank = kOmpPerRank;
  set_num_threads(nproc());
  const Quality ref{0.3422, 0.4643};

  // Benchmark input: kDistinctJobs seeded tenant jobs (not timed).
  OperatorTableCache synth;
  std::vector<TenantJob> jobs(kDistinctJobs);
  const double t_gen = now_s();
  parallel_items(kDistinctJobs, [&](int k) {
    jobs[static_cast<std::size_t>(k)] = make_job(k, args.seed, synth);
  });
  rep.notes.push_back("input generation (untimed): " + fmt(now_s() - t_gen) + " s");

  reset_peak_rss();
  // Setup: fresh cache pre-warmed with every table of the mix, the
  // service and the rank pool; the last one is kept.
  std::vector<double> setup_s, mlfma_s, trx_s, cbs_s;
  std::unique_ptr<OperatorTableCache> cache;
  std::unique_ptr<ReconstructionService> svc;
  std::unique_ptr<VCluster> vc;
  for (int r = 0; r < kServiceSetups; ++r) {
    svc.reset();
    vc.reset();
    cache.reset();
    double m = 0.0, t = 0.0, c = 0.0;
    const double t0 = now_s();
    cache = std::make_unique<OperatorTableCache>();
    prewarm(*cache, jobs, m, t, c);
    ServiceOptions so;
    so.max_active_jobs = kClients;
    svc = std::make_unique<ReconstructionService>(*cache, so);
    vc = std::make_unique<VCluster>(kPoolRanks);
    setup_s.push_back(now_s() - t0);
    mlfma_s.push_back(m);
    trx_s.push_back(t);
    cbs_s.push_back(c);
  }

  set_num_threads(kOmpPerRank);
  TracedPass tp;
  LoopResult loop;
  MixCursor cursor{};
  if (!args.trace) {
    loop = closed_loop(*svc, *vc, jobs, cursor, args.seconds, kMinJobs);
  } else {
    const LoopResult plain =
        closed_loop(*svc, *vc, jobs, cursor, 0.5 * args.seconds, kMinJobs / 2);
    std::vector<double> plain_compute;
    for (const int id : plain.ids) plain_compute.push_back(svc->status(id).compute_seconds);
    tp.recon_untraced_s = median(plain_compute);
    tp.cache_before = cache->stats();
    trace::begin();
    loop = closed_loop(*svc, *vc, jobs, cursor, 0.5 * args.seconds,
                       kMinJobs / 2);
    trace::end();
    tp.cache_after = cache->stats();
  }
  set_num_threads(nproc());
  const double rss = peak_rss_mb();

  std::vector<double> compute, fr, rmse;
  double busy = 0.0;
  for (std::size_t i = 0; i < loop.ids.size(); ++i) {
    const JobStatus st = svc->status(loop.ids[i]);
    compute.push_back(st.compute_seconds);
    busy += st.compute_seconds;
    if (st.state != JobState::kCompleted) continue;  // failed by the checks
    const DbimResult& r = svc->result(loop.ids[i]);
    fr.push_back(final_residual(r));
    rmse.push_back(image_rmse(
        r.contrast, jobs[static_cast<std::size_t>(loop.job_index[i])].truth));
  }

  // Output checks: every job completed and is bit-identical to a solo
  // run of its spec (one solo run per distinct spec).
  const double t_check = now_s();
  std::vector<int> distinct(loop.job_index);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  std::vector<DbimResult> gold(jobs.size());
  parallel_items(static_cast<int>(distinct.size()), [&](int i) {
    const auto k = static_cast<std::size_t>(distinct[static_cast<std::size_t>(i)]);
    gold[k] = solo(*cache, jobs[k].spec);
  });
  for (std::size_t i = 0; i < loop.ids.size(); ++i) {
    const auto k = static_cast<std::size_t>(loop.job_index[i]);
    const JobStatus st = svc->status(loop.ids[i]);
    rep.check(st.state == JobState::kCompleted &&
                  bit_identical(gold[k], svc->result(loop.ids[i])),
              "service_mix job " + std::to_string(loop.ids[i]) + " (" +
                  jobs[k].spec.name +
                  ") completed, bit-identical to a solo dbim_reconstruct" +
                  (st.error.empty() ? "" : ": " + st.error));
  }
  rep.notes.push_back("solo reference runs (untimed): " + fmt(now_s() - t_check) + " s");
  check_quality(rep, ref, median(fr), median(rmse), "service_mix median job");
  for (const Mix m : {Mix::kMlfma32, Mix::kAuto64, Mix::kLadder}) {
    std::vector<double> c, l;
    for (std::size_t i = 0; i < loop.ids.size(); ++i) {
      if (jobs[static_cast<std::size_t>(loop.job_index[i])].mix != m) continue;
      c.push_back(compute[i]);
      l.push_back(loop.latency_s[i]);
    }
    rep.notes.push_back(std::string(m == Mix::kMlfma32  ? "mlfma32"
                                    : m == Mix::kAuto64 ? "auto64"
                                                        : "ladder") +
                        " jobs: " + std::to_string(c.size()) +
                        ", compute p50 " + fmt(median(c)) +
                        " s, latency p50 " + fmt(median(l)) + " s");
  }

  if (args.trace) {
    tp.recon_traced_s = median(compute);
    tp.service = true;
    tp.have_cluster = true;
    tp.traffic = vc->traffic();
    tp.iterations = 0;
    for (const int id : loop.ids) tp.iterations += svc->status(id).iterations;
    tp.pool_busy_frac = busy / (loop.wall_s * kPoolRanks);
    tp.setup_mlfma_s = median(mlfma_s);
    tp.setup_trx_s = median(trx_s);
    tp.setup_cbs_s = median(cbs_s);
    const trace::Analysis an = trace::analyze(kPoolRanks);
    tp.iter_s = an.span_durations("service.step");
    for (const auto& t : an.threads) {
      if (t.rank != 0) continue;
      for (const auto& e : t.events) {
        if (std::strcmp(e.name, "service.step") == 0 ||
            std::strcmp(e.name, "service.build") == 0)
          tp.dbim_wall_rank0_s += 1e-9 * static_cast<double>(e.end_ns - e.begin_ns);
      }
    }
    // Queue wait: end of the benchmark's submit span to the first
    // service.build span of that job on a pool rank.
    std::map<std::int64_t, std::uint64_t> submitted_ns, built_ns;
    for (const auto& t : an.threads) {
      for (const auto& e : t.events) {
        if (std::strcmp(e.name, "perfbench.submit") == 0) {
          submitted_ns[e.arg] = e.end_ns;
        } else if (std::strcmp(e.name, "service.build") == 0) {
          auto [it, fresh] = built_ns.emplace(e.arg, e.begin_ns);
          if (!fresh) it->second = std::min(it->second, e.begin_ns);
        }
      }
    }
    for (const auto& [seq, ns] : submitted_ns) {
      const int id = loop.ids[static_cast<std::size_t>(seq)];
      const auto b = built_ns.find(id);
      if (b != built_ns.end() && b->second >= ns)
        tp.queue_wait_s.push_back(1e-9 * static_cast<double>(b->second - ns));
    }
    for (const int id : loop.ids) {
      tp.forward_solves += svc->result(id).history.forward_solves;
      tp.operator_applications += svc->result(id).history.operator_applications;
    }
    MlfmaEngine probe(cache->mlfma_tables(Grid(kMlfma32.nx), kMlfma32.leaf,
                                          MlfmaParams{}));
    apply_probe(probe, tp);
    layer_metrics(rep, tp, an);
  }

  rep.e2e("setup_s", median(setup_s), "s");
  rep.e2e("recon_s", median(compute), "s");
  rep.e2e("final_residual", median(fr), "ratio");
  rep.e2e("image_rmse", median(rmse), "ratio");
  rep.e2e("jobs_per_s", static_cast<double>(loop.ids.size()) / loop.wall_s, "1/s");
  rep.e2e("job_latency_p50_s", median(loop.latency_s), "s");
  rep.e2e("job_latency_p90_s", percentile(loop.latency_s, 0.9), "s");
  rep.e2e("peak_rss_mb", rss, "MiB");
  return rep;
}

}  // namespace perfbench

#include "trace.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench::trace {

namespace {

bool starts_with(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

bool is_lower_layer(Module m) {
  return m == Module::kForward || m == Module::kMlfma || m == Module::kFft ||
         m == Module::kVcluster;
}

}  // namespace

const char* module_name(Module m) {
  switch (m) {
    case Module::kDbim: return "dbim";
    case Module::kForward: return "forward";
    case Module::kMlfma: return "mlfma";
    case Module::kFft: return "fft";
    case Module::kVcluster: return "vcluster";
    case Module::kService: return "service";
    case Module::kHarness: return "harness";
    case Module::kCount: break;
  }
  return "?";
}

Module module_of(const char* name) {
  if (starts_with(name, "perfbench.wait")) return Module::kHarness;
  if (starts_with(name, "perfbench.apply_block")) return Module::kMlfma;
  if (starts_with(name, "perfbench.submit")) return Module::kService;
  if (starts_with(name, "perfbench.")) return Module::kDbim;
  if (starts_with(name, "dbim.")) return Module::kDbim;
  if (starts_with(name, "precond.") || std::strcmp(name, "cbs.solve") == 0)
    return Module::kForward;
  if (starts_with(name, "cbs.")) return Module::kFft;  // cbs.fft, kernel_fft
  if (starts_with(name, "mlfma.")) return Module::kMlfma;
  if (starts_with(name, "dist.halo")) return Module::kVcluster;
  if (starts_with(name, "dist.")) return Module::kMlfma;
  if (starts_with(name, "service.")) return Module::kService;
  return Module::kHarness;
}

void begin() {
  ffw::obs::set_enabled(false);
  ffw::obs::reset();
  ffw::obs::set_ring_capacity(std::size_t{1} << 21);
  ffw::obs::set_enabled(true);
}

void end() { ffw::obs::set_enabled(false); }

double Analysis::span_total_s(const std::string& name) const {
  double s = 0.0;
  for (const double d : span_durations(name)) s += d;
  return s;
}

std::vector<double> Analysis::span_durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& t : threads) {
    for (const auto& e : t.events) {
      if (name == e.name) out.push_back(1e-9 * (e.end_ns - e.begin_ns));
    }
  }
  return out;
}

double Analysis::max_rank_ns_counter_s(ffw::obs::Counter c) const {
  std::uint64_t m = 0;
  for (const auto& r : by_rank) m = std::max(m, r[static_cast<std::size_t>(c)]);
  return 1e-9 * static_cast<double>(m);
}

double Analysis::mean_rank_ns_counter_s(ffw::obs::Counter c) const {
  if (by_rank.empty()) return 0.0;
  double s = 0.0;
  for (const auto& r : by_rank) s += 1e-9 * r[static_cast<std::size_t>(c)];
  return s / static_cast<double>(by_rank.size());
}

Analysis analyze(int nranks) {
  Analysis a;
  a.nranks = nranks;
  a.threads = ffw::obs::snapshot();
  a.by_rank.assign(static_cast<std::size_t>(nranks), {});
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rank0_lower;

  for (auto& t : a.threads) {
    a.dropped += t.dropped;
    for (std::size_t c = 0; c < ffw::obs::kNumCounters; ++c) {
      a.counters[c] += t.counters[c];
      if (t.rank >= 0 && t.rank < nranks)
        a.by_rank[static_cast<std::size_t>(t.rank)][c] += t.counters[c];
    }
    // Spans nest per thread: ordering by begin time (outer span first on
    // ties) puts every span right after its parent's opening, so the
    // parent is the latest span seen one level up.
    auto& ev = t.events;
    std::sort(ev.begin(), ev.end(), [](const auto& x, const auto& y) {
      return x.begin_ns != y.begin_ns ? x.begin_ns < y.begin_ns
                                      : x.depth < y.depth;
    });
    std::vector<double> self(ev.size());
    std::vector<std::ptrdiff_t> last_at_depth;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      const double dur = 1e-9 * static_cast<double>(ev[i].end_ns - ev[i].begin_ns);
      self[i] = dur;
      const std::size_t d = ev[i].depth;
      if (last_at_depth.size() <= d) last_at_depth.resize(d + 1, -1);
      last_at_depth[d] = static_cast<std::ptrdiff_t>(i);
      if (d > 0 && last_at_depth[d - 1] >= 0) {
        const auto p = static_cast<std::size_t>(last_at_depth[d - 1]);
        if (ev[p].end_ns >= ev[i].end_ns) self[p] -= dur;
      }
    }
    const bool counted = t.rank >= 0 && t.rank < nranks;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      const Module m = module_of(ev[i].name);
      if (counted) a.self_s[static_cast<std::size_t>(m)] += self[i];
      if (t.rank == 0 && is_lower_layer(m))
        rank0_lower.emplace_back(ev[i].begin_ns, ev[i].end_ns);
    }
    // Preconditioner use: a factorisation counts as used when an apply
    // follows it on this thread before the next factorisation.
    bool pending = false;
    for (const auto& e : ev) {
      if (std::strcmp(e.name, "precond.setup") == 0) {
        ++a.precond_setups;
        pending = true;
      } else if (pending && std::strcmp(e.name, "precond.apply") == 0) {
        ++a.precond_setups_used;
        pending = false;
      }
    }
  }
  for (auto& s : a.self_s) s /= static_cast<double>(nranks);

  std::sort(rank0_lower.begin(), rank0_lower.end());
  std::uint64_t covered = 0, cur_b = 0, cur_e = 0;
  bool open = false;
  for (const auto& [b, e] : rank0_lower) {
    if (!open || b > cur_e) {
      if (open) covered += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) covered += cur_e - cur_b;
  a.lower_coverage_rank0_s = 1e-9 * static_cast<double>(covered);
  return a;
}

}  // namespace perfbench::trace

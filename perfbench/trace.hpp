// Traced pass of a workload: turns the obs span rings and counters into
// per-module self times, lower-layer coverage and span totals.
//
// Spans come from two places: the spans the library already records
// (dbim.*, precond.*, cbs.*, mlfma.*, dist.*, service.*) and the
// benchmark's own `perfbench.*` spans around its calls into the library
// (Span below). Every span name maps to one module; a module's self time
// is the time its spans cover minus the part their child spans cover.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench::trace {

enum class Module : int {
  kDbim = 0,
  kForward,
  kMlfma,
  kFft,
  kVcluster,
  kService,
  kHarness,  // benchmark spans that only wait on other threads
  kCount
};
inline constexpr std::size_t kNumModules =
    static_cast<std::size_t>(Module::kCount);
const char* module_name(Module m);
Module module_of(const char* span_name);

/// Benchmark-side span around one call into a library module. `name`
/// must be a string literal starting with "perfbench.".
using Span = ffw::obs::SpanScope;

/// Clears every obs ring and counter, enlarges the rings so a whole
/// reconstruction fits, and switches tracing on.
void begin();
/// Switches tracing off.
void end();

struct Analysis {
  int nranks = 1;
  std::uint64_t dropped = 0;  // span events lost to full rings
  /// Self time per module, summed over the threads of each rank and
  /// averaged over ranks.
  std::array<double, kNumModules> self_s{};
  /// Rank-0 wall time covered by forward/mlfma/fft/vcluster spans.
  double lower_coverage_rank0_s = 0.0;
  /// Counter totals over every thread, and per rank.
  std::array<std::uint64_t, ffw::obs::kNumCounters> counters{};
  std::vector<std::array<std::uint64_t, ffw::obs::kNumCounters>> by_rank;
  /// Near-field factorisations, and how many of them were followed by
  /// at least one preconditioner apply on the same thread before the
  /// next factorisation.
  std::uint64_t precond_setups = 0;
  std::uint64_t precond_setups_used = 0;
  std::vector<ffw::obs::ThreadSnapshot> threads;

  std::uint64_t counter(ffw::obs::Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  /// Sum of a span name's durations over all threads (seconds).
  double span_total_s(const std::string& name) const;
  /// Durations (seconds) of every span with this name, all threads.
  std::vector<double> span_durations(const std::string& name) const;
  /// Largest per-rank sum of a nanosecond counter (seconds).
  double max_rank_ns_counter_s(ffw::obs::Counter c) const;
  double mean_rank_ns_counter_s(ffw::obs::Counter c) const;
};

/// Snapshots the obs state after end(); ranks 0..nranks-1 are averaged
/// for self time (threads tagged with other ranks are ignored there).
Analysis analyze(int nranks);

}  // namespace perfbench::trace

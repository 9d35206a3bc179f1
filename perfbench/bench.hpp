// Shared types of the repository benchmark (perfbench/README.md).
//
// A workload fills a RunReport: end-to-end metrics measured with tracing
// off, per-module metrics from a separate traced pass (when --trace 1),
// the output checks that feed `failed`, and the run metadata.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Sentinel for a per-module metric that cannot be measured from
/// outside the library on this workload; the reason goes into
/// RunReport::omitted.
inline constexpr double kNotMeasurable = -1.0;

struct RunReport {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_module;
  /// "metric: reason" lines for kNotMeasurable per-module values.
  std::vector<std::string> omitted;
  /// Output checks: every reconstruction / job checked counts as one
  /// attempt; a failed check counts as failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_log;
  /// Informational observations (printed, not checked).
  std::vector<std::string> notes;
  /// Thread layout for the metadata line.
  int ranks = 1;
  int omp_threads_per_rank = 1;

  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end.push_back({name, v, unit});
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    per_module.push_back({name, v, unit});
  }
  void omit(const std::string& name, const std::string& unit,
            const std::string& why) {
    per_module.push_back({name, kNotMeasurable, unit});
    omitted.push_back(name + ": " + why);
  }
  /// Records one output check.
  void check(bool ok, const std::string& what);
};

RunReport run_strong_serial(const Args& args);
RunReport run_strong_2x2(const Args& args);
RunReport run_weak_auto(const Args& args);
RunReport run_service_mix(const Args& args);

// ---- Small statistics / process helpers (main.cpp) ----

double median(std::vector<double> v);
/// Percentile with linear interpolation between order statistics
/// (q in [0, 1]).
double percentile(std::vector<double> v, double q);
/// Starts a new peak-RSS window (Linux clear_refs), after returning
/// freed heap to the system, so input generation does not count.
void reset_peak_rss();
/// Peak resident set size since the last reset_peak_rss (MiB).
double peak_rss_mb();
/// Wall seconds since an arbitrary steady epoch.
double now_s();

}  // namespace perfbench

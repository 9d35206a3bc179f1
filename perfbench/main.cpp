// perfbench: the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>]
//
// Runs one workload (strong_serial, strong_2x2, weak_auto, service_mix;
// see README.md), prints a metadata line, a human-readable metric table
// and the output-check log, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-module metrics (--trace 1).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

void RunReport::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) ++failed;
  check_log.push_back(std::string(ok ? "ok   " : "FAIL ") + what);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (h - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

void reset_peak_rss() {
  malloc_trim(0);  // hand freed input-generation memory back first
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench

namespace {

using perfbench::Metric;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <strong_serial|strong_2x2|"
               "weak_auto|service_mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--git-sha <sha>]\n");
}

/// Shortest round-trip decimal form, so every digit measured survives.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& m : ms)
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      args.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (k == "--git-sha") {
      args.git_sha = v;
    } else {
      usage();
      return 2;
    }
  }
  if (args.workload.empty() || !have_trace || !(args.seconds > 0.0)) {
    usage();
    return 2;
  }

  perfbench::RunReport rep;
  if (args.workload == "strong_serial") {
    rep = perfbench::run_strong_serial(args);
  } else if (args.workload == "strong_2x2") {
    rep = perfbench::run_strong_2x2(args);
  } else if (args.workload == "weak_auto") {
    rep = perfbench::run_weak_auto(args);
  } else if (args.workload == "service_mix") {
    rep = perfbench::run_service_mix(args);
  } else {
    usage();
    return 2;
  }

  std::printf(
      "# meta {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"git_sha\": \"%s\", \"build_type\": \"%s\", \"march\": \"%s\", "
      "\"nproc\": %u, \"ranks\": %d, \"omp_threads_per_rank\": %d, "
      "\"seconds\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, args.git_sha.c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_MARCH, std::thread::hardware_concurrency(), rep.ranks,
      rep.omp_threads_per_rank, num(args.seconds).c_str());
  for (const auto& line : rep.check_log)
    std::printf("# check %s\n", line.c_str());
  for (const auto& line : rep.notes) std::printf("# note %s\n", line.c_str());
  const double failed_frac =
      rep.attempted ? static_cast<double>(rep.failed) / rep.attempted : 1.0;
  std::printf("# failed_frac %s (%llu of %llu output checks failed)\n",
              num(failed_frac).c_str(),
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));
  print_table("# end-to-end (tracing off)", rep.end_to_end);
  if (args.trace) {
    print_table("# per-module (traced pass)", rep.per_module);
    for (const auto& o : rep.omitted)
      std::printf("# not measurable: %s\n", o.c_str());
  }

  const bool correct = rep.attempted > 0 && rep.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed),
      metrics_json(args.trace ? rep.per_module : rep.end_to_end).c_str());
  std::fflush(stdout);
  return 0;
}

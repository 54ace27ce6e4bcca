#pragma once

/// \file report.hpp
/// Result record of one benchmark run: metrics (name, value, unit from the
/// fixed table in report.cpp), correctness checks counted as operations,
/// diagnostics and provenance. `print` writes the diagnostic lines and, as
/// the last line of standard output, the result JSON object.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's scratch files (fleet root); inside the
  /// checkout, created by the harness.
  std::string work_dir = ".bench_build/work";
  std::string commit = "unknown";
  /// Multiply-add ceiling measured at the start of a traced run.
  double fma_gflops = 0.0;
};

class Report {
 public:
  /// Record a metric; the name must be in the table in report.cpp.
  void metric(const std::string& name, double value);
  /// A correctness check: one attempted operation, failed unless `ok`.
  void check(const std::string& name, bool ok, const std::string& detail);
  /// Timed operations (steps, jobs) and how many of them failed.
  void operations(long long attempted, long long failed);
  /// Free-form provenance / diagnostic entries (printed, never gated).
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);
  /// Per-operation latencies (ms). The untraced run gates the workload's
  /// `gated_quantile` of them as latency_ms and prints p50/p90; the traced
  /// run reports p50/p90 as per-layer metrics. Records the sample count.
  void latency(const std::vector<double>& ms, double gated_quantile,
               bool trace);

  /// Print diagnostics, then the result line. With `trace` the result
  /// carries every per-layer metric (layers the workload bypasses read 0
  /// and are listed as bypassed); otherwise every end-to-end metric.
  /// Returns false when an end-to-end metric is missing or not positive.
  bool print(bool trace) const;

 private:
  std::map<std::string, double> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  long long attempted_ = 0;
  long long failed_ = 0;
};

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]. Empty input gives 0.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// ---- process measurements ---------------------------------------------------

/// Peak resident set (VmHWM) of `pid`, MB; 0 when unreadable.
double peak_rss_mb(pid_t pid);
/// Peak resident set of this process, MB.
double self_peak_rss_mb();
/// Filesystem type name of the filesystem holding `path` (statfs).
std::string filesystem_type(const std::string& path);
/// "1.234e-05": check-line formatting.
std::string sci(double v);
/// Wall clock in seconds on the steady clock.
double now_s();

}  // namespace perfbench

#include "report.hpp"
#include "workloads.hpp"

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

// The benchmark's metric table; BENCHMARK.json lists the same names and
// units (run.py --smoke checks that they agree).
constexpr MetricDef kMetrics[] = {
    // end to end
    {"particle_steps_per_s", "1/s", true},
    {"setup_s", "s", true},
    {"peak_rss_mb", "MB", true},
    {"latency_ms", "ms", true},
    // per-operation latency quantiles (README.md, end-to-end metrics)
    {"job_ms_p50", "ms", false},
    {"job_ms_p90", "ms", false},
    // native real space (real_kernel, core/cell_list) and k-space
    {"native.real_ms", "ms", false},
    {"native.kspace_ms", "ms", false},
    {"native.pairs_per_step", "count", false},
    {"native.ns_per_pair", "ns", false},
    {"native.useful_pair_ratio", "ratio", false},
    {"native.real_gflops", "Gflop/s", false},
    {"native.real_frac_of_peak", "ratio", false},
    // core integrate / thermostat / health
    {"core.integrate_ms", "ms", false},
    // emulators
    {"mdgrape2.ms", "ms", false},
    {"mdgrape2.pair_ops_per_step", "count", false},
    {"mdgrape2.ops_over_optimal", "ratio", false},
    {"wine2.ms", "ms", false},
    {"wine2.wave_particle_ops_per_step", "count", false},
    // host + ewald/pme
    {"host.real_ms", "ms", false},
    {"host.kspace_ms", "ms", false},
    {"host.halo_ms", "ms", false},
    {"host.migrate_ms", "ms", false},
    {"vmpi.messages_per_step", "count", false},
    {"host.speedup_vs_serial", "ratio", false},
    // serve + serve/fleet + load generator
    {"fleet.wait_ms_p50", "ms", false},
    {"fleet.run_ms_p50", "ms", false},
    {"fleet.route_ms_p50", "ms", false},
    {"fleet.ckpt_bytes_per_job", "bytes", false},
    {"fleet.cache_hits", "count", false},
    {"loadgen.late_ms_p50", "ms", false},
    {"loadgen.late_ms_max", "ms", false},
    // set-up
    {"setup.build_s", "s", false},
    {"setup.tables_s", "s", false},
    {"setup.first_force_s", "s", false},
    {"setup.spawn_s", "s", false},
    // ceiling probe and tracing
    {"probe.fma_gflops", "Gflop/s", false},
    {"probe.stream_gbps", "GB/s", false},
    {"probe.scalar_ms", "ms", false},
    {"trace.overhead_pct", "%", false},
    {"trace.step_coverage", "ratio", false},
};

const MetricDef* find_metric(const std::string& name) {
  for (const auto& m : kMetrics)
    if (name == m.name) return &m;
  return nullptr;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value) {
  if (!find_metric(name)) {
    std::fprintf(stderr, "perfbench: unknown metric '%s'\n", name.c_str());
    std::abort();
  }
  metrics_[name] = value;
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++attempted_;
  if (!ok) ++failed_;
  std::printf("check %-28s %s  %s\n", name.c_str(), ok ? "ok  " : "FAIL",
              detail.c_str());
  std::fflush(stdout);
}

void Report::operations(long long attempted, long long failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, "\"" + json_escape(value) + "\"");
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, number(value));
}

bool Report::print(bool trace) const {
  std::string prov = "{";
  for (std::size_t i = 0; i < info_.size(); ++i)
    prov += (i ? ", \"" : "\"") + json_escape(info_[i].first) +
            "\": " + info_[i].second;
  prov += "}";
  std::printf("provenance %s\n", prov.c_str());

  bool complete = true;
  std::string bypassed;
  std::string out = "{";
  bool first = true;
  for (const auto& m : kMetrics) {
    if (m.end_to_end == trace) continue;
    const auto it = metrics_.find(m.name);
    double value = 0.0;
    if (it != metrics_.end()) {
      value = it->second;
    } else if (trace) {
      bypassed += std::string(bypassed.empty() ? "" : " ") + m.name;
    }
    if (!trace && (it == metrics_.end() || !(value > 0.0))) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s %s\n", m.name,
                   it == metrics_.end() ? "missing" : "not positive");
      complete = false;
    }
    out += std::string(first ? "" : ", ") + "\"" + m.name +
           "\": {\"value\": " + number(value) + ", \"unit\": \"" + m.unit +
           "\"}";
    first = false;
  }
  out += "}";
  if (trace)
    std::printf("bypassed (layer does no work on this workload, reads 0): %s\n",
                bypassed.empty() ? "none" : bypassed.c_str());
  if (!trace) {
    const auto probe = metrics_.find("probe.scalar_ms");
    if (probe != metrics_.end())
      std::printf("drift probe.scalar_ms %.6f ms (diagnostic, not gated)\n",
                  probe->second);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      failed_ == 0 ? "true" : "false", attempted_, failed_, out.c_str());
  std::fflush(stdout);
  return complete;
}

void check_nve_drift(Report& report, double drift, double steps) {
  char detail[160];
  std::snprintf(detail, sizeof detail,
                "max |dE/E0| %.3e over %.0f NVE steps = %.3e/step < %.1e/step "
                "(paper sec. 5: %.0e total)",
                drift, steps, drift / steps, kDriftPerStepBound, kPaperDrift);
  report.check("nve_energy_drift", drift / steps < kDriftPerStepBound, detail);
}

void Report::latency(const std::vector<double>& ms, double gated_quantile,
                     bool trace) {
  info("job_samples", double(ms.size()));
  if (trace) {
    metric("job_ms_p50", median(ms));
    metric("job_ms_p90", quantile(ms, 0.9));
  } else {
    metric("latency_ms", quantile(ms, gated_quantile));
    info("job_ms_p50", median(ms));
    info("job_ms_p90", quantile(ms, 0.9));
  }
}

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3e", v);
  return buf;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double self_peak_rss_mb() { return peak_rss_mb(getpid()); }

std::string filesystem_type(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  const auto magic = static_cast<unsigned long>(st.f_type);
  if (magic == 0x01021994UL) return "tmpfs";
  if (magic == 0xEF53UL) return "ext4";
  char buf[32];
  std::snprintf(buf, sizeof buf, "statfs magic 0x%lx", magic);
  return buf;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench

#include "probe.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {
namespace {

// Keeps a result observable so the compiler cannot drop the loop.
volatile double g_sink = 0.0;

std::size_t parse_cache_size(const std::string& text) {
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9')
    value = value * 10 + static_cast<std::size_t>(text[i++] - '0');
  if (i < text.size() && (text[i] == 'K' || text[i] == 'k')) value <<= 10;
  if (i < text.size() && (text[i] == 'M' || text[i] == 'm')) value <<= 20;
  return value;
}

/// Largest unified/data cache of cpu0 in sysfs; 32 MiB when unreadable.
std::size_t last_level_cache_bytes() {
  std::size_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string text;
    if (!(in >> text)) continue;
    best = std::max(best, parse_cache_size(text));
  }
  return best > 0 ? best : std::size_t(32) << 20;
}

}  // namespace

double scalar_probe_ms(int reps) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    double x = 1.0 + g_sink * 0.0;
    for (int i = 0; i < 4'000'000; ++i) x = x * 0.999999 + 1e-7;
    g_sink = x;
    times.push_back((now_s() - t0) * 1e3);
  }
  return median(times);
}

double fma_probe_gflops() {
  constexpr int kLanes = 32;  // independent chains: hides the add latency
  constexpr int kIters = 2'000'000;
  double acc[kLanes];
  for (int l = 0; l < kLanes; ++l) acc[l] = 1.0 + l * 1e-3 + g_sink * 0.0;
  const double a = 0.9999999, b = 1e-9;
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    for (int i = 0; i < kIters; ++i)
      for (int l = 0; l < kLanes; ++l) acc[l] = acc[l] * a + b;
    const double dt = now_s() - t0;
    rates.push_back(2.0 * kLanes * double(kIters) / dt * 1e-9);
  }
  double s = 0.0;
  for (int l = 0; l < kLanes; ++l) s += acc[l];
  g_sink = s;
  return *std::max_element(rates.begin(), rates.end());
}

StreamProbe stream_probe() {
  StreamProbe out;
  out.llc_bytes = last_level_cache_bytes();
  out.array_bytes = 4 * out.llc_bytes;
  std::vector<double> data(out.array_bytes / sizeof(double), 1.0);
  double best = 0.0;
  for (int rep = 0; rep < 4; ++rep) {
    const double t0 = now_s();
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    const std::size_t n = data.size() & ~std::size_t(3);
    for (std::size_t i = 0; i < n; i += 4) {
      s0 += data[i];
      s1 += data[i + 1];
      s2 += data[i + 2];
      s3 += data[i + 3];
    }
    const double dt = now_s() - t0;
    g_sink = s0 + s1 + s2 + s3;
    best = std::max(best, double(n * sizeof(double)) / dt * 1e-9);
  }
  out.gbps = best;
  return out;
}

}  // namespace perfbench

#pragma once

/// \file probe.hpp
/// Ceiling and drift probes. `scalar_ms` is a short fixed dependent-scalar
/// loop run in every workload as a diagnostic of machine drift; it is
/// printed next to each result and never used to normalise or gate one.
/// `fma_gflops` and `stream_gbps` are the ceilings of the traced run.

#include <cstddef>

namespace perfbench {

/// Median wall time of a fixed dependent multiply-add chain, ms.
double scalar_probe_ms(int reps);

/// Multiply-add rate of independent accumulator chains in this build's
/// code generation, Gflop/s (2 flops per multiply-add).
double fma_probe_gflops();

struct StreamProbe {
  double gbps = 0.0;          ///< best read bandwidth over the repetitions
  std::size_t array_bytes = 0;
  std::size_t llc_bytes = 0;  ///< last-level cache size read from sysfs
};
/// Read bandwidth of a sum over one array of at least 4x the last-level
/// cache.
StreamProbe stream_probe();

}  // namespace perfbench

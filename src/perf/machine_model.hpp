#pragma once

/// \file machine_model.hpp
/// Analytic performance model of the MDM configurations discussed in the
/// paper (secs. 3, 5, 6): chip counts, peak speeds, efficiencies and the
/// communication fabric. Together with the operation-count model of
/// ewald/flops.hpp this regenerates Tables 1, 4 and 5.

#include <algorithm>
#include <string>

#include "core/backend.hpp"
#include "ewald/flops.hpp"
#include "ewald/parameters.hpp"

namespace mdm::perf {

/// One machine configuration.
struct MachineModel {
  std::string name;

  // --- special-purpose units --------------------------------------------
  int mdgrape_chips = 0;
  int wine_chips = 0;
  double mdgrape_chip_gflops = 16.0;  ///< sec. 3.5.3 (100 MHz, 4 pipelines)
  double wine_chip_gflops = 20.0;     ///< sec. 3.4.3 (66.6 MHz, 8 pipelines)
  /// Sustained fraction of peak (Table 5's "efficiency").
  double mdgrape_efficiency = 1.0;
  double wine_efficiency = 1.0;

  // --- conventional computer alternative ---------------------------------
  /// When true, both Ewald parts run on a general-purpose computer at
  /// `host_flops` and the real-space part uses Newton's third law + exact
  /// cutoff (N_int, not N_int_g).
  bool conventional = false;
  double host_flops = 0.0;

  // --- fabric (sec. 6.1) --------------------------------------------------
  double pci_bandwidth_bytes = 132e6;      ///< 32-bit PCI
  double network_bandwidth_bytes = 160e6;  ///< Myrinet, per link
  int node_count = 4;

  double mdgrape_peak_flops() const {
    return mdgrape_chips * mdgrape_chip_gflops * 1e9;
  }
  double wine_peak_flops() const {
    return wine_chips * wine_chip_gflops * 1e9;
  }
  double mdgrape_sustained_flops() const {
    return mdgrape_peak_flops() * mdgrape_efficiency;
  }
  double wine_sustained_flops() const {
    return wine_peak_flops() * wine_efficiency;
  }
  double peak_flops() const {
    return conventional ? host_flops
                        : mdgrape_peak_flops() + wine_peak_flops();
  }

  /// The machine of the July-2000 measurement: 64 MDGRAPE-2 chips (1 Tflops)
  /// + 2,240 WINE-2 chips (45 Tflops). Efficiencies from Table 5.
  static MachineModel mdm_current();
  /// End-of-2000 target: 1,536 + 2,688 chips, 25 + 54 Tflops, ~50% eff.
  static MachineModel mdm_future();
  /// General-purpose computer with the same *effective* speed as the
  /// current MDM (the paper's Table 4 comparison column).
  static MachineModel conventional_equivalent(double flops = 1.34e12);
};

/// Predicted timing of one MD step for a machine/workload pair.
struct StepTiming {
  double real_seconds = 0.0;        ///< real-space force part
  double wavenumber_seconds = 0.0;  ///< wavenumber force part
  double host_seconds = 0.0;        ///< O(N) integration etc.
  double comm_seconds = 0.0;        ///< host<->board + network traffic

  /// WINE-2 and MDGRAPE-2 are independent backends fed the same positions
  /// (sec. 3.1), so their work overlaps; the host/O(N) parts serialize.
  /// A conventional machine runs both parts on the same CPUs (sum).
  bool concurrent_backends = true;
  double total_seconds() const {
    const double backend =
        concurrent_backends ? std::max(real_seconds, wavenumber_seconds)
                            : real_seconds + wavenumber_seconds;
    return backend + host_seconds + comm_seconds;
  }
};

/// Predict one step of an N-particle Ewald MD run at the given parameters.
StepTiming predict_step(const MachineModel& machine, double n_particles,
                        double box, const EwaldParameters& params);

/// The alpha this machine prefers (sec. 5: "optimized for our hardware").
double optimal_alpha(const MachineModel& machine, double n_particles,
                     const EwaldAccuracy& accuracy = {});

/// Measured single-thread host costs of the two software backends
/// (DESIGN.md §11). The emulator pays per *candidate* pair of the MDGRAPE
/// 27-cell scan (N * n_int_g, eq. 6 — no Newton, no cutoff skip) and per
/// (particle, wave) on the WINE pipeline walk; the native kernels pay per
/// Newton pair (N * n_int, eq. 5) and per (particle, wave) of the blocked
/// recurrence DFT/IDFT. Defaults come from bench_backend on the standard
/// NaCl melt (BENCH_backend.json); override with your own measurements for
/// a different host.
struct BackendCostModel {
  /// The emulator rates predate the emulator hot paths and lanes
  /// (EXPERIMENTS.md "Emulator hot paths", "Emulator lanes"):
  /// `bench_backend --cells 4 --reps 3` now reads 19.6 ns per candidate
  /// pair and 10.6 ns per particle-wave (AVX-512 variant, 4-vCPU x86-64,
  /// GCC 12.2 portable Release). They are kept because recommended_backend
  /// is tuned on them; ROADMAP item 3 replaces them with measured ones.
  double emulator_ns_per_pair = 114.0;
  /// real.native_ns_per_pair of `bench_backend --cells 4 --reps 20` (N =
  /// 512, cell mode), median of 3 runs on a 4-vCPU x86-64 host, GCC 12.2
  /// portable Release: 112-117 ns with the filtered cell sweep, whose
  /// force expression sees only in-cutoff pairs (218-302 ns when it ran
  /// every stencil candidate).
  double native_ns_per_pair = 115.0;
  double emulator_ns_per_wave = 285.0;
  double native_ns_per_wave = 6.3;

  double ns_per_pair(Backend b) const {
    return b == Backend::kNative ? native_ns_per_pair : emulator_ns_per_pair;
  }
  double ns_per_wave(Backend b) const {
    return b == Backend::kNative ? native_ns_per_wave : emulator_ns_per_wave;
  }
};

/// Predicted single-thread wall clock of one force evaluation on the host
/// for the given backend (both parts run on the same CPU, so they sum).
StepTiming predict_backend_step(const BackendCostModel& costs,
                                Backend backend, double n_particles,
                                double box, const EwaldParameters& params);

/// The backend the auto-selector picks for a host run: the one with the
/// smaller predicted step time. `accuracy_needs_emulator` forces the
/// emulator when the caller wants the hardware's exact fixed-point force
/// law (e.g. to reproduce machine trajectories bit-for-bit).
Backend recommended_backend(const BackendCostModel& costs, double n_particles,
                            double box, const EwaldParameters& params,
                            bool accuracy_needs_emulator = false);

}  // namespace mdm::perf

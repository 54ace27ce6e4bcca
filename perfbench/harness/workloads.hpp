#pragma once

/// \file workloads.hpp
/// The four workloads. Each builds its inputs from `options.seed`, measures
/// for `options.seconds`, runs its correctness checks into `report`, and
/// records the end-to-end metrics (untraced run) or the per-layer metrics
/// (traced run, `options.trace`).

#include "report.hpp"

namespace perfbench {

/// The paper's sec. 5 criterion: relative total-energy error < 5e-7 over
/// the NVE phase of an equilibrated N = 1.88e7 melt. Printed beside each
/// measured drift for comparison; it is not what the check gates on (see
/// README.md, "Energy check").
constexpr double kPaperDrift = 5e-7;
/// Gated NVE guard: relative total-energy drift per step. Measured windows
/// start from the lattice, where the melting transient drains energy
/// through the truncated sums at up to ~2e-5 per step on both the
/// reference and the native path; broken forces or integration leave this
/// bound within a few steps.
constexpr double kDriftPerStepBound = 5e-5;

/// Count the NVE drift check: `drift` = max |E - E0| / |E0| over `steps`.
void check_nve_drift(Report& report, double drift, double steps);

/// N = 4096 NaCl melt, native backend, software_parameters, one thread.
void run_melt_native_4k(const Options& options, Report& report);
/// N = 512 NaCl melt on host::MdmForceField (MDGRAPE-2 + WINE-2 emulators).
void run_machine_emulated_512(const Options& options, Report& report);
/// host::MdmParallelApp, R x W = 2 x 2, native, PME, N = 512.
void run_parallel_pme_512(const Options& options, Report& report);
/// Open-loop Poisson load on a serve::fleet::Router with 2 shards.
void run_fleet_open_loop(const Options& options, Report& report);

}  // namespace perfbench

// parallel_pme_512: host::MdmParallelApp (R x W = 2 x 2, native backend,
// distributed PME), driven through MdmParallelApp::run. The app has no
// per-step hook, so the rate comes from whole runs: N * steps over the run
// wall time minus the separately measured set-up.

#include <cmath>
#include <cstdio>
#include <numbers>
#include <string>
#include <vector>

#include "core/cell_list.hpp"
#include "core/lattice.hpp"
#include "core/simulation.hpp"
#include "host/mdm_force_field.hpp"
#include "host/parallel_app.hpp"
#include "native/native_force_field.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/solver_select.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mdm;

constexpr int kCells = 4;  // N = 512
constexpr int kReal = 2;
constexpr int kWavenumber = 2;
constexpr int kRunSteps = 50;
constexpr int kMinRuns = 3;
constexpr int kSetupReps = 5;
constexpr double kTemperatureK = 1200.0;
constexpr double kDtFs = 2.0;
constexpr double kPmeTolerance = 5e-4;

ParticleSystem initial_system(std::uint64_t seed) {
  ParticleSystem system = make_nacl_crystal(kCells);
  assign_maxwell_velocities(system, kTemperatureK, seed);
  return system;
}

host::ParallelAppConfig app_config(const ParticleSystem& system, int steps,
                                   host::KspaceSolver solver) {
  host::ParallelAppConfig c;
  c.real_processes = kReal;
  c.wn_processes = kWavenumber;
  c.backend = Backend::kNative;
  c.kspace_solver = solver;
  c.ewald = host::mdm_parameters(double(system.size()), system.box());
  c.pme.order = 6;
  c.pme.grid = perf::recommended_pme_mesh(c.ewald, c.pme.order);
  c.protocol.temperature_K = kTemperatureK;
  c.protocol.dt_fs = kDtFs;
  c.protocol.nvt_steps = 0;
  c.protocol.nve_steps = steps;
  return c;
}

/// Wall seconds of system construction + app construction + a run of
/// `steps` (0 = scatter, first forces, gather: the set-up).
double timed_run(std::uint64_t seed, int steps, host::ParallelRunResult* out) {
  const double t0 = now_s();
  const ParticleSystem system = initial_system(seed);
  host::MdmParallelApp app(
      app_config(system, steps, host::KspaceSolver::kPme));
  host::ParallelRunResult result = app.run(system);
  const double wall = now_s() - t0;
  if (out) *out = std::move(result);
  return wall;
}

double nve_drift(const std::vector<Sample>& samples) {
  double worst = 0.0;
  for (const auto& s : samples)
    worst = std::max(worst, std::fabs(s.total_eV - samples.front().total_eV) /
                                std::fabs(samples.front().total_eV));
  return worst;
}

/// Distributed PME against exact Ewald: the same app with the structure-
/// factor solver at the same alpha and r_cut but a converged wavenumber
/// cutoff (s2 = 3.8, the PME suite's reference accuracy), so the two runs
/// differ only in the k-space method. Run on a seeded displaced lattice (on
/// the perfect lattice every force is zero). Forces are read from one
/// velocity-Verlet step, x1 - x0 - v0 dt = F0 dt^2 / 2m, relative to the
/// total force; the step-0 potential energies are compared directly.
void check_pme(std::uint64_t seed, Report& report) {
  ParticleSystem system = initial_system(seed);
  Random rng(seed + 17);
  for (auto& r : system.positions())
    r += Vec3{rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
              rng.uniform(-0.2, 0.2)};
  system.wrap_positions();
  const double box = system.box();
  std::vector<std::vector<Vec3>> residual;
  std::vector<double> potential;
  for (const auto solver :
       {host::KspaceSolver::kStructureFactor, host::KspaceSolver::kPme}) {
    auto config = app_config(system, 1, solver);
    if (solver == host::KspaceSolver::kStructureFactor)
      config.ewald.lk_cut = 3.8 * config.ewald.alpha / std::numbers::pi;
    host::MdmParallelApp app(config);
    const host::ParallelRunResult run = app.run(system);
    std::vector<Vec3> d(system.size());
    for (std::size_t i = 0; i < system.size(); ++i) {
      Vec3 dx = run.positions[i] - system.positions()[i];
      dx.x -= box * std::round(dx.x / box);
      dx.y -= box * std::round(dx.y / box);
      dx.z -= box * std::round(dx.z / box);
      d[i] = dx - kDtFs * system.velocities()[i];
    }
    residual.push_back(std::move(d));
    potential.push_back(run.samples.front().potential_eV);
  }
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < system.size(); ++i) {
    err += norm2(residual[1][i] - residual[0][i]);
    scale += norm2(residual[0][i]);
  }
  const double force_rel = std::sqrt(err / scale);
  const double energy_rel =
      std::fabs(potential[1] - potential[0]) / std::fabs(potential[0]);
  report.check("pme_forces_vs_ewald", force_rel < kPmeTolerance,
               "rms rel " + sci(force_rel) + " < " + sci(kPmeTolerance));
  report.check("pme_energy_vs_ewald", energy_rel < kPmeTolerance,
               "rel " + sci(energy_rel) + " < " + sci(kPmeTolerance));
}

double rank_mean_per_step(const char* field, double calls) {
  double sum = 0.0;
  for (int r = 0; r < kReal; ++r)
    sum += obs::Registry::global().gauge_value(
        "parallel.rank" + std::to_string(r) + "." + field);
  return sum / kReal / calls;
}

/// Serial native Simulation on the same N and Ewald parameters (structure
/// factor k-space), median step ms: the base of host.speedup_vs_serial.
double serial_native_step_ms(std::uint64_t seed, double seconds) {
  ParticleSystem system = initial_system(seed);
  native::NativeForceFieldConfig nc;
  nc.ewald = host::mdm_parameters(double(system.size()), system.box());
  native::NativeForceField field(nc, system.box());
  SimulationConfig protocol;
  protocol.nvt_steps = 0;
  protocol.nve_steps = 1 << 30;
  Simulation sim(system, field, protocol);
  sim.run_nve(2);
  std::vector<double> step_ms;
  const double t_end = now_s() + seconds;
  while (now_s() < t_end || step_ms.size() < 5) {
    const double t0 = now_s();
    sim.run_nve(1);
    step_ms.push_back((now_s() - t0) * 1e3);
  }
  return median(step_ms);
}

struct Runs {
  std::vector<double> rate;     ///< particle-steps/s per run
  std::vector<double> wall_ms;  ///< whole-run wall time (the job)
  double worst_drift = 0.0;
};

/// Per-step layer rows summed over traced runs (divide by `runs`).
struct Layers {
  double halo = 0, real = 0, kspace = 0, migrate = 0, messages = 0,
         rank_step = 0;
  int runs = 0;
};

void one_run(std::uint64_t seed, double setup_s, double n, Runs& runs) {
  host::ParallelRunResult result;
  const double wall = timed_run(seed, kRunSteps, &result);
  runs.rate.push_back(n * kRunSteps / (wall - setup_s));
  runs.wall_ms.push_back(wall * 1e3);
  runs.worst_drift = std::max(runs.worst_drift, nve_drift(result.samples));
}

/// A run with runtime spans on, reading the rank gauges (they hold the
/// last run's accumulators), vmpi.messages_sent and the rank.step spans.
void traced_run(std::uint64_t seed, double setup_s, double n, Runs& runs,
                Layers& layers) {
  auto& reg = obs::Registry::global();
  const std::uint64_t msgs0 = reg.counter_value("vmpi.messages_sent");
  obs::Trace::clear();
  obs::Trace::set_enabled(true);
  one_run(seed, setup_s, n, runs);
  obs::Trace::set_enabled(false);
  const double force_calls = kRunSteps + 1;  // step-0 forces included
  layers.halo += rank_mean_per_step("halo_ms", force_calls);
  layers.real += rank_mean_per_step("mdgrape_ms", force_calls);
  layers.kspace += rank_mean_per_step("wine_ms", force_calls);
  layers.migrate += rank_mean_per_step("migrate_ms", kRunSteps);
  layers.messages +=
      double(reg.counter_value("vmpi.messages_sent") - msgs0) / kRunSteps;
  for (const auto& s : obs::Trace::summarize(0))
    if (s.name == "rank.step" && s.count > 0)
      layers.rank_step += double(s.total_ns) / double(s.count) * 1e-6;
  obs::Trace::clear();
  ++layers.runs;
}

}  // namespace

void run_parallel_pme_512(const Options& options, Report& report) {
  const ParticleSystem probe_system = initial_system(options.seed);
  const double n = double(probe_system.size());
  const auto config =
      app_config(probe_system, kRunSteps, host::KspaceSolver::kPme);
  report.info("N", n);
  report.info("backend", "native");
  report.info("solver", "pme");
  report.info("pme_grid", double(config.pme.grid));
  report.info("pme_order", double(config.pme.order));
  report.info("real_x_wn", std::to_string(kReal) + "x" +
                               std::to_string(kWavenumber));
  report.info("threads", double(kReal + kWavenumber));
  report.info("steps_per_run", double(kRunSteps));
  report.info("setup_reps", double(kSetupReps));

  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep)
    setup.push_back(timed_run(options.seed, 0, nullptr));
  const double setup_s = median(setup);
  check_pme(options.seed, report);

  // Untraced runs; in the traced mode every other run is traced, so
  // machine drift hits both sets alike and their ratio is the overhead.
  Runs runs, traced;
  Layers layers;
  const double t_end = now_s() + options.seconds;
  do {
    one_run(options.seed, setup_s, n, runs);
    if (options.trace) traced_run(options.seed, setup_s, n, traced, layers);
  } while (now_s() < t_end || runs.rate.size() < kMinRuns);
  report.operations(static_cast<long long>(runs.rate.size() +
                                           traced.rate.size()),
                    0);
  if (!options.trace) {
    report.metric("particle_steps_per_s", median(runs.rate));
    report.metric("setup_s", setup_s);
    report.latency(runs.wall_ms, 0.5, false);
    report.metric("peak_rss_mb", self_peak_rss_mb());
  } else {
    report.latency(traced.wall_ms, 0.5, true);
    runs.worst_drift = std::max(runs.worst_drift, traced.worst_drift);
    const double k = 1.0 / layers.runs;
    const double halo = layers.halo * k, real = layers.real * k,
                 kspace = layers.kspace * k, migrate = layers.migrate * k,
                 rank_step_ms = layers.rank_step * k;
    const double rows = halo + real + kspace + migrate;
    const double step_ms = n / median(traced.rate) * 1e3;
    report.metric("host.halo_ms", halo);
    report.metric("host.real_ms", real);
    report.metric("host.kspace_ms", kspace);
    report.metric("host.migrate_ms", migrate);
    report.metric("vmpi.messages_per_step", layers.messages * k);
    report.metric("core.integrate_ms", std::max(0.0, rank_step_ms - rows));
    report.metric("trace.step_coverage", rows / rank_step_ms);
    report.metric("trace.overhead_pct",
                  (median(runs.rate) / median(traced.rate) - 1.0) * 100.0);

    // Real-space pairs of the one-sided rank sweeps: every in-cutoff pair
    // is evaluated from both ends.
    CellList cells(probe_system.box(), config.ewald.r_cut);
    cells.build(probe_system.positions());
    double pairs = 0;
    cells.for_each_pair_within(probe_system.positions(), config.ewald.r_cut,
                               [&](auto, auto, const Vec3&, double) {
                                 pairs += 2;
                               });
    report.metric("native.real_ms", real * kReal);
    report.metric("native.pairs_per_step", pairs);
    report.metric("native.ns_per_pair", real * kReal * 1e6 / pairs);

    const double serial_ms = serial_native_step_ms(options.seed, 1.0);
    report.metric("host.speedup_vs_serial", serial_ms / step_ms);
    report.metric("setup.first_force_s", setup_s);
    std::printf("layers: rank step %.3f ms: halo %.3f real %.3f kspace(compute"
                "+wait) %.3f migrate %.3f ms (coverage %.3f); serial native "
                "step %.3f ms\n",
                rank_step_ms, halo, real, kspace, migrate, rows / rank_step_ms,
                serial_ms);
  }
  check_nve_drift(report, runs.worst_drift, kRunSteps);
}

}  // namespace perfbench

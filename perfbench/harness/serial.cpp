// Serial workloads: one Simulation stepping on one thread, timed per step
// through the public Simulation::run_nve call.

#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/cell_list.hpp"
#include "core/force_field.hpp"
#include "core/lattice.hpp"
#include "core/simulation.hpp"
#include "core/tosi_fumi.hpp"
#include "ewald/ewald.hpp"
#include "ewald/flops.hpp"
#include "ewald/kvectors.hpp"
#include "ewald/parameters.hpp"
#include "host/mdm_force_field.hpp"
#include "mdgrape2/api.hpp"
#include "mdgrape2/gtables.hpp"
#include "native/native_force_field.hpp"
#include "obs/trace.hpp"
#include "wine2/api.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mdm;

constexpr double kTemperatureK = 1200.0;
constexpr int kWarmupSteps = 2;
constexpr int kMinSteps = 8;
constexpr int kSetupReps = 5;

/// Forwards to the wrapped field; while `timing` is set it records the
/// wall time of each add_forces call (the force call inside Simulation).
class TimedField final : public ForceField {
 public:
  explicit TimedField(ForceField& inner) : inner_(inner) {}
  ForceResult add_forces(const ParticleSystem& system,
                         std::span<Vec3> forces) override {
    if (!timing) return inner_.add_forces(system, forces);
    const double t0 = now_s();
    const ForceResult r = inner_.add_forces(system, forces);
    last_ms = (now_s() - t0) * 1e3;
    return r;
  }
  std::string name() const override { return inner_.name(); }
  void invalidate_caches() override { inner_.invalidate_caches(); }

  bool timing = false;
  double last_ms = 0.0;

 private:
  ForceField& inner_;
};

struct SerialCase {
  int cells;
  Backend backend;
};

EwaldParameters parameters_for(const SerialCase& c,
                               const ParticleSystem& system) {
  const double n = double(system.size());
  return c.backend == Backend::kNative
             ? software_parameters(n, system.box())
             : host::mdm_parameters(n, system.box());
}

/// The same field construction as serve::run_job (native) or the paper
/// machine (emulator); no pool, so every loop runs on the calling thread.
std::unique_ptr<ForceField> make_field(const SerialCase& c,
                                       const EwaldParameters& params,
                                       double box) {
  if (c.backend == Backend::kNative) {
    native::NativeForceFieldConfig nc;
    nc.ewald = params;
    nc.tf_shift_energy = true;
    return std::make_unique<native::NativeForceField>(nc, box);
  }
  host::MdmForceFieldConfig mc;
  mc.ewald = params;
  return std::make_unique<host::MdmForceField>(mc, box);
}

struct Instance {
  std::unique_ptr<ParticleSystem> system;
  EwaldParameters params;
  std::unique_ptr<ForceField> field;
  std::unique_ptr<TimedField> timed;
  std::unique_ptr<Simulation> sim;
  double build_s = 0, tables_s = 0, first_force_s = 0;
  double total_s() const { return build_s + tables_s + first_force_s; }
};

/// System construction -> force field (k-vector tables, WINE-2 wave load)
/// -> first forces (Simulation primed; emulator G-tables are built here).
Instance set_up(const SerialCase& c, std::uint64_t seed) {
  Instance in;
  const double t0 = now_s();
  in.system = std::make_unique<ParticleSystem>(make_nacl_crystal(c.cells));
  assign_maxwell_velocities(*in.system, kTemperatureK, seed);
  const double t1 = now_s();
  in.params = parameters_for(c, *in.system);
  in.field = make_field(c, in.params, in.system->box());
  const double t2 = now_s();
  in.timed = std::make_unique<TimedField>(*in.field);
  SimulationConfig protocol;
  protocol.temperature_K = kTemperatureK;
  protocol.nvt_steps = 0;
  protocol.nve_steps = 1 << 30;
  in.sim = std::make_unique<Simulation>(*in.system, *in.timed, protocol);
  in.sim->run_nve(0);
  const double t3 = now_s();
  in.build_s = t1 - t0;
  in.tables_s = t2 - t1;
  in.first_force_s = t3 - t2;
  return in;
}

double rms_rel_error(const std::vector<Vec3>& test,
                     const std::vector<Vec3>& ref) {
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err += norm2(test[i] - ref[i]);
    scale += norm2(ref[i]);
  }
  return std::sqrt(err / scale);
}

/// Forces of the workload's field against the double-precision reference
/// (Ewald + Tosi-Fumi, same parameters) on the first timed configuration;
/// the step-0 lattice itself has zero forces by symmetry.
void check_forces(const SerialCase& c, Instance& in, Report& report) {
  const ParticleSystem& system = *in.system;
  std::vector<Vec3> got(system.size()), ref(system.size());
  evaluate_forces(*in.field, system, got);
  EwaldCoulomb reference(in.params, system.box());
  TosiFumiShortRange short_range(TosiFumiParameters::nacl(), in.params.r_cut,
                                 /*shift_energy=*/true);
  std::vector<Vec3> tf(system.size());
  evaluate_forces(reference, system, ref);
  evaluate_forces(short_range, system, tf);
  for (std::size_t i = 0; i < ref.size(); ++i) ref[i] += tf[i];
  const double err = rms_rel_error(got, ref);
  if (c.backend == Backend::kNative) {
    report.check("native_forces_vs_ewald", err < 1e-10,
                 "rms rel " + sci(err) + " < 1e-10 (rounding)");
    return;
  }
  report.check("emulator_forces_vs_ewald", err < 5e-4,
               "rms rel " + sci(err) + " < 5e-4 (machine envelope)");
  // WINE-2 alone, through the library call, against the reference
  // wavenumber part. The paper gives "about 10^-4.5" (sec. 3.4.4); per
  // configuration the emulator reads 1.8e-5 to 3.2e-5, straddling
  // 10^-4.5 = 3.16e-5, so the bound sits half a decade above it.
  std::vector<Vec3> wn_ref(system.size()), wn_hw(system.size());
  reference.add_wavenumber_space(system, wn_ref);
  std::vector<double> charges(system.size());
  for (std::size_t i = 0; i < system.size(); ++i)
    charges[i] = system.charge(i);
  wine2::Wine2Library wine;
  wine.wine2_allocate_board(140);
  wine.wine2_initialize_board();
  wine.wine2_set_nn(system.size());
  wine.calculate_force_and_pot_wavepart_nooffset(
      system.positions(), charges, system.box(), reference.kvectors(), wn_hw);
  const double wn_err = rms_rel_error(wn_hw, wn_ref);
  report.check("wine2_forces_vs_ewald", wn_err < 1e-4,
               "rms rel " + sci(wn_err) + " < 1e-4 (paper: about 10^-4.5)");
}

/// Times the workload's two force layers on a configuration through their
/// public calls, on objects separate from the simulated field.
class LayerTimer {
 public:
  virtual ~LayerTimer() = default;
  /// Wall ms of the two layers on `system`.
  virtual std::array<double, 2> time(const ParticleSystem& system) = 0;
};

/// NativeForceField::add_real_space and add_wavenumber_space on a second
/// field of the same configuration.
class NativeLayers final : public LayerTimer {
 public:
  NativeLayers(const SerialCase& c, const Instance& in)
      : field_(make_field(c, in.params, in.system->box())),
        forces_(in.system->size()) {}
  std::array<double, 2> time(const ParticleSystem& system) override {
    auto& nat = static_cast<native::NativeForceField&>(*field_);
    const double t0 = now_s();
    nat.add_real_space(system, forces_);
    const double t1 = now_s();
    nat.add_wavenumber_space(system, forces_);
    return {(t1 - t0) * 1e3, (now_s() - t1) * 1e3};
  }

 private:
  std::unique_ptr<ForceField> field_;
  std::vector<Vec3> forces_;
};

/// The paper-named library calls for every pass MdmForceField runs per
/// step: MR1SetTable + MR1calcvdw_block2 / MR1calcpot_block2 on MDGRAPE-2,
/// calculate_force_and_pot_wavepart_nooffset on WINE-2.
class MachineLayers final : public LayerTimer {
 public:
  explicit MachineLayers(const Instance& in)
      : params_(in.params),
        box_(in.system->box()),
        kvectors_(box_, params_.alpha, params_.lk_cut),
        forces_(in.system->size()),
        potentials_(in.system->size()),
        charges_(in.system->size()) {
    const ParticleSystem& system = *in.system;
    const double beta = params_.alpha / box_;
    std::vector<double> species_q(system.species_count());
    for (int t = 0; t < system.species_count(); ++t)
      species_q[t] = system.species(t).charge;
    force_passes_.push_back(
        mdgrape2::make_coulomb_real_pass(beta, params_.r_cut, species_q));
    pot_passes_.push_back(mdgrape2::make_coulomb_real_potential_pass(
        beta, params_.r_cut, species_q));
    for (auto& p : mdgrape2::make_tosi_fumi_passes(TosiFumiParameters::nacl(),
                                                   params_.r_cut))
      force_passes_.push_back(std::move(p));
    for (auto& p : mdgrape2::make_tosi_fumi_potential_passes(
             TosiFumiParameters::nacl(), params_.r_cut))
      pot_passes_.push_back(std::move(p));
    for (std::size_t i = 0; i < system.size(); ++i)
      charges_[i] = system.charge(i);
    mr1_.MR1allocateboard(32);
    mr1_.MR1init();
    wine_.wine2_allocate_board(140);
    wine_.wine2_initialize_board();
    wine_.wine2_set_nn(system.size());
  }
  ~MachineLayers() override {
    mr1_.MR1free();
    wine_.wine2_free_board();
  }
  MachineLayers(const MachineLayers&) = delete;
  MachineLayers& operator=(const MachineLayers&) = delete;

  std::array<double, 2> time(const ParticleSystem& system) override {
    const double t0 = now_s();
    for (const auto& p : force_passes_) {
      mr1_.MR1SetTable(p);
      mr1_.MR1calcvdw_block2(system, params_.r_cut, forces_);
    }
    for (const auto& p : pot_passes_) {
      mr1_.MR1SetTable(p);
      mr1_.MR1calcpot_block2(system, params_.r_cut, potentials_);
    }
    const double t1 = now_s();
    wine_.calculate_force_and_pot_wavepart_nooffset(
        system.positions(), charges_, box_, kvectors_, forces_);
    return {(t1 - t0) * 1e3, (now_s() - t1) * 1e3};
  }

 private:
  EwaldParameters params_;
  double box_;
  KVectorTable kvectors_;
  std::vector<Vec3> forces_;
  std::vector<double> potentials_;
  std::vector<double> charges_;
  std::vector<mdgrape2::ForcePass> force_passes_, pot_passes_;
  mdgrape2::MR1Library mr1_;
  wine2::Wine2Library wine_;
};

struct LoopResult {
  std::vector<double> step_ms;         ///< untraced steps
  std::vector<double> traced_step_ms;  ///< traced steps
  std::vector<double> force_ms;        ///< force call of each traced step
  std::array<std::vector<double>, 2> layer_ms;  ///< layers after each
};

/// Steps one at a time for `seconds`, after the warm-up, recording each
/// step's wall time. With `layers`, every other step runs traced (runtime
/// spans on, force call timed) and is followed by a timing of the layers
/// on the configuration it produced. Drift during the window then hits
/// traced and untraced steps alike, so their ratio is the tracing
/// overhead, and each traced step is paired with its own layer rows.
LoopResult step_loop(Instance& in, double seconds, LayerTimer* layers) {
  LoopResult out;
  bool traced = false;
  const double t_end = now_s() + seconds;
  do {
    if (layers) {
      traced = !traced;
      obs::Trace::set_enabled(traced);
      in.timed->timing = traced;
    }
    const double t0 = now_s();
    in.sim->run_nve(1);
    const double ms = (now_s() - t0) * 1e3;
    if (traced) {
      out.traced_step_ms.push_back(ms);
      out.force_ms.push_back(in.timed->last_ms);
      obs::Trace::set_enabled(false);
      const auto rows = layers->time(*in.system);
      out.layer_ms[0].push_back(rows[0]);
      out.layer_ms[1].push_back(rows[1]);
    } else {
      out.step_ms.push_back(ms);
    }
  } while (now_s() < t_end || out.step_ms.size() < kMinSteps);
  obs::Trace::set_enabled(false);
  in.timed->timing = false;
  return out;
}

/// Candidate pairs a 27-cell half-stencil sweep examines (cells >= r_cut),
/// and the pairs actually inside r_cut.
struct PairCounts {
  double evaluated = 0;
  double in_cutoff = 0;
};

PairCounts count_pairs(const ParticleSystem& system, double r_cut) {
  PairCounts out;
  CellList cells(system.box(), r_cut);
  cells.build(system.positions());
  cells.for_each_pair_within(system.positions(), r_cut,
                             [&](auto, auto, const Vec3&, double) {
                               out.in_cutoff += 1;
                             });
  const double n = double(system.size());
  if (cells.use_n2_fallback(r_cut)) {
    out.evaluated = n * (n - 1) / 2;
    return out;
  }
  const int m = cells.cells_per_side();
  for (int iz = 0; iz < m; ++iz)
    for (int iy = 0; iy < m; ++iy)
      for (int ix = 0; ix < m; ++ix) {
        const double own = cells.cell_range(cells.cell_index(ix, iy, iz)).size();
        out.evaluated += own * (own - 1) / 2;
        for (const auto& off : CellList::kHalfStencil)
          out.evaluated +=
              own * cells.cell_range(cells.cell_index(ix + off[0], iy + off[1],
                                                      iz + off[2]))
                        .size();
      }
  return out;
}

/// Operation counts of the native real-space layer on `system`.
void native_counts(const Instance& in, double real_ms, double fma_gflops,
                   Report& report) {
  const ParticleSystem& system = *in.system;
  const PairCounts pairs = count_pairs(system, in.params.r_cut);
  const double n = double(system.size());
  const double optimal = n * n_int(n, system.box(), in.params.r_cut);
  const double gflops =
      OperationCounts::kRealPair * pairs.in_cutoff / (real_ms * 1e-3) * 1e-9;
  report.metric("native.pairs_per_step", pairs.in_cutoff);
  report.metric("native.ns_per_pair", real_ms * 1e6 / pairs.in_cutoff);
  report.metric("native.useful_pair_ratio", optimal / pairs.evaluated);
  report.metric("native.real_gflops", gflops);
  report.metric("native.real_frac_of_peak", gflops / fma_gflops);
}

void run_serial(const SerialCase& c, const Options& options,
                Report& report) {
  std::vector<double> setup_s, build_s, tables_s, first_s;
  Instance in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in = Instance{};  // release the previous instance before timing anew
    in = set_up(c, options.seed);
    setup_s.push_back(in.total_s());
    build_s.push_back(in.build_s);
    tables_s.push_back(in.tables_s);
    first_s.push_back(in.first_force_s);
  }
  const double n = double(in.system->size());
  report.info("N", n);
  report.info("backend", to_string(c.backend));
  report.info("solver", "ewald-sf");
  report.info("threads", 1.0);
  report.info("ewald_alpha", in.params.alpha);
  report.info("ewald_r_cut_A", in.params.r_cut);
  report.info("setup_reps", double(kSetupReps));
  auto* machine = dynamic_cast<host::MdmForceField*>(in.field.get());
  for (int s = 0; s < kWarmupSteps; ++s) in.sim->run_nve(1);
  check_forces(c, in, report);

  const std::uint64_t ops0 = machine ? machine->mdgrape_pair_operations() : 0;
  const std::uint64_t wave0 =
      machine ? machine->wine_wave_particle_operations() : 0;
  std::unique_ptr<LayerTimer> layers;
  if (options.trace) {
    if (machine)
      layers = std::make_unique<MachineLayers>(in);
    else
      layers = std::make_unique<NativeLayers>(c, in);
  }
  const LoopResult loop = step_loop(in, options.seconds, layers.get());
  const double steps = double(loop.step_ms.size() + loop.traced_step_ms.size());
  report.operations(static_cast<long long>(steps), 0);
  if (!options.trace) {
    // Sustained rate and latency: the step time 9 in 10 steps meet. Single
    // steps are shorter than the machine's speed phases, so the per-run
    // median moves with the phase mix while the p90 sits in the slow phase
    // every run sees (README.md, "Steadiness").
    report.info("step_ms_q1", quantile(loop.step_ms, 0.25));
    report.info("step_ms_q3", quantile(loop.step_ms, 0.75));
    report.info("particle_steps_per_s_at_median",
                n / (median(loop.step_ms) * 1e-3));
    report.metric("particle_steps_per_s",
                  n / (quantile(loop.step_ms, 0.9) * 1e-3));
    report.metric("setup_s", median(setup_s));
    report.latency(loop.step_ms, 0.9, false);
  } else {
    // Per traced step: integrate = step - force call, and coverage =
    // (layer rows timed on that step's configuration + integrate) / step.
    std::vector<double> integrate_ms, coverage;
    for (std::size_t i = 0; i < loop.traced_step_ms.size(); ++i) {
      const double step = loop.traced_step_ms[i];
      integrate_ms.push_back(step - loop.force_ms[i]);
      coverage.push_back((loop.layer_ms[0][i] + loop.layer_ms[1][i] +
                          integrate_ms.back()) /
                         step);
    }
    const double row0 = median(loop.layer_ms[0]);
    const double row1 = median(loop.layer_ms[1]);
    report.latency(loop.traced_step_ms, 0.9, true);
    report.metric("core.integrate_ms", median(integrate_ms));
    report.metric("trace.overhead_pct",
                  (median(loop.traced_step_ms) / median(loop.step_ms) - 1.0) *
                      100.0);
    report.metric("trace.step_coverage", median(coverage));
    if (machine) {
      const double n_int_opt =
          n * n_int(n, in.system->box(), in.params.r_cut);
      const double pair_ops =
          double(machine->mdgrape_pair_operations() - ops0) / steps;
      report.metric("mdgrape2.ms", row0);
      report.metric("mdgrape2.pair_ops_per_step", pair_ops);
      report.metric("mdgrape2.ops_over_optimal", pair_ops / n_int_opt);
      report.metric("wine2.ms", row1);
      report.metric("wine2.wave_particle_ops_per_step",
                    double(machine->wine_wave_particle_operations() - wave0) /
                        steps);
    } else {
      report.metric("native.real_ms", row0);
      report.metric("native.kspace_ms", row1);
      native_counts(in, row0, options.fma_gflops, report);
    }
    report.metric("setup.build_s", median(build_s));
    report.metric("setup.tables_s", median(tables_s));
    report.metric("setup.first_force_s", median(first_s));
    std::printf("layers: step %.3f ms, %s %.3f + %.3f ms, integrate %.3f ms, "
                "coverage %.3f (median over %zu traced steps)\n",
                median(loop.traced_step_ms),
                machine ? "mdgrape2 + wine2" : "native real + kspace", row0,
                row1, median(integrate_ms), median(coverage),
                loop.traced_step_ms.size());
  }

  check_nve_drift(report, in.sim->nve_energy_drift(),
                  double(in.sim->samples().size() - 1));
  report.metric("peak_rss_mb", self_peak_rss_mb());
}

}  // namespace

void run_melt_native_4k(const Options& options, Report& report) {
  run_serial({.cells = 8, .backend = Backend::kNative}, options, report);
}

void run_machine_emulated_512(const Options& options, Report& report) {
  run_serial({.cells = 4, .backend = Backend::kEmulator}, options, report);
}

}  // namespace perfbench

#include "host/mdm_force_field.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "mdgrape2/gtables.hpp"
#include "obs/step_breakdown.hpp"
#include "obs/trace.hpp"
#include "util/units.hpp"

namespace mdm::host {

EwaldParameters mdm_parameters(double n_particles, double box,
                               const EwaldAccuracy& accuracy) {
  const double alpha = std::max(balanced_alpha(n_particles, accuracy),
                                3.001 * accuracy.s1);
  return clamp_to_box(parameters_from_alpha(alpha, box, accuracy), box);
}

MdmForceField::MdmForceField(MdmForceFieldConfig config, double box)
    : config_(config),
      box_(box),
      kvectors_(box, config.ewald.alpha, config.ewald.lk_cut),
      mdgrape_(config.mdgrape),
      wine_(config.wine) {
  if (config_.potential_interval < 1)
    throw std::invalid_argument("MdmForceField: potential_interval >= 1");
  if (config_.ewald.r_cut * 3.0 > box * config_.mdgrape.cell_margin + 1e-9)
    throw std::invalid_argument(
        "MdmForceField: the MDGRAPE-2 cell-index method needs box >= 3 r_cut "
        "(use mdm_parameters to pick alpha)");
  wine_.load_waves(kvectors_);
}

void MdmForceField::build_passes(const ParticleSystem& system) {
  // Host-side table generation (the sec. 4 utility program).
  obs::ScopedPhase host_phase(obs::Phase::kHost);
  const double beta = config_.ewald.alpha / box_;
  std::vector<double> charges(system.species_count());
  for (int t = 0; t < system.species_count(); ++t)
    charges[t] = system.species(t).charge;

  coulomb_force_pass_ = mdgrape2::make_coulomb_real_pass(
      beta, config_.ewald.r_cut, charges);
  coulomb_potential_pass_ = mdgrape2::make_coulomb_real_potential_pass(
      beta, config_.ewald.r_cut, charges);
  if (config_.include_tosi_fumi) {
    tf_force_passes_ =
        mdgrape2::make_tosi_fumi_passes(config_.tosi_fumi,
                                        config_.ewald.r_cut);
    tf_potential_passes_ = mdgrape2::make_tosi_fumi_potential_passes(
        config_.tosi_fumi, config_.ewald.r_cut);
  }
  passes_built_ = true;
}

ForceResult MdmForceField::add_forces(const ParticleSystem& system,
                                      std::span<Vec3> forces) {
  if (forces.size() != system.size())
    throw std::invalid_argument("MdmForceField: force array size mismatch");
  if (std::fabs(system.box() - box_) > 1e-12)
    throw std::invalid_argument("MdmForceField: box mismatch");
  if (!passes_built_) build_passes(system);

  // 1. Host -> MDGRAPE-2: upload particle image, run the force passes and,
  //    on sampling steps, the potential passes, all in one sweep. The
  //    expensive potential passes run every `potential_interval`
  //    evaluations (sec. 5 samples the potential every 100 steps); in
  //    between the cached values are reported.
  const bool sample_potential =
      evaluations_ % config_.potential_interval == 0;
  ++evaluations_;
  mdgrape_.load_particles(system, config_.ewald.r_cut);
  targets_.clear();
  targets_.push_back({&coulomb_force_pass_, forces, {}});
  for (const auto& pass : tf_force_passes_)
    targets_.push_back({&pass, forces, {}});
  if (sample_potential) {
    per_particle_scratch_.assign(system.size(), 0.0);
    short_range_scratch_.assign(system.size(), 0.0);
    targets_.push_back({&coulomb_potential_pass_, {}, per_particle_scratch_});
    for (const auto& pass : tf_potential_passes_)
      targets_.push_back({&pass, {}, short_range_scratch_});
  }
  mdgrape_.run_passes(targets_);

  // 2. Host -> WINE-2: DFT then IDFT (eqs. 9-11).
  charges_scratch_.resize(system.size());
  {
    obs::ScopedPhase host_phase(obs::Phase::kHost);
    for (std::size_t i = 0; i < system.size(); ++i)
      charges_scratch_[i] = system.charge(i);
  }
  wine_.set_particles(system.positions(), charges_scratch_, box_);
  const auto& sf = wine_.run_dft();
  wine_.run_idft(sf, forces);

  // 3. Host-side energies.
  if (sample_potential) {
    double real = 0.0, short_range = 0.0;
    for (const double p : per_particle_scratch_) real += p;
    for (const double p : short_range_scratch_) short_range += p;
    potential_.real_space = 0.5 * real;  // both-sides double counting
    potential_.short_range = 0.5 * short_range;
  }
  // The wavenumber energy is a cheap host-side sum over the structure
  // factors, so it is refreshed every step.
  obs::ScopedPhase host_phase(obs::Phase::kHost);
  MDM_TRACE_SCOPE("mdm.host_energies");
  potential_.wavenumber = wine_.reciprocal_energy(sf);
  const double beta = config_.ewald.alpha / box_;
  potential_.self_energy = -units::kCoulomb * beta /
                           std::sqrt(std::numbers::pi) *
                           system.total_charge_squared();
  const double q_total = system.total_charge();
  potential_.background = -units::kCoulomb * std::numbers::pi /
                          (2.0 * beta * beta * box_ * box_ * box_) *
                          q_total * q_total;

  ForceResult result;
  result.potential = potential_.total();
  result.virial = 0.0;  // not produced by the hardware
  return result;
}

std::uint64_t MdmForceField::mdgrape_pair_operations() const {
  return mdgrape_.pair_operations();
}

std::uint64_t MdmForceField::wine_wave_particle_operations() const {
  return wine_.wave_particle_ops();
}

}  // namespace mdm::host

#pragma once

/// \file mdm_force_field.hpp
/// The MDM as a force provider: the host-side orchestration of one time
/// step's force calculation (sec. 3.1). Positions are shipped to both
/// simulated backends; MDGRAPE-2 evaluates the real-space Coulomb and the
/// Tosi-Fumi short-range terms via g(x) table passes, WINE-2 evaluates the
/// wavenumber-space Coulomb part via DFT/IDFT, and the host adds the Ewald
/// self/background energies.
///
/// This is the *single-process* orchestration used by the Simulation driver
/// and the benches; the 16+8-process MPI application of sec. 4 lives in
/// parallel_app.hpp and produces the same forces.

#include <cstdint>
#include <memory>
#include <optional>

#include "core/force_field.hpp"
#include "core/tosi_fumi.hpp"
#include "ewald/ewald.hpp"
#include "ewald/parameters.hpp"
#include "mdgrape2/system.hpp"
#include "wine2/system.hpp"

namespace mdm::host {

struct MdmForceFieldConfig {
  EwaldParameters ewald;                 ///< paper-convention parameters
  bool include_tosi_fumi = true;         ///< NaCl short-range passes
  TosiFumiParameters tosi_fumi = TosiFumiParameters::nacl();
  mdgrape2::SystemConfig mdgrape{};      ///< real-space machine
  wine2::SystemConfig wine{};            ///< wavenumber machine
  /// Evaluate the potential-energy passes every k force evaluations
  /// (the paper samples the potential every 100 steps; 1 = every step).
  int potential_interval = 1;
};

/// Ewald parameters suitable for the MDM simulators: the cell-index board
/// needs box >= 3 r_cut, so alpha >= 3 s1 in addition to the software
/// balance.
EwaldParameters mdm_parameters(double n_particles, double box,
                               const EwaldAccuracy& accuracy = {});

class MdmForceField final : public ForceField {
 public:
  MdmForceField(MdmForceFieldConfig config, double box);

  ForceResult add_forces(const ParticleSystem& system,
                         std::span<Vec3> forces) override;
  std::string name() const override { return "mdm-machine"; }

  /// The virial is not computed by the special-purpose hardware; pressure
  /// is unavailable on the MDM path (ForceResult.virial is 0).
  const MdmForceFieldConfig& config() const { return config_; }
  const KVectorTable& kvectors() const { return kvectors_; }

  /// Cumulative backend work counters (for the performance benches).
  std::uint64_t mdgrape_pair_operations() const;
  std::uint64_t wine_wave_particle_operations() const;

  /// Components of the most recent potential evaluation (eV).
  struct PotentialBreakdown {
    double real_space = 0.0;
    double wavenumber = 0.0;
    double self_energy = 0.0;
    double background = 0.0;
    double short_range = 0.0;
    double total() const {
      return real_space + wavenumber + self_energy + background + short_range;
    }
  };
  const PotentialBreakdown& last_potential() const { return potential_; }

  /// Forward a thread pool (nullptr = serial) to both simulated backends:
  /// MDGRAPE-2 fans out over boards and WINE-2 over chips/particles, all
  /// bit-identical to the serial passes at any pool size.
  void set_thread_pool(ThreadPool* pool) {
    mdgrape_.set_thread_pool(pool);
    wine_.set_thread_pool(pool);
  }

 private:
  void build_passes(const ParticleSystem& system);

  MdmForceFieldConfig config_;
  double box_;
  KVectorTable kvectors_;
  mdgrape2::Mdgrape2System mdgrape_;
  wine2::Wine2System wine_;

  bool passes_built_ = false;
  mdgrape2::ForcePass coulomb_force_pass_;
  mdgrape2::ForcePass coulomb_potential_pass_;
  std::vector<mdgrape2::ForcePass> tf_force_passes_;
  std::vector<mdgrape2::ForcePass> tf_potential_passes_;

  std::uint64_t evaluations_ = 0;
  PotentialBreakdown potential_;

  /// Per-step scratch, reused across steps (no steady-state allocations).
  std::vector<double> charges_scratch_;
  std::vector<double> per_particle_scratch_;
  std::vector<double> short_range_scratch_;
  std::vector<mdgrape2::PassTarget> targets_;
};

}  // namespace mdm::host

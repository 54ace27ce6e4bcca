#pragma once

/// \file particle_system.hpp
/// Structure-of-arrays particle container for a cubic periodic box. This is
/// the state shared by the MD engine, the reference Ewald solver and the
/// hardware simulators (which receive positions/charges/types from it, just
/// as the real MDM host streams particle data to the boards).

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/vec3.hpp"

namespace mdm {

/// Particle species; index doubles as the MDGRAPE-2 "atom type" (the chip
/// supports at most 32 types, enforced by the mdgrape2 module).
struct Species {
  std::string name;
  double mass = 0.0;    ///< amu
  double charge = 0.0;  ///< e
};

class ParticleSystem {
 public:
  /// Create an empty system in a cubic box of side `box` angstrom.
  explicit ParticleSystem(double box);

  /// Register a species; returns its type index.
  int add_species(Species s);

  /// Append a particle of species `type` (positions wrapped into the box).
  void add_particle(int type, const Vec3& position,
                    const Vec3& velocity = {});
  /// Remove every particle (species and capacity stay).
  void clear_particles();

  std::size_t size() const { return position_.size(); }
  double box() const { return box_; }
  /// Number density N / L^3 in 1/A^3.
  double number_density() const {
    return static_cast<double>(size()) / (box_ * box_ * box_);
  }

  std::span<Vec3> positions() { return position_; }
  std::span<const Vec3> positions() const { return position_; }
  std::span<Vec3> velocities() { return velocity_; }
  std::span<const Vec3> velocities() const { return velocity_; }
  std::span<const int> types() const { return type_; }

  const Species& species(int type) const { return species_.at(type); }
  int species_count() const { return static_cast<int>(species_.size()); }

  double charge(std::size_t i) const { return species_[type_[i]].charge; }
  double mass(std::size_t i) const { return species_[type_[i]].mass; }
  int type(std::size_t i) const { return type_[i]; }

  /// Sum of charges; 0 for any sane ionic system, asserted by Ewald.
  double total_charge() const;
  /// Sum of q_i^2, used by the Ewald self-energy.
  double total_charge_squared() const;

  /// Total linear momentum (amu * A/fs).
  Vec3 total_momentum() const;
  /// Kinetic energy in eV.
  double kinetic_energy() const;
  /// Instantaneous temperature in K; `remove_drift_dof` subtracts the three
  /// center-of-mass degrees of freedom (the convention used whenever the
  /// thermostat has zeroed total momentum).
  double temperature(bool remove_drift_dof = true) const;

  /// Remove center-of-mass velocity.
  void zero_momentum();

  /// Wrap every position back into [0, box)^3.
  void wrap_positions();

  /// Set the box edge without touching coordinates. Used by checkpoint
  /// restore of an NPT run whose volume drifted from the construction-time
  /// box; the caller is responsible for loading consistent positions.
  void set_box(double box);

  /// Isotropic volume change: multiply the box edge and every coordinate by
  /// `factor` (barostat couplings and Monte-Carlo volume moves). Velocities
  /// are untouched.
  void rescale(double factor);

 private:
  double box_;
  std::vector<Species> species_;
  std::vector<Vec3> position_;
  std::vector<Vec3> velocity_;
  std::vector<int> type_;
};

}  // namespace mdm

#include "core/particle_system.hpp"

#include <cmath>
#include <stdexcept>

#include "util/units.hpp"

namespace mdm {

ParticleSystem::ParticleSystem(double box) : box_(box) {
  if (!(box > 0.0)) throw std::invalid_argument("box side must be positive");
}

int ParticleSystem::add_species(Species s) {
  species_.push_back(std::move(s));
  return static_cast<int>(species_.size()) - 1;
}

void ParticleSystem::add_particle(int type, const Vec3& position,
                                  const Vec3& velocity) {
  if (type < 0 || type >= species_count())
    throw std::out_of_range("unknown species index");
  position_.push_back(wrap_position(position, box_));
  velocity_.push_back(velocity);
  type_.push_back(type);
}

void ParticleSystem::clear_particles() {
  position_.clear();
  velocity_.clear();
  type_.clear();
}

double ParticleSystem::total_charge() const {
  double q = 0.0;
  for (std::size_t i = 0; i < size(); ++i) q += charge(i);
  return q;
}

double ParticleSystem::total_charge_squared() const {
  double q2 = 0.0;
  for (std::size_t i = 0; i < size(); ++i) q2 += charge(i) * charge(i);
  return q2;
}

Vec3 ParticleSystem::total_momentum() const {
  Vec3 p;
  for (std::size_t i = 0; i < size(); ++i) p += mass(i) * velocity_[i];
  return p;
}

double ParticleSystem::kinetic_energy() const {
  // v in A/fs, m in amu: KE[eV] = 1/2 m v^2 / kAccelUnit.
  double twice_ke = 0.0;
  for (std::size_t i = 0; i < size(); ++i)
    twice_ke += mass(i) * norm2(velocity_[i]);
  return 0.5 * twice_ke / units::kAccelUnit;
}

double ParticleSystem::temperature(bool remove_drift_dof) const {
  const std::size_t n = size();
  if (n == 0) return 0.0;
  double dof = 3.0 * static_cast<double>(n);
  if (remove_drift_dof && n > 1) dof -= 3.0;
  return 2.0 * kinetic_energy() / (dof * units::kBoltzmann);
}

void ParticleSystem::zero_momentum() {
  if (size() == 0) return;
  double total_mass = 0.0;
  for (std::size_t i = 0; i < size(); ++i) total_mass += mass(i);
  const Vec3 v_cm = total_momentum() / total_mass;
  for (auto& v : velocity_) v -= v_cm;
}

void ParticleSystem::wrap_positions() {
  for (auto& r : position_) r = wrap_position(r, box_);
}

void ParticleSystem::set_box(double box) {
  if (!(box > 0.0)) throw std::invalid_argument("box side must be positive");
  box_ = box;
}

void ParticleSystem::rescale(double factor) {
  if (!(factor > 0.0))
    throw std::invalid_argument("rescale factor must be positive");
  box_ *= factor;
  for (auto& r : position_) r *= factor;
}

}  // namespace mdm

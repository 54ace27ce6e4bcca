#include "tree/barnes_hut.hpp"

#include <cmath>
#include <stdexcept>

#include "mdgrape2/gtables.hpp"
#include "util/units.hpp"

namespace mdm::tree {

double g_bare_coulomb_force(double x) { return 1.0 / (x * std::sqrt(x)); }

BarnesHutCoulomb::BarnesHutCoulomb(double theta, TreeConfig tree)
    : theta_(theta), tree_config_(tree) {
  if (!(theta >= 0.0)) throw std::invalid_argument("theta must be >= 0");
}

BarnesHutStats BarnesHutCoulomb::compute(std::span<const Vec3> positions,
                                         std::span<const double> charges,
                                         std::span<Vec3> forces) const {
  if (forces.size() != positions.size())
    throw std::invalid_argument("BarnesHut: force array size mismatch");
  const Octree tree(positions, charges, tree_config_);
  BarnesHutStats stats;
  stats.count = positions.size();

  std::vector<PseudoParticle> list;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    list.clear();
    tree.interaction_list(positions[i], theta_,
                          static_cast<std::uint32_t>(i), list);
    Vec3 f;
    double phi = 0.0;
    for (const auto& p : list) {
      const Vec3 d = positions[i] - p.position;
      const double r2 = norm2(d);
      if (r2 == 0.0) continue;
      const double r = std::sqrt(r2);
      f += (p.charge / (r2 * r)) * d;
      phi += p.charge / r;
    }
    forces[i] += (units::kCoulomb * charges[i]) * f;
    stats.potential += 0.5 * units::kCoulomb * charges[i] * phi;
    stats.interactions += list.size();
    stats.max_list = std::max(stats.max_list, list.size());
  }
  return stats;
}

BarnesHutStats BarnesHutCoulomb::compute_on_mdgrape(
    std::span<const Vec3> positions, std::span<const double> charges,
    mdgrape2::Chip& chip, std::span<Vec3> forces) const {
  if (forces.size() != positions.size())
    throw std::invalid_argument("BarnesHut: force array size mismatch");
  const Octree tree(positions, charges, tree_config_);
  BarnesHutStats stats;
  stats.count = positions.size();

  // Map the open system into a cyclic box large enough that no pair ever
  // wraps: the box is 4 root half-widths wide and everything is shifted to
  // its middle, so all separations stay below box/2.
  const auto& root = tree.root();
  const double box = 8.0 * root.half_width;
  const Vec3 offset =
      Vec3{box / 2, box / 2, box / 2} - root.center;

  // Bare 1/r^2 force table with per-pseudo-particle charges: b_ij = 1, the
  // host applies k_e q_i afterwards.
  mdgrape2::ForcePass pass;
  mdgrape2::TableConfig cfg;
  cfg.x_min = std::pow(root.half_width * 2e-4, 2);
  cfg.x_max = std::pow(2.0 * std::sqrt(3.0) * root.half_width * 1.01, 2);
  pass.table = mdgrape2::SegmentedTable::fit(g_bare_coulomb_force, cfg);
  pass.coefficients.species_count = 1;
  pass.coefficients.a[0][0] = 1.0;
  pass.coefficients.b[0][0] = 1.0;
  pass.use_particle_charge = true;
  chip.load_pass(std::move(pass));  // the chip outlives this call

  std::vector<PseudoParticle> list;
  std::vector<mdgrape2::StoredParticle> stream;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    list.clear();
    tree.interaction_list(positions[i], theta_,
                          static_cast<std::uint32_t>(i), list);
    stream.clear();
    stream.reserve(list.size());
    for (const auto& p : list) {
      mdgrape2::StoredParticle sp;
      sp.position = mdgrape2::to_cyclic(p.position + offset, box);
      sp.type = 0;
      sp.charge = static_cast<float>(p.charge);
      stream.push_back(sp);
    }
    mdgrape2::StoredParticle target;
    target.position = mdgrape2::to_cyclic(positions[i] + offset, box);
    target.type = 0;

    Vec3 f;
    chip.calc_forces({&target, 1}, stream, box, {&f, 1});
    forces[i] += (units::kCoulomb * charges[i]) * f;
    stats.interactions += list.size();
    stats.max_list = std::max(stats.max_list, list.size());
  }
  return stats;
}

}  // namespace mdm::tree

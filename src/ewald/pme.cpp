#include "ewald/pme.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/cell_list.hpp"
#include "core/fastmath.hpp"
#include "util/units.hpp"

namespace mdm {
namespace {

constexpr double kPi = std::numbers::pi;

}  // namespace

PmeParameters validated_pme(PmeParameters params, double box) {
  if (!(params.alpha > 0.0) || !(params.r_cut > 0.0))
    throw std::invalid_argument("SmoothPme: bad parameters");
  if (params.r_cut > 0.5 * box + 1e-12)
    throw std::invalid_argument("SmoothPme: r_cut must be <= L/2");
  if (params.order < 3 || params.order > pme::kMaxOrder)
    throw std::invalid_argument("SmoothPme: order must be in [3, 10]");
  if (!is_power_of_two(static_cast<std::size_t>(params.grid)))
    throw std::invalid_argument("SmoothPme: grid must be a power of two");
  if (params.grid < 2 * params.order)
    throw std::invalid_argument("SmoothPme: grid too small for the order");
  return params;
}

double bspline(int p, double x) { return pme::bspline(p, x); }

SmoothPme::SmoothPme(PmeParameters params, double box)
    : params_(validated_pme(params, box)),
      box_(box),
      beta_(params.alpha / box),
      real_cells_(box, params.r_cut) {
  const std::size_t k = static_cast<std::size_t>(params_.grid);
  mesh_.resize(k * k * k);
  spec_.resize(k * k * half_length(k));
  build_influence();
}

void SmoothPme::build_influence() {
  const int k = params_.grid;
  const int h = static_cast<int>(half_length(static_cast<std::size_t>(k)));
  const std::vector<double> b2 = pme::axis_b2(k, params_.order);
  influence_.assign(spec_.size(), 0.0);
  for (int nz = 0; nz < k; ++nz)
    for (int ny = 0; ny < k; ++ny)
      for (int nx = 0; nx < h; ++nx)
        influence_[(std::size_t(nz) * k + ny) * h + nx] =
            pme::influence_theta(nx, ny, nz, k, params_.alpha, b2);
}

double SmoothPme::add_reciprocal(const ParticleSystem& system,
                                 std::span<Vec3> forces) {
  const int k = params_.grid;
  const int p = params_.order;
  const std::size_t plane_size = static_cast<std::size_t>(k) * k;
  const auto positions = system.positions();
  const std::size_t n = system.size();

  spread_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    pme::spline_weights(positions[i], box_, k, p, spread_[i]);

  double* planes[pme::kMaxOrder];
  std::fill(mesh_.begin(), mesh_.end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const pme::SplineWeights& s = spread_[i];
    for (int jz = 0; jz < p; ++jz)
      planes[jz] = mesh_.data() + s.index[2][jz] * plane_size;
    pme::spread_particle(s, p, k, system.charge(i), planes);
  }

  // A(n) = F^-(Q)(n) = conj(F^+(Q)(n)) for real Q; the half spectrum holds
  // F^+(Q) for x frequencies 0..K/2.
  rfft3d(mesh_.data(), spec_.data(), static_cast<std::size_t>(k));

  // Energy E = (k_e / (2 pi L)) sum_n theta(n) |F^+(Q)(n)|^2 over the full
  // spectrum, then phi(k_grid) = (k_e / (pi L)) F^+(theta conj F^+(Q)),
  // which is real and equals the unscaled backward C2R of theta F^+(Q).
  double energy = pme::convolve_half(spec_.data(), influence_.data(),
                                     plane_size, k);
  energy *= units::kCoulomb / (2.0 * kPi * box_);
  irfft3d(spec_.data(), mesh_.data(), static_cast<std::size_t>(k));

  // Gather forces: F_i = -q_i sum_grid grad(w_i) phi, du/dx = K / L.
  // Analytic-differentiation SPME does not conserve momentum exactly (the
  // spline interpolation breaks Newton's third law at the mesh-error
  // level); the customary fix, applied below, subtracts the mean force.
  const double force_pref =
      units::kCoulomb / (kPi * box_) * static_cast<double>(k) / box_;
  recip_.resize(n);
  Vec3 net;
  for (std::size_t i = 0; i < n; ++i) {
    const pme::SplineWeights& s = spread_[i];
    for (int jz = 0; jz < p; ++jz)
      planes[jz] = mesh_.data() + s.index[2][jz] * plane_size;
    recip_[i] = (-system.charge(i) * force_pref) *
                pme::gather_particle(s, p, k, planes);
    net += recip_[i];
  }
  net /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) forces[i] += recip_[i] - net;
  return energy;
}

ForceResult SmoothPme::add_forces(const ParticleSystem& system,
                                  std::span<Vec3> forces) {
  if (forces.size() != system.size())
    throw std::invalid_argument("SmoothPme: force array size mismatch");

  ForceResult result;
  // Real-space erfc part (same sum as the exact Ewald solver).
  {
    const auto positions = system.positions();
    real_cells_.build(positions);
    const double two_over_sqrt_pi = 2.0 / std::sqrt(kPi);
    const double beta = beta_;
    const PairTally tally = real_cells_.parallel_for_each_pair(
        pool_, real_scratch_, positions, params_.r_cut, forces,
        [&system, beta, two_over_sqrt_pi](std::uint32_t i, std::uint32_t j,
                                          const Vec3& d, double r2, Vec3& f,
                                          PairTally& t) {
          const double r = std::sqrt(r2);
          const double qq =
              units::kCoulomb * system.charge(i) * system.charge(j);
          // Shared rational erfc, same evaluation as EwaldCoulomb's kernel.
          const double expmx2 = std::exp(-beta * beta * r2);
          const double erfc_term = fastmath::erfc_from_exp(beta * r, expmx2);
          const double gauss = two_over_sqrt_pi * beta * r * expmx2;
          const double s = qq * (erfc_term + gauss) / (r2 * r);
          f = s * d;
          t.potential += qq * erfc_term / r;
          t.virial += s * r2;
        });
    result.potential = tally.potential;
    result.virial = tally.virial;
  }

  result.potential += add_reciprocal(system, forces);

  // Self and background corrections (as in the exact solver).
  result.potential += -units::kCoulomb * beta_ / std::sqrt(kPi) *
                      system.total_charge_squared();
  const double q_total = system.total_charge();
  result.potential += -units::kCoulomb * kPi /
                      (2.0 * beta_ * beta_ * box_ * box_ * box_) * q_total *
                      q_total;
  return result;
}

double SmoothPme::reciprocal_flops(double n_particles) const {
  const double k3 = std::pow(double(params_.grid), 3);
  const double p3 = std::pow(double(params_.order), 3);
  return 2.0 * n_particles * p3 * 10.0 +
         2.0 * 5.0 * k3 * std::log2(k3);
}

}  // namespace mdm

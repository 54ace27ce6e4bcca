#pragma once

/// \file pme.hpp
/// Smooth particle-mesh Ewald (Essmann et al. 1995 - the paper's ref. [4]),
/// the O(N log N) alternative whose accuracy the paper says "has not been
/// well discussed ... on the actual system with large number of particles"
/// (sec. 1) and proposes to compare against (sec. 6.3). This implementation
/// provides exactly that comparison baseline:
///
///  * real-space part: identical erfc sum to the exact Ewald solver;
///  * reciprocal part: cardinal-B-spline charge spreading onto a real K^3
///    grid, a real-to-complex 3D FFT onto the half spectrum, the Essmann
///    influence function
///    theta(n) = exp(-pi^2 n^2/alpha^2)/n^2 * |b1 b2 b3|^2,
///    and analytic B-spline-derivative interpolation of the forces.
///
/// Conventions match ewald.hpp: paper-style dimensionless alpha
/// (beta = alpha/L), integer wavevectors n, phases 2 pi n.r / L.

#include "core/cell_list.hpp"
#include "core/force_field.hpp"
#include "ewald/pme_kernels.hpp"
#include "util/fft.hpp"
#include "util/thread_pool.hpp"

namespace mdm {

struct PmeParameters {
  double alpha = 0.0;  ///< dimensionless splitting (beta = alpha / L)
  double r_cut = 0.0;  ///< real-space cutoff, A
  int grid = 32;       ///< mesh points per axis (power of two)
  int order = 4;       ///< B-spline order (>= 3)
};

class SmoothPme final : public ForceField {
 public:
  SmoothPme(PmeParameters params, double box);

  ForceResult add_forces(const ParticleSystem& system,
                         std::span<Vec3> forces) override;
  std::string name() const override { return "smooth-pme"; }

  const PmeParameters& parameters() const { return params_; }

  /// Run the real-space pair sweep on a thread pool (nullptr = serial);
  /// forces are bit-identical to serial at any pool size. The mesh part
  /// stays serial (it is not parallelised here).
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Reciprocal-space piece alone (spread + FFT + convolution + gather);
  /// exposed for the accuracy comparison against the exact Ewald
  /// wavenumber part. Returns the reciprocal energy; the virial is not
  /// computed for the mesh (ForceResult.virial = 0).
  double add_reciprocal(const ParticleSystem& system,
                        std::span<Vec3> forces);

  /// Approximate reciprocal-space flops per step for the cost model:
  /// spreading/gathering ~ 2 * N * order^3 * 10 plus the FFT's
  /// ~ 2 * 5 K^3 log2(K^3).
  double reciprocal_flops(double n_particles) const;

 private:
  void build_influence();

  PmeParameters params_;
  double box_;
  double beta_;
  std::vector<double> mesh_;       ///< real K^3 charge, then potential, mesh
  std::vector<Complex> spec_;      ///< half spectrum [(kz*K + ky)*H + kx]
  std::vector<double> influence_;  ///< theta per spec_ mode (n = 0 -> 0)
  ThreadPool* pool_ = nullptr;
  // Reusable step scratch (no steady-state allocations).
  CellList real_cells_;
  PairScratch real_scratch_;
  /// Per-particle spline weights, reusable scratch between the spread and
  /// gather passes (shared definition with the distributed slab engine).
  std::vector<pme::SplineWeights> spread_;
  std::vector<Vec3> recip_;
};

/// Cardinal B-spline M_p(x) on [0, p] (zero outside); p >= 2. Forwarder to
/// the shared pme::bspline kernel.
double bspline(int p, double x);

/// Validate PME parameters against a box (throws std::invalid_argument with
/// a configuration-error message). Exposed so callers that only carry the
/// parameters (the parallel app, the serve layer) can fail fast at config
/// time rather than deep inside a rank thread.
PmeParameters validated_pme(PmeParameters params, double box);

}  // namespace mdm

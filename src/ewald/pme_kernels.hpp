#pragma once

/// \file pme_kernels.hpp
/// Shared building blocks of smooth particle-mesh Ewald (Essmann et al.
/// 1995), used by both the serial SmoothPme solver and the distributed
/// slab engine (host/distributed_pme), so the two evaluate EXACTLY the same
/// spline weights, stencil loops, influence function and half-spectrum
/// convolution — cross-validation between them then measures only the
/// decomposition, not a second implementation.
///
/// Conventions (identical to pme.hpp): dimensionless alpha (beta =
/// alpha / L), integer wavevectors n, grid of K points per axis, B-spline
/// order p with support spreading DOWNWARD from base = floor(u):
/// grid point (base - j) mod K carries weight M_p(t + j), j = 0..p-1.
/// The mesh is real, so its spectrum is stored as the half spectrum of
/// util/fft's rfft: x frequencies 0..K/2 only.

#include <cstddef>
#include <vector>

#include "util/fft.hpp"
#include "util/vec3.hpp"

namespace mdm::pme {

/// Hard upper bound on the B-spline order (pme.hpp validates order <= 10).
inline constexpr int kMaxOrder = 10;

/// Cardinal B-spline M_p(x) on [0, p] (zero outside); p >= 2. Recursive
/// reference form; the per-ion weights use the O(p^2) recurrence in
/// spline_weights instead.
double bspline(int p, double x);

/// Per-particle spline state for one position: the base grid index, the
/// wrapped stencil indices and the order-p weight/derivative rows per axis.
struct SplineWeights {
  int base[3];              ///< floor(u) in [0, K), u = wrap(x)/L * K
  int index[3][kMaxOrder];  ///< (base - j) mod K, the stencil's points
  double w[3][kMaxOrder];   ///< M_p(t + j) at grid point index[d][j]
  double dw[3][kMaxOrder];  ///< dM_p/du at the same points
};

/// Fill `s` for a position in a cubic box of side `box` on a K-point grid
/// with order-p splines (Essmann et al. 1995, appendix recurrence).
void spline_weights(const Vec3& pos, double box, int grid, int order,
                    SplineWeights& s);

/// Add q * w_x w_y w_z over the p^3 stencil. planes[jz] is the K x K real
/// plane [y*K + x] holding global z index s.index[2][jz].
void spread_particle(const SplineWeights& s, int order, int grid, double q,
                     double* const* planes);

/// Stencil sum of (dw_x w_y w_z, w_x dw_y w_z, w_x w_y dw_z) * phi over the
/// planes laid out as in spread_particle (dphi/du per axis, unscaled).
Vec3 gather_particle(const SplineWeights& s, int order, int grid,
                     const double* const* planes);

/// |b(n)|^-2 ... precisely: the per-axis Euler factor |b(n)|^2 of the
/// influence function (Essmann eq. 4.4), with modes where the spline sum
/// vanishes set to 0 instead of blowing up. Length `grid`.
std::vector<double> axis_b2(int grid, int order);

/// Influence function theta(n) = exp(-pi^2 n^2 / alpha^2) / n^2
/// * b2[nx] b2[ny] b2[nz] for one mode (indices in [0, K)); 0 at n = 0.
double influence_theta(int nx, int ny, int nz, int grid, double alpha,
                       const std::vector<double>& b2);

/// Convolution on `rows` half-spectrum x rows of K/2 + 1 values: returns
/// this block's sum of theta |A|^2 over the FULL spectrum (x frequencies
/// 1..K/2-1 stand for themselves and their mirror, so they count twice;
/// 0 and K/2 count once), then replaces A by theta A. The unscaled
/// backward C2R of theta A is the potential mesh: the forward transform
/// of theta conj(A), which is real.
double convolve_half(Complex* spec, const double* theta, std::size_t rows,
                     int grid);

}  // namespace mdm::pme

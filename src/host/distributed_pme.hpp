#pragma once

/// \file distributed_pme.hpp
/// Distributed smooth particle-mesh Ewald over the wavenumber process group
/// (DESIGN.md §12): the real K^3 charge mesh is slab-decomposed along z
/// across the W k-space ranks, spreading/gathering use a deterministic
/// ghost-plane exchange, and the mesh transforms are real-to-complex.
///
/// Per step and rank (s = K/W planes, H = K/2 + 1 half-spectrum width):
///  1. forward: per plane, rfft along x (K reals -> H complex) then the
///     y lines (util/fft rfft_planes), giving the slab [(z_l*K + y)*H + kx];
///  2. all-to-all transpose to y-slabs [(y_l*K + z)*H + kx], then the z
///     lines;
///  3. convolution with theta on the half spectrum (pme::convolve_half,
///     which also weights the energy partial for the missing mirror half);
///  4. backward, unscaled: z lines, transpose back, y lines, then C2R
///     along x into the real potential window (irfft_planes). The
///     potential is the forward transform of theta conj(A); that is real,
///     so it equals this backward transform of theta A.
/// Slab, transposed buffer, theta and transpose messages all hold H of K
/// x columns, about half a complex cube.
///
/// The spline weights, stencil loops, influence function and convolution
/// come from ewald/pme_kernels and the transforms from util/fft, so this
/// engine evaluates EXACTLY the same arithmetic as the serial SmoothPme up
/// to the order of floating-point sums (the serial solver runs its z lines
/// on the untransposed cube and sums the energy in one pass, ~1e-13
/// relative), so parity against the serial solver is asserted at an RMS
/// tolerance, not bit equality.

#include <vector>

#include "ewald/pme.hpp"
#include "ewald/pme_kernels.hpp"
#include "host/vmpi.hpp"
#include "util/fft.hpp"
#include "util/vec3.hpp"

namespace mdm::host {

/// z-slab layout of a K^3 PME mesh over W wavenumber ranks. Rank w owns the
/// contiguous planes [w * planes, (w + 1) * planes). B-spline support of
/// order p spreads DOWNWARD from a particle's base plane (pme_kernels.hpp
/// conventions), so the ghost region of a rank is the (p - 1) planes below
/// its slab.
struct PmeSlabLayout {
  int grid = 0;    ///< K, mesh points per axis
  int order = 0;   ///< B-spline order p
  int ranks = 0;   ///< W, wavenumber ranks sharing the mesh
  int planes = 0;  ///< K / W, z-planes owned per rank

  /// Validate and build a layout; throws std::invalid_argument with a
  /// configuration-error message naming the offending numbers (grid not
  /// divisible by the rank count, non-positive rank count, ...).
  static PmeSlabLayout create(int grid, int order, int ranks);

  int first_plane(int w) const { return w * planes; }
  int owner_of_plane(int z) const { return z / planes; }

  /// Ghost planes below a slab: p - 1, clamped so the window never exceeds
  /// the grid (the clamp only binds at W == 1, where the window is the
  /// whole mesh and spreading wraps inside it).
  int ghost_planes() const {
    const int g = order - 1;
    return g < grid - planes ? g : grid - planes;
  }

  /// Base spreading plane of a z coordinate — the same floor(wrap(z)/L * K)
  /// the spline kernel computes, so routing and spreading can never
  /// disagree about ownership.
  int base_plane(double z, double box) const;

  /// Wavenumber rank that owns a particle (the owner of its base plane).
  int route(double z, double box) const {
    return owner_of_plane(base_plane(z, box));
  }
};

/// Wall time per pipeline stage of DistributedPmeRank::step, accumulated
/// over calls (milliseconds). Exchanges include the wait for peers.
struct PmeStageTimes {
  double spline_ms = 0.0;     ///< per-ion spline weights and indices
  double spread_ms = 0.0;     ///< charge spreading onto the window
  double ghost_ms = 0.0;      ///< both ghost-plane exchanges
  double fft_ms = 0.0;        ///< x/y and z transforms, both directions
  double transpose_ms = 0.0;  ///< both all-to-all transposes
  double convolve_ms = 0.0;   ///< theta multiply and energy partial
  double gather_ms = 0.0;     ///< force interpolation and the reduction
  int steps = 0;
};

/// Per-rank distributed PME engine, one instance per wavenumber rank.
/// Every rank calls step() collectively once per force evaluation with the
/// particles routed to it (PmeSlabLayout::route); ranks with no particles
/// still participate (all exchanges have layout-determined sizes, so empty
/// ranks cannot stall the transform).
class DistributedPmeRank {
 public:
  /// `params` must already be validated (validated_pme); `comm` is the
  /// wavenumber subgroup communicator (copied; cheap).
  DistributedPmeRank(const PmeParameters& params, double box,
                     const vmpi::Communicator& comm);

  /// One reciprocal-space evaluation. Fills `forces` (resized to match
  /// `positions`) with the reciprocal forces of the routed particles,
  /// mean-force-corrected over the GLOBAL particle count exactly like the
  /// serial solver. Returns the total reciprocal energy (identical on
  /// every rank). Collective over the wavenumber group.
  double step(const std::vector<Vec3>& positions,
              const std::vector<double>& charges, std::vector<Vec3>& forces);

  const PmeSlabLayout& layout() const { return layout_; }

  /// Stage times accumulated by step() since construction or the last
  /// reset_stage_times().
  const PmeStageTimes& stage_times() const { return times_; }
  void reset_stage_times() { times_ = {}; }

 private:
  /// Offset of global plane (base - jz) mod K inside the local window of
  /// ghost_ + planes planes (ghost region first, owned slab after).
  int window_offset(int base, int jz) const {
    int l = base - jz - first_ + ghost_;
    if (l < 0) l += layout_.grid;  // wraps only when the window is the mesh
    return l;
  }
  /// Point planes[jz] at the window plane of each stencil z of `s`.
  template <typename Plane>
  void stencil_planes(const pme::SplineWeights& s, Plane* window,
                      Plane** planes) const;

  void spread(const std::vector<Vec3>& positions,
              const std::vector<double>& charges);
  void exchange_ghost_spread();
  void transpose_forward();   ///< z-slabs -> y-slabs (z lines at stride H)
  void transpose_backward();  ///< y-slabs -> z-slabs
  /// z lines of every owned y plane in the transposed layout.
  void transform_z(FftSign sign);
  void exchange_ghost_phi();
  double gather(const std::vector<Vec3>& positions,
                const std::vector<double>& charges, double energy_partial,
                std::vector<Vec3>& forces);

  PmeParameters params_;
  double box_;
  vmpi::Communicator comm_;
  PmeSlabLayout layout_;
  int first_ = 0;  ///< first owned plane
  int ghost_ = 0;  ///< ghost planes below the slab
  std::size_t half_ = 0;  ///< H = K/2 + 1

  std::vector<double> theta_;  ///< influence over the owned y-slab, t_ layout

  // Step scratch, reused between calls (no steady-state allocations).
  std::vector<pme::SplineWeights> spline_;  ///< per routed particle
  std::vector<double> window_;  ///< (ghost+planes) x K x K real window:
                                ///< charge, then potential
  std::vector<Complex> slab_;  ///< planes x K x H, [(z_l*K + y)*H + kx]
  std::vector<Complex> t_;     ///< planes x K x H, [(y_l*K + z)*H + kx]
  std::vector<Complex> pack_buf_;   ///< transpose send block
  std::vector<Complex> block_buf_;  ///< transpose receive block
  std::vector<double> plane_buf_;   ///< ghost-plane receive
  std::vector<double> reduce_;      ///< energy / net force / count
  PmeStageTimes times_;
};

}  // namespace mdm::host

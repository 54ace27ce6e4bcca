#pragma once

/// \file pipeline.hpp
/// The MDGRAPE-2 pipeline datapath (sec. 3.5.4, fig. 11):
///
///   r_ij = x_i - x_j  (40-bit cyclic fixed-point coordinates; the modular
///                      subtraction performs the periodic minimum image)
///   x    = a_ij * r^2 (IEEE-754 single precision)
///   g(x)              (function evaluator, single precision)
///   f    = b_ij * g(x) * r_vec   accumulated in double precision
///          ("double floating point format is used for accumulating the
///           force in order to prevent the underflow when large number of
///           particles are used")
///
/// A zero displacement (particle against itself in the 27-cell scan) is
/// suppressed by the x <= 0 rule of the function evaluator for forces and
/// by an explicit r^2 == 0 guard in potential mode.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "mdgrape2/gtables.hpp"
#include "util/vec3.hpp"

namespace mdm::mdgrape2 {

/// Cyclic fixed-point coordinate: position as a 40-bit fraction of the box.
struct CyclicCoord {
  std::uint64_t x = 0, y = 0, z = 0;
};

inline constexpr int kCoordBits = 40;

/// Quantize a wrapped position to cyclic coordinates.
CyclicCoord to_cyclic(const Vec3& r, double box);

/// Minimum-image displacement a - b in box units, via modular two's
/// complement arithmetic on the 40-bit words (the hardware trick: the wrap
/// is free).
Vec3 cyclic_delta(const CyclicCoord& a, const CyclicCoord& b, double box);

/// A particle as stored in the board's particle memory. "The position,
/// charge, and particle type of a particle j are supplied to both of the
/// MDGRAPE-2 chips" (sec. 3.5.2); the per-particle charge only enters the
/// datapath when the loaded pass sets `use_particle_charge` (needed when
/// the charge is not a function of the type - e.g. tree-code monopoles).
struct StoredParticle {
  CyclicCoord position;
  int type = 0;
  float charge = 1.0f;
};

/// Work accounting of one pipeline run. `evaluated` counts every streamed
/// pair (the hardware never skips, sec. 2.2); `useful` counts the pairs
/// whose argument fell inside the g-table domain, i.e. within r_cut - the
/// difference is the N_int_g vs N_int inflation the paper corrects for in
/// its effective-speed figure.
struct PairCount {
  std::size_t evaluated = 0;
  std::size_t useful = 0;

  PairCount& operator+=(const PairCount& o) {
    evaluated += o.evaluated;
    useful += o.useful;
    return *this;
  }
};

/// The j side of one pipeline run as SoA lanes: the streams' particles
/// staged back to back in stream order (each in particle-memory order),
/// plus the per-i lanes the filter and evaluate stages fill. The board
/// stages its 27 cell streams once per i-cell; every i of the cell then
/// runs one filter loop over the whole set.
struct JLanes {
  using Streams = std::span<const std::span<const StoredParticle>>;

  /// Copy `streams` into the staged lanes.
  void stage(Streams streams);
  /// Capacity for `n` staged j's, so later stages do not allocate.
  void reserve(std::size_t n) { resize(n, /*reserve_only=*/true); }

  // Staged j side.
  std::vector<std::uint64_t> x, y, z;
  std::vector<std::int32_t> type;
  std::vector<float> charge;
  std::vector<std::uint32_t> stream_end;  ///< end of each stream's run
  // Per-i filter output: displacement, r^2 and the keep flag.
  std::vector<float> dx, dy, dz, r2;
  std::vector<std::uint32_t> in;
  // The kept pairs in staged order, the end of each stream's run among
  // them, and their lanes gathered contiguously.
  std::vector<std::uint32_t> kept, kept_end;
  std::vector<float> kdx, kdy, kdz, kr2, kcharge;
  std::vector<std::int32_t> ktype;

 private:
  void resize(std::size_t n, bool reserve_only = false);
};

/// One pass of a fused sweep, read in place, and the mode it runs in.
struct LanePass {
  const ForcePass* pass = nullptr;
  bool potential = false;  ///< sum b g(a r^2) scalars instead of forces
};

/// Per i-type, the r^2 below which a fused sweep keeps a pair: a superset
/// of every pass's table domain and useful predicate over the j-types set
/// in `j_types` (DESIGN.md §3). Throws std::logic_error on an empty table.
using KeepBounds = std::array<float, kMaxAtomTypes>;
KeepBounds keep_bounds(std::span<const LanePass> passes,
                       std::uint32_t j_types = ~0u);

/// One i against the staged j's for every pass: one filter, one compaction
/// and one evaluate loop per pass. Sets `sums[p]` to pass p's sum (a
/// potential in .x), bit for bit that of the pass run alone, and adds its
/// work to `counts[p]`; returns the work of all passes.
PairCount sweep_passes(std::span<const LanePass> passes,
                       const KeepBounds& keep, const StoredParticle& i,
                       JLanes& j, double box, Vec3* sums, PairCount* counts);

/// One pipeline: a loaded pass run over the j-stream it is given (the
/// one-pass sweep), staged into its own lanes.
class Pipeline {
 public:
  void load(const ForcePass* pass);
  bool loaded() const { return pass_ != nullptr; }

  /// Force mode: add sum_j b_ij g(a r^2) r_vec to `force` (double accum).
  PairCount accumulate_force(const StoredParticle& i,
                             std::span<const StoredParticle> j_stream,
                             double box, Vec3& force);
  /// Potential mode: add sum_j b_ij g(a r^2) to `potential`.
  PairCount accumulate_potential(const StoredParticle& i,
                                 std::span<const StoredParticle> j_stream,
                                 double box, double& potential);

 private:
  Vec3 run(bool potential, const StoredParticle& i,
           std::span<const StoredParticle> j_stream, double box,
           PairCount& count);

  const ForcePass* pass_ = nullptr;
  KeepBounds keep_{};
  JLanes lanes_;
};

}  // namespace mdm::mdgrape2

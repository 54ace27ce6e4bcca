#pragma once

/// \file trig_unit.hpp
/// The pipeline's sine/cosine unit: a fixed-point lookup table over one full
/// turn with linear interpolation. Phases arrive as unsigned fractions of a
/// turn (the natural output of the cyclic inner-product multiplier), so
/// quadrant handling is implicit in the table.

#include <bit>
#include <cstdint>
#include <vector>

#include "util/fixed_point.hpp"
#include "wine2/formats.hpp"

namespace mdm::wine2 {

class TrigUnit {
 public:
  explicit TrigUnit(const WineFormats& formats);

  /// sin(2 pi * phase / 2^phase_bits), quantized to the trig format.
  double sine(std::uint64_t phase) const {
    return shifter_ ? lookup<true>(phase) : lookup<false>(phase);
  }
  /// cos(2 pi * phase / 2^phase_bits) via the quarter-turn phase shift.
  double cosine(std::uint64_t phase) const { return sine(phase + quarter_); }
  /// Both at once, as the pipeline lanes consume them; kShifter must be
  /// shifter_rounds() (the lane kernels hoist it out of their loops).
  template <bool kShifter>
  void sincos(std::uint64_t phase, double& s, double& c) const {
    s = lookup<kShifter>(phase);
    c = lookup<kShifter>(phase + quarter_);
  }

  /// The product register format (the interpolation weight's, and the
  /// pipelines' products). One per system, shared by every pipeline.
  const Quantizer& product() const { return product_; }
  /// Whether both the trig and the product words fit the 52-bit shifter
  /// (Quantizer::round<true>); otherwise every rounding takes the exact
  /// wide path, which gives the same bits for the narrow word too.
  bool shifter_rounds() const { return shifter_; }

 private:
  template <bool kShifter>
  double lookup(std::uint64_t phase) const {
    phase &= phase_mask_;
    const std::uint64_t idx = phase >> index_shift_;
    const std::uint64_t rem = phase & rem_mask_;
    // rem < 2^52 converts exactly as the double with IEEE bits 2^52 + rem,
    // less 2^52 (a branch-free form every ISA vectorizes). Interpolation
    // weight in the product format: rem / 2^shift is exact as a multiply
    // by 2^-shift.
    const double remd =
        std::bit_cast<double>(rem | 0x4330000000000000ull) - 0x1p52;
    const double w = product_.round<kShifter>(remd * rem_scale_);
    const double t0 = table_[idx];
    return trig_.round<kShifter>(t0 + w * (table_[idx + 1] - t0));
  }

  Quantizer trig_;
  Quantizer product_;
  std::vector<double> table_;  ///< quantized sin at 2^table_bits + 1 knots
  std::uint64_t phase_mask_;
  std::uint64_t rem_mask_;
  std::uint64_t quarter_;
  int index_shift_;
  double rem_scale_;  ///< 2^-index_shift
  bool shifter_;
};

/// Quantize a position coordinate to an unsigned phase fraction (used for
/// the per-axis base phases u = x / L).
std::uint64_t coordinate_phase(double x, double box, int phase_bits);

}  // namespace mdm::wine2

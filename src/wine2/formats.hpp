#pragma once

/// \file formats.hpp
/// Fixed-point word widths of the WINE-2 pipeline ("Fixed-point two's
/// complement format is used in all the arithmetic calculations in a
/// pipeline", sec. 3.4.4). The defaults are tuned so the emulated pipeline
/// reproduces the paper's stated relative accuracy of the wavenumber-space
/// force, about 10^-4.5; the widths are configurable for the word-width
/// ablation bench.

namespace mdm::wine2 {

struct WineFormats {
  /// Phase as a fraction of a full turn (cyclic; the k.r inner product is
  /// computed modulo 1 so the periodic wrap is free, like the coordinates).
  int phase_bits = 26;
  /// sin/cos lookup table: 2^table_bits entries per turn, linearly
  /// interpolated. The interpolation error ~ (2 pi / 2^table_bits)^2 / 8 is
  /// the dominant noise source at the default width.
  int table_bits = 12;
  /// Fraction bits of the sin/cos outputs (Q2.trig format).
  int trig_frac_bits = 22;
  /// Fraction bits of normalized coefficients (q_j, S_n, C_n are
  /// block-normalized into [-1, 1] by the driver before upload; a_n keeps a
  /// per-wave block exponent, i.e. coeff_frac_bits of mantissa).
  int coeff_frac_bits = 24;
  /// Fraction bits of intermediate products.
  int product_frac_bits = 24;
  /// Fraction bits of the S/C and force accumulators (wide integer part).
  int accum_frac_bits = 28;

  /// The production configuration of the shipped chip.
  static WineFormats paper() { return {}; }

  /// The trig, coefficient and product registers are Q(2, f) words, so
  /// each must fit the 63-bit raw word of util/fixed_point (f <= 61).
  bool valid() const {
    constexpr int kMaxQ2Frac = 63 - 2;
    return phase_bits >= 4 && table_bits >= 2 && table_bits <= phase_bits &&
           trig_frac_bits >= 2 && coeff_frac_bits >= 2 &&
           product_frac_bits >= 2 && accum_frac_bits >= 2 &&
           phase_bits <= 40 && accum_frac_bits <= 40 &&
           trig_frac_bits <= kMaxQ2Frac && coeff_frac_bits <= kMaxQ2Frac &&
           product_frac_bits <= kMaxQ2Frac;
  }
};

}  // namespace mdm::wine2

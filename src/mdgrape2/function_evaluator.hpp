#pragma once

/// \file function_evaluator.hpp
/// Software model of the MDGRAPE-2 function evaluator (sec. 3.5.4):
/// "fourth-order interpolation segmented by 1,024 region. The coefficients
/// of the interpolation function are stored in the RAM in the function
/// evaluator. Therefore, we can use any arbitrary central force by changing
/// the contents of the RAM."
///
/// Segmentation follows the GRAPE convention: the argument's binade
/// (floating-point exponent) selects a coarse region and the mantissa's top
/// bits a sub-segment, so relative interpolation error is uniform across
/// many orders of magnitude of x = a_ij r^2. Coefficients are stored in
/// IEEE-754 single precision and Horner evaluation runs in single precision,
/// reproducing the chip's ~1e-7 relative force accuracy.
///
/// Out-of-range rules (also hardware behaviour):
///  * x >= x_max  -> 0  (this is how the cutoff is realized: the pipeline
///    never skips a pair, the table is simply zero beyond r_cut)
///  * 0 < x < x_min -> the first segment's polynomial (closest overlap the
///    table can represent)
///  * x <= 0 -> 0 (the zero-distance self-interaction guard)

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace mdm::mdgrape2 {

/// Number of interpolation regions in the chip RAM.
inline constexpr int kHardwareSegments = 1024;
/// Interpolation order (quartic).
inline constexpr int kInterpolationOrder = 4;

struct TableConfig {
  double x_min = 0.0;   ///< lower edge of the represented domain (> 0)
  double x_max = 0.0;   ///< upper edge; g(x >= x_max) evaluates to 0
  int segments = kHardwareSegments;

  /// x_min must be a normal double: segments are found from its binade.
  bool valid() const {
    return x_min >= 0x1p-1022 && x_max > x_min && x_max < 0x1p1023 &&
           segments >= 2;
  }
};

/// A fitted, chip-resident interpolation table for one scalar function.
class SegmentedTable {
 public:
  SegmentedTable() = default;

  /// Fit `g` over [x_min, x_max) with Chebyshev interpolation per segment.
  /// This models the "separate utility program" of sec. 4 that generates the
  /// function table before the run.
  static SegmentedTable fit(const std::function<double(double)>& g,
                            const TableConfig& config);

  bool empty() const { return coefficients_.empty(); }
  const TableConfig& config() const { return config_; }
  int segment_count() const { return config_.segments; }

  /// Single-precision Horner evaluation, exactly as the pipeline does it.
  float evaluate(float x) const {
    if (empty()) throw std::logic_error("SegmentedTable: table not loaded");
    return in_domain(x) ? interpolate(x) : 0.0f;
  }

  /// 0 < x < x_max: outside it g evaluates to 0 (x <= 0 is the
  /// self-interaction guard, x >= x_max the cutoff).
  bool in_domain(float x) const { return (x > 0.0f) & (x < x_max_f_); }

  /// The interpolation datapath for an in-domain x (loaded table).
  float interpolate(float x) const {
    double xd = x;
    if (xd < config_.x_min) xd = config_.x_min;  // overlap clamp
    const int s = segment_of(xd);
    // Rescale to t in [-1, 1]; the subtraction and Horner run in single
    // precision like the hardware datapath.
    const float t = static_cast<float>((xd - mid_[s]) / half_[s]);
    // An int index from the table's base: lane loops gather the terms.
    const int c = s * (kInterpolationOrder + 1);
    float acc = coefficients_[c + kInterpolationOrder];
    for (int k = kInterpolationOrder - 1; k >= 0; --k)
      acc = acc * t + coefficients_[c + k];
    return acc;
  }

  /// Reference double-precision evaluation of the same polynomials (used by
  /// the tests to separate interpolation error from single-precision
  /// rounding).
  double evaluate_exact(double x) const;

  /// Segment index for an in-range x (exposed for tests). The binade and
  /// mantissa come straight from the IEEE-754 bits: for a positive normal
  /// x the biased exponent field is ilogb(x) + 1023, and x * 2^-e is
  /// exactly x / 2^e.
  int segment_of(double x) const {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const int e = std::clamp(static_cast<int>(bits >> 52) - 1023, exp_min_,
                             exp_min_ + exp_count_ - 1);
    const double mant =
        x * std::bit_cast<double>(static_cast<std::uint64_t>(1023 - e) << 52);
    const int sub = static_cast<int>((mant - 1.0) * sub_per_exp_);
    return (e - exp_min_) * sub_per_exp_ + std::clamp(sub, 0, sub_per_exp_ - 1);
  }

  /// Segment boundaries [lo, hi) of segment `s`.
  void segment_bounds(int s, double& lo, double& hi) const;

 private:
  TableConfig config_;
  int exp_min_ = 0;        ///< exponent of x_min's binade
  int exp_count_ = 0;      ///< number of binades covered
  int sub_per_exp_ = 0;    ///< sub-segments per binade
  float x_max_f_ = 0.0f;   ///< x_max as the single-precision comparand
  /// coefficients_[s * (order+1) + k]: coefficient of t^k on segment s,
  /// with t the position within the segment rescaled to [-1, 1].
  std::vector<float> coefficients_;
  /// Per-segment centre 0.5 (lo + hi) and half-width 0.5 (hi - lo).
  std::vector<double> mid_, half_;
};

}  // namespace mdm::mdgrape2

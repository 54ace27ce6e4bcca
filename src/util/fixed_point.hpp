#pragma once

/// \file fixed_point.hpp
/// Two's-complement fixed-point arithmetic used by the WINE-2 pipeline
/// emulator. The real chip computes every stage of the DFT/IDFT in
/// fixed-point ("Fixed-point two's complement format is used in all the
/// arithmetic calculations in a pipeline", sec. 3.4.4); this header provides
/// a software model that is bit-exact for a configurable Q-format.
///
/// A format Q(i, f) has `i` integer bits (including sign) and `f` fraction
/// bits; values are stored as int64 raw words equal to round(x * 2^f),
/// saturated to the representable range. The widths in the WINE-2 emulator
/// are chosen to reproduce the paper's stated relative force accuracy of
/// about 10^-4.5.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mdm {

// 128-bit intermediate for exact fixed-point products (GCC/Clang extension;
// __extension__ silences the pedantic warning).
__extension__ typedef __int128 int128_t_mdm;

/// Describes a two's-complement Q(i, f) fixed-point format.
/// total width = int_bits + frac_bits <= 63 so raw values fit in int64.
struct QFormat {
  int int_bits = 16;   ///< integer bits, including the sign bit
  int frac_bits = 16;  ///< fraction bits

  constexpr int total_bits() const { return int_bits + frac_bits; }

  /// Largest representable raw word.
  constexpr std::int64_t raw_max() const {
    return (std::int64_t{1} << (total_bits() - 1)) - 1;
  }
  /// Smallest (most negative) representable raw word.
  constexpr std::int64_t raw_min() const {
    return -(std::int64_t{1} << (total_bits() - 1));
  }
  /// Value of one least-significant bit.
  constexpr double lsb() const { return std::ldexp(1.0, -frac_bits); }
  /// Largest representable value.
  constexpr double max_value() const {
    return static_cast<double>(raw_max()) * lsb();
  }
  /// Smallest representable value.
  constexpr double min_value() const {
    return static_cast<double>(raw_min()) * lsb();
  }

  constexpr bool valid() const {
    return int_bits >= 1 && frac_bits >= 0 && total_bits() <= 63;
  }

  friend constexpr bool operator==(const QFormat&, const QFormat&) = default;
};

/// A fixed-point value: raw two's-complement word plus its format.
/// Arithmetic saturates (the hardware clamps on overflow rather than
/// wrapping, which keeps a pipeline overflow from corrupting the sign of an
/// accumulated force).
class Fixed {
 public:
  Fixed() = default;

  /// Quantize a real value into format `fmt` (round-to-nearest, saturating).
  static Fixed from_double(double v, QFormat fmt) {
    if (!fmt.valid()) throw std::invalid_argument("invalid QFormat");
    const double scaled = v * std::ldexp(1.0, fmt.frac_bits);
    double rounded = std::nearbyint(scaled);
    rounded = std::clamp(rounded, static_cast<double>(fmt.raw_min()),
                         static_cast<double>(fmt.raw_max()));
    return Fixed(static_cast<std::int64_t>(rounded), fmt);
  }

  /// Reinterpret a raw word in format `fmt` (no range check beyond clamp).
  static Fixed from_raw(std::int64_t raw, QFormat fmt) {
    raw = std::clamp(raw, fmt.raw_min(), fmt.raw_max());
    return Fixed(raw, fmt);
  }

  std::int64_t raw() const { return raw_; }
  QFormat format() const { return fmt_; }

  double to_double() const {
    return static_cast<double>(raw_) * fmt_.lsb();
  }

  /// Convert to another format (arithmetic shift with round-to-nearest when
  /// dropping fraction bits; saturate on overflow).
  Fixed convert(QFormat to) const {
    std::int64_t r = raw_;
    const int shift = to.frac_bits - fmt_.frac_bits;
    if (shift >= 0) {
      // Gaining fraction bits: detect overflow before shifting.
      if (shift >= 63 || std::llabs(r) > (to.raw_max() >> shift)) {
        r = r >= 0 ? to.raw_max() : to.raw_min();
      } else {
        r <<= shift;
      }
    } else {
      r = shift_right_round(r, -shift);
    }
    return from_raw(r, to);
  }

  /// Saturating addition; operands must share a format.
  friend Fixed add(const Fixed& a, const Fixed& b) {
    require_same(a, b);
    return from_raw(a.raw_ + b.raw_, a.fmt_);
  }

  /// Saturating subtraction; operands must share a format.
  friend Fixed sub(const Fixed& a, const Fixed& b) {
    require_same(a, b);
    return from_raw(a.raw_ - b.raw_, a.fmt_);
  }

  /// Multiply, producing a result quantized into format `out`
  /// (round-to-nearest on the dropped bits, saturating).
  friend Fixed mul(const Fixed& a, const Fixed& b, QFormat out) {
    // The exact product has fa+fb fraction bits; use __int128 to avoid
    // intermediate overflow for wide formats.
    const int128_t_mdm prod = static_cast<int128_t_mdm>(a.raw_) *
                              static_cast<int128_t_mdm>(b.raw_);
    const int shift = a.fmt_.frac_bits + b.fmt_.frac_bits - out.frac_bits;
    int128_t_mdm r = prod;
    if (shift > 0) {
      const int128_t_mdm half = int128_t_mdm{1} << (shift - 1);
      r = (r + half) >> shift;
    } else if (shift < 0) {
      r <<= -shift;
    }
    const int128_t_mdm lo = out.raw_min();
    const int128_t_mdm hi = out.raw_max();
    if (r < lo) r = lo;
    if (r > hi) r = hi;
    return from_raw(static_cast<std::int64_t>(r), out);
  }

  Fixed operator-() const { return from_raw(-raw_, fmt_); }

 private:
  Fixed(std::int64_t raw, QFormat fmt) : raw_(raw), fmt_(fmt) {}

  static void require_same(const Fixed& a, const Fixed& b) {
    if (!(a.fmt_ == b.fmt_))
      throw std::invalid_argument("Fixed format mismatch");
  }

  static std::int64_t shift_right_round(std::int64_t v, int shift) {
    if (shift <= 0) return v;
    if (shift >= 63) return 0;
    const std::int64_t half = std::int64_t{1} << (shift - 1);
    // Arithmetic shift after adding half rounds to nearest (ties away from
    // zero for positives; the sub-LSB bias is far below the modeled noise).
    return (v + half) >> shift;
  }

  std::int64_t raw_ = 0;
  QFormat fmt_{};
};

/// Quantization helper: round `v` to the grid of format `fmt` and return the
/// result as a double. This is how the pipeline models are written: values
/// flow as doubles but pass through `quantize` at every hardware register.
inline double quantize(double v, QFormat fmt) {
  return Fixed::from_double(v, fmt).to_double();
}

/// `quantize(v, fmt)` with the format's scale and bounds computed once: the
/// hot pipeline loops hold one Quantizer per register format instead of
/// rebuilding 2^f, 2^-f and the raw range on every call. For finite `v` the
/// result is bit-equal to `quantize`.
class Quantizer {
 public:
  explicit Quantizer(QFormat fmt) {
    // Validate first: the raw bounds of an over-wide format overflow.
    if (!fmt.valid()) throw std::invalid_argument("invalid QFormat");
    scale_ = std::ldexp(1.0, fmt.frac_bits);
    lsb_ = fmt.lsb();
    raw_lo_ = static_cast<double>(fmt.raw_min());
    raw_hi_ = static_cast<double>(fmt.raw_max());
    min_value_ = fmt.min_value();
    max_value_ = fmt.max_value();
    shifter_rounds_ = fmt.total_bits() <= 52;
  }

  double operator()(double v) const {
    return shifter_rounds_ ? round<true>(v) : round<false>(v);
  }
  /// The rounding with the format-width test hoisted out (the lane kernels
  /// pick kShifter once per pass); branch-free, so loops vectorize.
  ///  * kShifter (raw words fit 52 bits): adding and removing 1.5 * 2^52
  ///    rounds half to even below 2^51 and stays monotone past the raw
  ///    range, so the clamp saturates as after nearbyint; -0 becomes +0,
  ///    the +0 a raw word converts to.
  ///  * otherwise, exact for every format: |v| plus and minus 2^52 rounds
  ///    half to even below 2^52 (larger doubles are integers and add +0),
  ///    the sign is copied back, and adding +0 turns -0 into +0 as the
  ///    int64 raw-word round trip does.
  /// The clamp is std::clamp's two sequential selects.
  template <bool kShifter>
  double round(double v) const {
    const double scaled = v * scale_;
    double raw;
    if constexpr (kShifter) {
      constexpr double kShift = 0x1.8p52;
      raw = (scaled + kShift) - kShift;
    } else {
      const double mag = std::fabs(scaled);
      const double shift = std::bit_cast<double>(
          std::bit_cast<std::uint64_t>(0x1p52) &
          (std::uint64_t{0} - (mag < 0x1p52)));  // 2^52, or +0 past it
      raw = std::copysign((mag + shift) - shift, scaled) + 0.0;
    }
    raw = raw < raw_lo_ ? raw_lo_ : raw;
    raw = raw_hi_ < raw ? raw_hi_ : raw;
    return raw * lsb_;
  }
  bool shifter_rounds() const { return shifter_rounds_; }
  /// Whether `v` lies outside the representable range (the hardware clamps).
  bool saturates(double v) const { return (v > max_value_) | (v < min_value_); }

 private:
  double scale_ = 0, lsb_ = 0, raw_lo_ = 0, raw_hi_ = 0;
  double min_value_ = 0, max_value_ = 0;
  bool shifter_rounds_ = false;  ///< raw words fit 52 bits: use the shifter
};

}  // namespace mdm

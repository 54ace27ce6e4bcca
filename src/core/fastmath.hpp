#pragma once

/// \file fastmath.hpp
/// Branch-free polynomial transcendentals for the vectorized force kernels.
///
/// The native backend's hot loops (src/native) must auto-vectorize, which
/// rules out libm calls (`std::erfc`, `std::exp` compile to opaque calls
/// that break SLP/loop vectorization) and data-dependent branches. This
/// header provides:
///
///  * `fast_exp(x)`      - Cephes-style exp: range reduction by log2(e),
///                         a degree-2/3 Pade kernel, and 2^n applied through
///                         the exponent bits. Peak relative error ~2 ulp
///                         over the full non-overflowing domain.
///  * `erfc_from_exp(x, expmx2)` - the SANDER/cpptraj three-range rational
///                         erfc (Hart/Cody coefficients, see SNIPPETS'
///                         erfc_func) restricted to x >= 0, with all three
///                         range polynomials evaluated unconditionally and
///                         the result chosen by comparisons. The ternaries
///                         compile to SIMD blends, so a loop calling this
///                         stays a straight-line vector body. The caller
///                         passes exp(-x^2) (shared with the Gaussian force
///                         term, which needs it anyway).
///  * `fast_erfc(x)`     - convenience composition of the two.
///
/// Both Ewald real-space paths (the reference EwaldCoulomb and PME) use
/// `erfc_from_exp` with a libm-accurate `std::exp(-x^2)`; the native kernel
/// feeds it `fast_exp`. Accuracy (vs libm, verified in test_fastmath):
/// |fast_erfc - std::erfc| < 1e-12 absolute on x in [0, 6].

#include <bit>
#include <cstdint>

namespace mdm::fastmath {

/// exp(x) without a libm call. Domain edges are clamped: arguments below
/// -708 (where the true exp enters the subnormal range) return exactly 0 and
/// arguments above 709 return +inf, so the result is never a subnormal. The
/// Ewald kernels only ever pass x = -(beta r)^2 <= 0, far from overflow.
inline double fast_exp(double x) {
  // Cephes exp.c constants: x = n ln2 + r with |r| <= ln2 / 2, exp(r) via
  // exp(r) = 1 + 2 r P(r^2) / (Q(r^2) - r P(r^2)).
  constexpr double kLog2E = 1.4426950408889634073599;
  constexpr double kC1 = 6.93145751953125e-1;          // ln2 high part
  constexpr double kC2 = 1.42860682030941723212e-6;    // ln2 low part
  constexpr double kP0 = 1.26177193074810590878e-4;
  constexpr double kP1 = 3.02994407707441961300e-2;
  constexpr double kP2 = 9.99999999999999999910e-1;
  constexpr double kQ0 = 3.00198505138664455042e-6;
  constexpr double kQ1 = 2.52448340349684104192e-3;
  constexpr double kQ2 = 2.27265548208155028766e-1;
  constexpr double kQ3 = 2.00000000000000000005e0;

  // 1.5 * 2^52: adding and subtracting it rounds |v| < 2^51 to an integer.
  constexpr double kRoundShift = 6755399441055744.0;
  // 2^52 + 1023: adding it to an integral n in [-1022, 1023] leaves the
  // biased exponent n + 1023 in the low mantissa bits.
  constexpr double kExpBiasShift = 4503599627371519.0;

  const double x_in = x;
  // Clamp into the range where 2^n stays a normal double; out-of-range
  // inputs are fixed up by the final selects. Two sequential selects, not
  // nested ones, so a loop calling this if-converts on every ISA.
  x = x > 709.0 ? 709.0 : x;
  x = x < -708.0 ? -708.0 : x;

  // n = trunc(nf) - (nf < 0), floor except at negative integers, without
  // libm and without an int64 conversion (which has no SSE2/AVX2 vector
  // form): round to nearest, then step down where that rounded up.
  double nf = kLog2E * x + 0.5;
  const double rn = (nf + kRoundShift) - kRoundShift;
  const double pos = rn > nf ? rn - 1.0 : rn;  // floor(nf)
  const double neg = rn < nf ? rn : rn - 1.0;  // ceil(nf) - 1
  nf = nf < 0.0 ? neg : pos;
  x -= nf * kC1;
  x -= nf * kC2;

  const double xx = x * x;
  const double p = x * ((kP0 * xx + kP1) * xx + kP2);
  const double q = ((kQ0 * xx + kQ1) * xx + kQ2) * xx + kQ3;
  double r = 1.0 + 2.0 * p / (q - p);

  // Scale by 2^n through the exponent field (|n| <= 1023 after clamping).
  r *= std::bit_cast<double>(std::bit_cast<std::uint64_t>(nf + kExpBiasShift)
                             << 52);
  r = x_in < -708.0 ? 0.0 : r;
  return x_in > 709.0 ? std::bit_cast<double>(0x7ff0000000000000ULL) : r;
}

/// Above this argument erfc underflows into the subnormal range (erfc(x)
/// ~ exp(-x^2)/(x sqrt(pi)) drops below the smallest normal double near
/// x = 26.5). The fitted rationals are only calibrated on normal-range
/// inputs, so past the cut the result is flushed to exactly 0 instead of
/// letting a subnormal exp(-x^2) propagate garbage low bits through the
/// rational evaluation.
inline constexpr double kErfcUnderflowCut = 26.5;

/// erfc(x) given expmx2 = exp(-x^2). All three range approximations are
/// evaluated unconditionally; the comparisons at the end become SIMD blends
/// inside a vectorized loop. Domain edges are clamped rather than left
/// unspecified: x < 0 (outside the fitted range; the Ewald kernels always
/// pass beta * r >= 0) falls back to the exact limit value 1 at 0-, and
/// x >= kErfcUnderflowCut returns exactly 0 — never a subnormal — even when
/// the caller's expmx2 has already degraded to a subnormal or to 0.
inline double erfc_from_exp(double x, double expmx2) {
  const double x2 = x * x;

  // x <= 0.5: erfc = 1 - x P1(x^2) / Q1(x^2).
  const double p_lo = ((-0.356098437018154e-1 * x2 + 0.699638348861914e1) * x2 +
                       0.219792616182942e2) * x2 +
                      0.242667955230532e3;
  const double q_lo =
      ((x2 + 0.150827976304078e2) * x2 + 0.911649054045149e2) * x2 +
      0.215058875869861e3;
  const double erfc_lo = 1.0 - x * p_lo / q_lo;

  // 0.5 < x < 4: erfc = exp(-x^2) P2(x) / Q2(x).
  const double p_mid =
      ((((((-0.136864857382717e-6 * x + 0.564195517478974) * x +
           0.721175825088309e1) * x +
          0.431622272220567e2) * x +
         0.152989285046940e3) * x +
        0.339320816734344e3) * x +
       0.451918953711873e3) * x +
      0.300459261020162e3;
  const double q_mid =
      ((((((x + 0.127827273196294e2) * x + 0.770001529352295e2) * x +
          0.277585444743988e3) * x +
         0.638980264465631e3) * x +
        0.931354094850610e3) * x +
       0.790950925327898e3) * x +
      0.300459260956983e3;
  const double erfc_mid = expmx2 * p_mid / q_mid;

  // x >= 4: erfc = exp(-x^2)/x * (1/sqrt(pi) - P3(c)/Q3(c) * c), c = 1/x^2.
  // Guard the reciprocal so the unselected lane stays finite at small x.
  const double c = 1.0 / (x2 > 1.0 ? x2 : 1.0);
  const double p_hi = (((0.223192459734185e-1 * c + 0.278661308609648) * c +
                        0.226956593539687) * c +
                       0.494730910623251e-1) * c +
                      0.299610707703542e-2;
  const double q_hi = (((c + 0.198733201817135e1) * c + 0.105167510706793e1) *
                           c + 0.191308926107830) * c +
                      0.106209230528468e-1;
  const double erfc_hi =
      expmx2 * (0.564189583547756 - c * p_hi / q_hi) / (x > 1.0 ? x : 1.0);

  // Two sequential selects, not nested ones, so a loop calling this
  // if-converts on every ISA.
  double r = x < 4.0 ? erfc_mid : erfc_hi;
  r = x <= 0.5 ? erfc_lo : r;
  r = x >= kErfcUnderflowCut ? 0.0 : r;
  // Flush a would-be-subnormal result to exactly 0 as well: a degraded
  // (subnormal or zero) expmx2 from the caller scales the mid/high rationals
  // into the subnormal range even for in-range x.
  r = r < 2.2250738585072014e-308 ? 0.0 : r;
  return x < 0.0 ? 1.0 : r;
}

/// erfc(x), fully libm-free (flushes to exactly 0 beyond kErfcUnderflowCut,
/// matching erfc's true decay to below the normal double minimum, and to the
/// limit value 1 for x < 0).
inline double fast_erfc(double x) { return erfc_from_exp(x, fast_exp(-x * x)); }

}  // namespace mdm::fastmath

#include "core/fastmath.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace mdm {
namespace {

// Satellite contract: the shared rational erfc must track std::erfc to
// 1e-12 absolute over the whole range the Ewald kernels use (beta * r with
// r up to the cutoff; alpha ~ 8 and r_cut ~ L/3 put beta * r_cut ~ 2.6, so
// [0, 6] covers every configuration with margin).
TEST(FastMath, ErfcMatchesLibmOnZeroToSix) {
  double max_err = 0.0;
  for (double x = 0.0; x <= 6.0; x += 1e-4)
    max_err = std::max(max_err, std::fabs(fastmath::fast_erfc(x) -
                                          std::erfc(x)));
  EXPECT_LT(max_err, 1e-12);
  // Measured headroom is ~2e-15; a 10x regression would still pass the
  // contract but flag a coefficient typo.
  EXPECT_LT(max_err, 1e-13);
}

TEST(FastMath, ErfcBranchSeams) {
  // The three rational ranges meet at 0.5 and 4; both sides of each seam
  // must agree with libm (a select picking the wrong branch would show a
  // jump here).
  for (double x : {0.0, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 3.999999, 4.0,
                   4.000001, 5.999}) {
    EXPECT_NEAR(fastmath::fast_erfc(x), std::erfc(x), 1e-12) << "x = " << x;
  }
  EXPECT_DOUBLE_EQ(fastmath::fast_erfc(0.0), 1.0);
}

TEST(FastMath, ErfcDecaysToZeroAndStaysNonNegative) {
  for (double x = 0.0; x < 40.0; x += 0.37) {
    const double v = fastmath::fast_erfc(x);
    EXPECT_GE(v, 0.0) << "x = " << x;
    EXPECT_LE(v, 1.0) << "x = " << x;
  }
  EXPECT_EQ(fastmath::fast_erfc(27.0), 0.0);
}

TEST(FastMath, ExpMatchesLibmRelative) {
  // The force kernels evaluate exp(-(beta r)^2) with beta r in [0, ~7];
  // sweep well past that. Peak measured error is ~3 ulp.
  double max_rel = 0.0;
  for (double x = -60.0; x <= 4.0; x += 1e-3) {
    const double e = std::exp(x);
    max_rel = std::max(max_rel, std::fabs(fastmath::fast_exp(x) - e) / e);
  }
  EXPECT_LT(max_rel, 1e-14);
}

TEST(FastMath, ExpEdgeCases) {
  EXPECT_DOUBLE_EQ(fastmath::fast_exp(0.0), 1.0);
  EXPECT_EQ(fastmath::fast_exp(-1000.0), 0.0);  // below underflow: exact 0
  EXPECT_TRUE(std::isinf(fastmath::fast_exp(1000.0)));
  // Large negative but representable: still accurate, not flushed.
  EXPECT_NEAR(fastmath::fast_exp(-700.0) / std::exp(-700.0), 1.0, 1e-13);
}

TEST(FastMath, ErfcTailNeverReturnsSubnormal) {
  // Beyond the fitted range (x >= kErfcUnderflowCut) the true erfc is below
  // the smallest normal double; the clamp must return exactly 0 rather than
  // propagating a subnormal exp(-x^2) through the rational tail. The sweep
  // crosses the libm-exp subnormal window x in [26.61, 27.29] where the
  // unclamped evaluation used to emit denormal garbage.
  for (double x = 26.0; x <= 40.0; x += 0.01) {
    const double v = fastmath::erfc_from_exp(x, std::exp(-x * x));
    EXPECT_TRUE(v == 0.0 || std::fpclassify(v) == FP_NORMAL) << "x = " << x;
    if (x >= fastmath::kErfcUnderflowCut) EXPECT_EQ(v, 0.0) << "x = " << x;
  }
  EXPECT_EQ(fastmath::fast_erfc(fastmath::kErfcUnderflowCut), 0.0);
  EXPECT_EQ(fastmath::fast_erfc(1e6), 0.0);
  // Just below the cut the value is still a normal, accurate double.
  const double below = fastmath::fast_erfc(26.0);
  EXPECT_EQ(std::fpclassify(below), FP_NORMAL);
  EXPECT_NEAR(below / std::erfc(26.0), 1.0, 1e-9);
}

TEST(FastMath, ErfcSubnormalExpInputIsFlushed) {
  // A caller-supplied exp(-x^2) that has already degraded to a subnormal or
  // to zero (large r near the cutoff with a large splitting parameter) must
  // not surface as denormal garbage.
  const double subnormal = 4.9406564584124654e-324;  // smallest subnormal
  EXPECT_EQ(fastmath::erfc_from_exp(30.0, subnormal), 0.0);
  EXPECT_EQ(fastmath::erfc_from_exp(30.0, 0.0), 0.0);
  // In-range x with an (unphysical) subnormal expmx2: the blend may pick the
  // mid-range rational, but the result must never be subnormal.
  const double v = fastmath::erfc_from_exp(3.0, subnormal);
  EXPECT_NE(std::fpclassify(v), FP_SUBNORMAL);
}

TEST(FastMath, ErfcNegativeArgumentFallsBackToOne) {
  // The kernels only pass beta * r >= 0; the domain clamp gives negative
  // arguments the defined limit value 1 instead of garbage.
  EXPECT_DOUBLE_EQ(fastmath::fast_erfc(-0.0), 1.0);
  EXPECT_DOUBLE_EQ(fastmath::fast_erfc(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(fastmath::fast_erfc(-1e6), 1.0);
}

TEST(FastMath, ExpUnderflowBoundaryNeverReturnsSubnormal) {
  // The clamp keeps every output either exactly 0 or a normal double: the
  // smallest non-zero output is exp(-708) ~ 3.3e-308, above the 2.2e-308
  // normal minimum.
  for (double x : {-707.0, -708.0, -708.0 - 1e-9, -709.0, -710.0, -745.0,
                   -746.0, -1e4}) {
    const double v = fastmath::fast_exp(x);
    EXPECT_TRUE(v == 0.0 || std::fpclassify(v) == FP_NORMAL) << "x = " << x;
  }
  EXPECT_EQ(std::fpclassify(fastmath::fast_exp(-708.0)), FP_NORMAL);
  EXPECT_EQ(fastmath::fast_exp(-709.0), 0.0);
  // Overflow edge: finite just below the clamp, +inf above it.
  EXPECT_TRUE(std::isfinite(fastmath::fast_exp(709.0)));
  EXPECT_TRUE(std::isinf(fastmath::fast_exp(709.1)));
}

TEST(FastMath, ErfcFromExpConsistent) {
  for (double x = 0.0; x <= 8.0; x += 0.01) {
    EXPECT_DOUBLE_EQ(fastmath::fast_erfc(x),
                     fastmath::erfc_from_exp(x, fastmath::fast_exp(-x * x)));
    // Feeding the libm exp changes nothing beyond ulp noise.
    EXPECT_NEAR(fastmath::erfc_from_exp(x, std::exp(-x * x)), std::erfc(x),
                1e-13);
  }
}

// The previous fast_exp, kept as the reference for the bit-equality tests:
// its floor went through an int64 conversion, which has no SSE2/AVX2
// vector form. The shipped version must reproduce it bit for bit.
double reference_fast_exp(double x) {
  constexpr double kLog2E = 1.4426950408889634073599;
  constexpr double kC1 = 6.93145751953125e-1;
  constexpr double kC2 = 1.42860682030941723212e-6;
  constexpr double kP0 = 1.26177193074810590878e-4;
  constexpr double kP1 = 3.02994407707441961300e-2;
  constexpr double kP2 = 9.99999999999999999910e-1;
  constexpr double kQ0 = 3.00198505138664455042e-6;
  constexpr double kQ1 = 2.52448340349684104192e-3;
  constexpr double kQ2 = 2.27265548208155028766e-1;
  constexpr double kQ3 = 2.00000000000000000005e0;
  const double x_in = x;
  x = x < -708.0 ? -708.0 : (x > 709.0 ? 709.0 : x);
  double nf = kLog2E * x + 0.5;
  nf = static_cast<double>(static_cast<std::int64_t>(nf) -
                           (nf < 0.0 ? 1 : 0));
  const auto n = static_cast<std::int64_t>(nf);
  x -= nf * kC1;
  x -= nf * kC2;
  const double xx = x * x;
  const double p = x * ((kP0 * xx + kP1) * xx + kP2);
  const double q = ((kQ0 * xx + kQ1) * xx + kQ2) * xx + kQ3;
  double r = 1.0 + 2.0 * p / (q - p);
  r *= std::bit_cast<double>(static_cast<std::uint64_t>(n + 1023) << 52);
  r = x_in < -708.0 ? 0.0 : r;
  return x_in > 709.0 ? std::bit_cast<double>(0x7ff0000000000000ULL) : r;
}

// The previous erfc_from_exp, with its nested range select.
double reference_erfc_from_exp(double x, double expmx2) {
  const double x2 = x * x;
  const double p_lo = ((-0.356098437018154e-1 * x2 + 0.699638348861914e1) * x2 +
                       0.219792616182942e2) * x2 +
                      0.242667955230532e3;
  const double q_lo =
      ((x2 + 0.150827976304078e2) * x2 + 0.911649054045149e2) * x2 +
      0.215058875869861e3;
  const double erfc_lo = 1.0 - x * p_lo / q_lo;
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
  double r = x <= 0.5 ? erfc_lo : (x < 4.0 ? erfc_mid : erfc_hi);
  r = x >= fastmath::kErfcUnderflowCut ? 0.0 : r;
  r = r < 2.2250738585072014e-308 ? 0.0 : r;
  return x < 0.0 ? 1.0 : r;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// x and its `width` nextafter neighbours on each side.
void add_neighbours(std::vector<double>& xs, double x, int width) {
  double lo = x, hi = x;
  xs.push_back(x);
  for (int k = 0; k < width; ++k) {
    lo = std::nextafter(lo, -std::numeric_limits<double>::infinity());
    hi = std::nextafter(hi, std::numeric_limits<double>::infinity());
    xs.push_back(lo);
    xs.push_back(hi);
  }
}

constexpr int kSeededInputs = 10'000'000;

TEST(FastMath, ExpBitEqualToInt64FloorVersion) {
  // The inputs where the two floors could part: log2(e) x + 0.5 landing
  // on a negative integer (where trunc - 1 is not floor) or on a
  // half-integer (where round-to-nearest ties), the clamp edges, signed
  // zeros and infinities.
  constexpr double kLog2E = 1.4426950408889634073599;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> edge;
  for (int m = -1030; m <= 1030; ++m) {
    add_neighbours(edge, (m - 0.5) / kLog2E, 4);  // nf near the integer m
    add_neighbours(edge, m / kLog2E, 4);          // nf near m + 0.5
  }
  for (double x : {708.0, 709.0, -708.0, -709.0}) add_neighbours(edge, x, 8);
  for (double x : {0.0, -0.0, inf, -inf, 1e300, -1e300}) edge.push_back(x);
  int on_negative_integer = 0;
  for (double x : edge) {
    const double nf = kLog2E * x + 0.5;
    on_negative_integer += nf < 0.0 && nf == std::trunc(nf);
    ASSERT_EQ(bits(fastmath::fast_exp(x)), bits(reference_fast_exp(x)))
        << "x = " << x;
  }
  // The edge set really reaches the case the old floor special-cased.
  EXPECT_GT(on_negative_integer, 100);

  // Seeded bulk: the kernels' domain (-(beta r)^2, -r/rho) and the whole
  // clamped range.
  std::mt19937_64 rng(20260917);
  std::uniform_real_distribution<double> kernel(-60.0, 1.0);
  std::uniform_real_distribution<double> full(-760.0, 720.0);
  int mismatches = 0;
  double first = 0.0;
  for (int i = 0; i < kSeededInputs; ++i) {
    const double x = (i & 1) ? kernel(rng) : full(rng);
    if (bits(fastmath::fast_exp(x)) != bits(reference_fast_exp(x))) {
      if (mismatches++ == 0) first = x;
    }
  }
  EXPECT_EQ(mismatches, 0) << "first at x = " << first;
}

TEST(FastMath, ErfcBitEqualToNestedSelectVersion) {
  std::vector<double> edge;
  for (double x : {0.5, 4.0, fastmath::kErfcUnderflowCut, 1.0, 0.0})
    add_neighbours(edge, x, 16);
  edge.push_back(-0.0);
  edge.push_back(-1.0);
  edge.push_back(std::numeric_limits<double>::infinity());
  for (double x : edge) {
    for (double e : {fastmath::fast_exp(-x * x), std::exp(-x * x), 0.0}) {
      ASSERT_EQ(bits(fastmath::erfc_from_exp(x, e)),
                bits(reference_erfc_from_exp(x, e)))
          << "x = " << x << ", expmx2 = " << e;
    }
  }
  std::mt19937_64 rng(20260918);
  std::uniform_real_distribution<double> dist(0.0, 30.0);
  int mismatches = 0;
  double first = 0.0;
  for (int i = 0; i < kSeededInputs; ++i) {
    const double x = dist(rng);
    const double e = fastmath::fast_exp(-x * x);
    if (bits(fastmath::erfc_from_exp(x, e)) !=
        bits(reference_erfc_from_exp(x, e))) {
      if (mismatches++ == 0) first = x;
    }
  }
  EXPECT_EQ(mismatches, 0) << "first at x = " << first;
}

}  // namespace
}  // namespace mdm

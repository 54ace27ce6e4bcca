#include "util/fixed_point.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/random.hpp"

namespace mdm {
namespace {

TEST(QFormat, RangeAndLsb) {
  const QFormat q{.int_bits = 4, .frac_bits = 4};  // Q4.4, 8-bit word
  EXPECT_EQ(q.total_bits(), 8);
  EXPECT_EQ(q.raw_max(), 127);
  EXPECT_EQ(q.raw_min(), -128);
  EXPECT_DOUBLE_EQ(q.lsb(), 1.0 / 16.0);
  EXPECT_DOUBLE_EQ(q.max_value(), 127.0 / 16.0);
  EXPECT_DOUBLE_EQ(q.min_value(), -8.0);
  EXPECT_TRUE(q.valid());
  EXPECT_FALSE((QFormat{.int_bits = 40, .frac_bits = 40}.valid()));
}

TEST(Fixed, RoundTripExactValues) {
  const QFormat q{.int_bits = 8, .frac_bits = 8};
  for (double v : {0.0, 1.0, -1.0, 0.5, -0.25, 3.875, -7.0}) {
    EXPECT_DOUBLE_EQ(Fixed::from_double(v, q).to_double(), v) << v;
  }
}

TEST(Fixed, QuantizationErrorBoundedByHalfLsb) {
  const QFormat q{.int_bits = 8, .frac_bits = 12};
  for (double v = -3.0; v < 3.0; v += 0.01237) {
    const double r = Fixed::from_double(v, q).to_double();
    EXPECT_LE(std::fabs(r - v), 0.5 * q.lsb() + 1e-15) << v;
  }
}

TEST(Fixed, SaturatesInsteadOfWrapping) {
  const QFormat q{.int_bits = 4, .frac_bits = 4};
  EXPECT_DOUBLE_EQ(Fixed::from_double(100.0, q).to_double(), q.max_value());
  EXPECT_DOUBLE_EQ(Fixed::from_double(-100.0, q).to_double(), q.min_value());
  // Saturating add.
  const Fixed big = Fixed::from_double(7.0, q);
  EXPECT_DOUBLE_EQ(add(big, big).to_double(), q.max_value());
  const Fixed low = Fixed::from_double(-8.0, q);
  EXPECT_DOUBLE_EQ(add(low, low).to_double(), q.min_value());
}

TEST(Fixed, AddSubExact) {
  const QFormat q{.int_bits = 16, .frac_bits = 16};
  const Fixed a = Fixed::from_double(1.25, q);
  const Fixed b = Fixed::from_double(-0.75, q);
  EXPECT_DOUBLE_EQ(add(a, b).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(sub(a, b).to_double(), 2.0);
}

TEST(Fixed, AddRejectsFormatMismatch) {
  const Fixed a = Fixed::from_double(1.0, {.int_bits = 8, .frac_bits = 8});
  const Fixed b = Fixed::from_double(1.0, {.int_bits = 8, .frac_bits = 9});
  EXPECT_THROW(add(a, b), std::invalid_argument);
}

TEST(Fixed, MulProducesRequestedFormat) {
  const QFormat in{.int_bits = 8, .frac_bits = 8};
  const QFormat out{.int_bits = 16, .frac_bits = 12};
  const Fixed a = Fixed::from_double(1.5, in);
  const Fixed b = Fixed::from_double(-2.25, in);
  const Fixed p = mul(a, b, out);
  EXPECT_EQ(p.format(), out);
  EXPECT_NEAR(p.to_double(), -3.375, out.lsb());
}

TEST(Fixed, MulExactWhenRepresentable) {
  const QFormat in{.int_bits = 8, .frac_bits = 8};
  // 1.5 * -2.25 = -3.375 has 3 fraction bits -> exact in any f >= 3 format.
  const Fixed p = mul(Fixed::from_double(1.5, in), Fixed::from_double(-2.25, in),
                      {.int_bits = 8, .frac_bits = 16});
  EXPECT_DOUBLE_EQ(p.to_double(), -3.375);
}

TEST(Fixed, ConvertBetweenFormats) {
  const QFormat wide{.int_bits = 8, .frac_bits = 24};
  const QFormat narrow{.int_bits = 8, .frac_bits = 8};
  const Fixed x = Fixed::from_double(1.0 / 3.0, wide);
  const Fixed y = x.convert(narrow);
  EXPECT_NEAR(y.to_double(), 1.0 / 3.0, narrow.lsb());
  // Widening back is exact.
  EXPECT_DOUBLE_EQ(y.convert(wide).to_double(), y.to_double());
}

TEST(Fixed, ConvertSaturatesOnNarrowing) {
  const Fixed x = Fixed::from_double(100.0, {.int_bits = 16, .frac_bits = 8});
  const QFormat narrow{.int_bits = 4, .frac_bits = 4};
  EXPECT_DOUBLE_EQ(x.convert(narrow).to_double(), narrow.max_value());
}

TEST(Fixed, QuantizeHelperMatchesClass) {
  const QFormat q{.int_bits = 8, .frac_bits = 10};
  for (double v = -2.0; v < 2.0; v += 0.0371) {
    EXPECT_DOUBLE_EQ(quantize(v, q), Fixed::from_double(v, q).to_double());
  }
}

/// Property sweep: add is associative-with-saturation monotone, and
/// quantize(quantize(x)) == quantize(x) (idempotence).
class FixedPropertyTest : public ::testing::TestWithParam<int> {};

TEST(Quantizer, BitEqualToQuantize) {
  // The hoisted form must give quantize's exact bits, in the shifter
  // (<= 52-bit) and the nearbyint (wider) regimes: ties to even, the +0 of
  // small negatives, saturation on both sides and infinities.
  Random rng(11);
  const double inf = std::numeric_limits<double>::infinity();
  for (const QFormat fmt :
       {QFormat{.int_bits = 2, .frac_bits = 8},
        QFormat{.int_bits = 2, .frac_bits = 24},
        QFormat{.int_bits = 2, .frac_bits = 50},
        QFormat{.int_bits = 2, .frac_bits = 51},
        QFormat{.int_bits = 8, .frac_bits = 44},
        QFormat{.int_bits = 2, .frac_bits = 61},
        QFormat{.int_bits = 40, .frac_bits = 0}}) {
    const Quantizer q(fmt);
    const double lsb = fmt.lsb();
    std::vector<double> values = {0.0,  -0.0, 0.5 * lsb, -0.5 * lsb,
                                  1.5 * lsb, -1.5 * lsb, 2.5 * lsb,
                                  -0.3 * lsb, fmt.max_value(),
                                  fmt.min_value(), fmt.max_value() + lsb,
                                  fmt.min_value() - lsb, 1e300, -1e300, inf,
                                  -inf};
    for (int k = 0; k < 20000; ++k) {
      const double scale = std::ldexp(1.0, static_cast<int>(rng.uniform_below(
                                               fmt.total_bits() + 8)) -
                                               fmt.frac_bits - 2);
      values.push_back(rng.uniform(-1.0, 1.0) * scale);
      // Exact half-lsb ties around random raw words.
      values.push_back(
          (static_cast<double>(rng.uniform_below(1u << 20)) - 0x1p19 + 0.5) *
          lsb);
    }
    for (const double v : values) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(q(v)),
                std::bit_cast<std::uint64_t>(quantize(v, fmt)))
          << v << " in Q(" << fmt.int_bits << "," << fmt.frac_bits << ")";
      EXPECT_EQ(q.saturates(v), v > fmt.max_value() || v < fmt.min_value());
    }
  }
  EXPECT_THROW(Quantizer(QFormat{.int_bits = 2, .frac_bits = 62}),
               std::invalid_argument);
}

TEST_P(FixedPropertyTest, QuantizeIdempotent) {
  const QFormat q{.int_bits = 8, .frac_bits = GetParam()};
  for (double v = -7.9; v < 7.9; v += 0.137) {
    const double once = quantize(v, q);
    EXPECT_DOUBLE_EQ(quantize(once, q), once);
  }
}

TEST_P(FixedPropertyTest, NegationIsExact) {
  const QFormat q{.int_bits = 8, .frac_bits = GetParam()};
  for (double v = -7.5; v < 7.5; v += 0.31) {
    const Fixed x = Fixed::from_double(v, q);
    EXPECT_DOUBLE_EQ((-x).to_double(), -x.to_double());
  }
}

INSTANTIATE_TEST_SUITE_P(FractionBits, FixedPropertyTest,
                         ::testing::Values(0, 4, 8, 16, 24, 32));

}  // namespace
}  // namespace mdm

#include "mdgrape2/function_evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "mdgrape2/gtables.hpp"
#include "util/random.hpp"
#include "util/statistics.hpp"

namespace mdm::mdgrape2 {
namespace {

TEST(SegmentedTable, RejectsBadConfig) {
  EXPECT_THROW(SegmentedTable::fit([](double) { return 0.0; },
                                   {.x_min = 0.0, .x_max = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(SegmentedTable::fit([](double) { return 0.0; },
                                   {.x_min = 2.0, .x_max = 1.0}),
               std::invalid_argument);
  // Domain spanning more binades than segments.
  EXPECT_THROW(
      SegmentedTable::fit([](double x) { return x; },
                          {.x_min = 1e-300, .x_max = 1e300, .segments = 64}),
      std::invalid_argument);
}

TEST(SegmentedTable, SegmentsPartitionTheDomain) {
  const auto table = SegmentedTable::fit(
      [](double x) { return 1.0 / x; }, {.x_min = 0.01, .x_max = 10.0});
  double prev_hi = 0.0;
  for (int s = 0; s < table.segment_count(); ++s) {
    double lo, hi;
    table.segment_bounds(s, lo, hi);
    EXPECT_LT(lo, hi);
    if (s > 0) EXPECT_DOUBLE_EQ(lo, prev_hi);
    prev_hi = hi;
  }
  EXPECT_GE(prev_hi, 10.0);
  // segment_of maps midpoints back to their segment.
  for (int s = 0; s < table.segment_count(); s += 17) {
    double lo, hi;
    table.segment_bounds(s, lo, hi);
    EXPECT_EQ(table.segment_of(0.5 * (lo + hi)), s);
  }
}

TEST(SegmentedTable, SegmentLookupMatchesIlogbFormula) {
  // The bit-level lookup must agree with the ilogb/ldexp/divide formula of
  // the GRAPE convention for every x, including the clamped edges, with a
  // sub-segment count that is not a power of two.
  const auto table = SegmentedTable::fit(
      [](double x) { return 1.0 / x; },
      {.x_min = 3e-3, .x_max = 37.0, .segments = 1000});
  double lo0, hi0, lo1, hi1;
  table.segment_bounds(0, lo0, hi0);
  table.segment_bounds(table.segment_count() - 1, lo1, hi1);
  const int exp_min = std::ilogb(lo0);
  const int exp_top = std::ilogb(lo1);
  const int per_exp = table.segment_count() / (exp_top - exp_min + 1);
  auto reference = [&](double x) {
    const int e = std::min(std::max(std::ilogb(x), exp_min), exp_top);
    const double mant = x / std::ldexp(1.0, e);
    const int sub = std::min(
        std::max(static_cast<int>((mant - 1.0) * per_exp), 0), per_exp - 1);
    return (e - exp_min) * per_exp + sub;
  };
  Random rng(12);
  for (int k = 0; k < 100000; ++k) {
    const double x = std::exp(rng.uniform(std::log(1e-4), std::log(200.0)));
    ASSERT_EQ(table.segment_of(x), reference(x)) << x;
  }
  for (int s = 0; s < table.segment_count(); ++s) {
    double lo, hi;
    table.segment_bounds(s, lo, hi);
    for (const double x : {lo, std::nextafter(lo, 0.0), std::nextafter(hi, 0.0)})
      ASSERT_EQ(table.segment_of(x), reference(x)) << x;
  }
}

TEST(SegmentedTable, ExactForLowOrderPolynomials) {
  // A quartic interpolator reproduces quartics exactly (up to float
  // storage of coefficients).
  const auto table = SegmentedTable::fit(
      [](double x) { return 3.0 + 2.0 * x - 0.5 * x * x; },
      {.x_min = 0.5, .x_max = 8.0, .segments = 32});
  for (double x = 0.6; x < 7.9; x += 0.0713) {
    const double expected = 3.0 + 2.0 * x - 0.5 * x * x;
    // Absolute floor covers the zero crossing near x ~ 5.16, where float
    // coefficient storage bounds the *absolute*, not relative, error.
    EXPECT_NEAR(table.evaluate(static_cast<float>(x)), expected,
                1e-5 + 2e-6 * std::fabs(expected));
  }
}

TEST(SegmentedTable, OutOfRangeRules) {
  const auto table = SegmentedTable::fit(
      [](double x) { return 1.0 / x; }, {.x_min = 0.5, .x_max = 4.0});
  EXPECT_EQ(table.evaluate(0.0f), 0.0f);    // self-interaction
  EXPECT_EQ(table.evaluate(-1.0f), 0.0f);
  EXPECT_EQ(table.evaluate(4.0f), 0.0f);    // at/beyond cutoff
  EXPECT_EQ(table.evaluate(100.0f), 0.0f);
  // Below-domain clamps to the first representable value, i.e. ~1/x_min
  // evaluated at the binade floor of 0.5 (= 0.5 itself).
  EXPECT_NEAR(table.evaluate(0.01f), 2.0f, 1e-3);
  // In range it is the function.
  EXPECT_NEAR(table.evaluate(1.7f), 1.0 / 1.7, 1e-6);
}

TEST(SegmentedTable, ThrowsWhenEmpty) {
  SegmentedTable empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW(empty.evaluate(1.0f), std::logic_error);
}

/// The paper's accuracy claim: ~1e-7 relative error for the pairwise force,
/// dominated by the single-precision datapath. Check each physical table
/// shape stays below 3e-7 maximum relative error over its domain.
class TableAccuracy
    : public ::testing::TestWithParam<
          std::pair<const char*, double (*)(double)>> {};

TEST_P(TableAccuracy, RelativeErrorAtHardwareResolution) {
  const auto [name, fn] = GetParam();
  const TableConfig cfg{.x_min = 4e-3, .x_max = 16.0};
  const auto table = SegmentedTable::fit(fn, cfg);
  RunningStats err;
  for (double x = cfg.x_min * 1.01; x < 15.9; x *= 1.00113) {
    const double exact = fn(x);
    const double got = table.evaluate(static_cast<float>(x));
    err.add(relative_error(got, exact));
  }
  // Paper: "about 1e-7" relative - the float datapath plus the segment
  // rescaling conditioning give ~1e-7 mean and sub-1e-6 worst case.
  EXPECT_LT(err.max(), 1e-6) << name;
  EXPECT_LT(err.mean(), 2e-7) << name;
}

INSTANTIATE_TEST_SUITE_P(
    PhysicalShapes, TableAccuracy,
    ::testing::Values(
        std::pair{"coulomb_force", &g_coulomb_real_force},
        std::pair{"coulomb_potential", &g_coulomb_real_potential},
        std::pair{"born_mayer", &g_born_mayer_force},
        std::pair{"r6", &g_r6_force}, std::pair{"r8", &g_r8_force}));

TEST(TableAccuracy, LennardJonesRelativeToTermScale) {
  // g_lj = 2 x^-7 - x^-4 crosses zero at x = 2^(1/3); measure error
  // relative to the magnitude of the constituent terms there.
  const TableConfig cfg{.x_min = 4e-3, .x_max = 16.0};
  const auto table = SegmentedTable::fit(g_lennard_jones_force, cfg);
  double worst = 0.0;
  for (double x = cfg.x_min * 1.01; x < 15.9; x *= 1.00113) {
    const double exact = g_lennard_jones_force(x);
    const double got = table.evaluate(static_cast<float>(x));
    const double scale =
        2.0 / std::pow(x, 7) + 1.0 / std::pow(x, 4);  // term magnitudes
    worst = std::max(worst, std::fabs(got - exact) / scale);
  }
  EXPECT_LT(worst, 1e-6);
}

TEST(SegmentedTable, FewerSegmentsDegradeAccuracy) {
  // Ablation hook: 64 segments must be visibly worse than 1024 before the
  // float floor is reached.
  auto max_err = [](int segments) {
    const TableConfig cfg{.x_min = 0.02, .x_max = 16.0, .segments = segments};
    const auto table = SegmentedTable::fit(g_coulomb_real_force, cfg);
    double worst = 0.0;
    for (double x = 0.021; x < 15.9; x *= 1.003) {
      // Compare the double-precision polynomial to isolate interpolation
      // error from float rounding.
      worst = std::max(worst, relative_error(table.evaluate_exact(x),
                                             g_coulomb_real_force(x)));
    }
    return worst;
  };
  const double coarse = max_err(40);
  const double fine = max_err(1024);
  EXPECT_GT(coarse, 20.0 * fine);
}

}  // namespace
}  // namespace mdm::mdgrape2

// The evaluate stage of the native pair kernel is compiled once per ISA
// (real_kernel.hpp). Every variant this CPU runs must write lanes
// byte-identical to the baseline variant's, on blocks that reach every
// select of the expression.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "native/real_kernel.hpp"

namespace mdm::native {
namespace {

using L = PairBlock;

constexpr double kRcut = 10.0;
// beta * r crosses erfc's range seams at r = 1 (0.5) and r = 8 (4.0).
constexpr double kBeta = 0.5;

PairConsts consts(bool tosi_fumi) {
  PairConsts c;
  c.qi_ke = 14.399645 * -1.0;
  c.beta = kBeta;
  c.inv_rho = tosi_fumi ? 1.0 / 0.317 : 0.0;
  c.cutoff2 = kRcut * kRcut;
  return c;
}

/// A seeded block: random pairs out to 1.3 r_cut (so some lanes are
/// masked), then pairs placed on the cutoff, just inside it, and on both
/// sides of the erfc seams. Coulomb-only blocks have all-zero coefficient
/// lanes, as the kernel's rows do.
PairBlock make_block(std::uint64_t seed, bool tosi_fumi) {
  PairBlock b{};
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(-1.3 * kRcut, 1.3 * kRcut);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t k = 0; k < kListBlock; ++k) {
    b.lane[L::kDx][k] = coord(rng);
    b.lane[L::kDy][k] = coord(rng);
    b.lane[L::kDz][k] = coord(rng);
    b.lane[L::kQ][k] = unit(rng) < 0.5 ? 1.0 : -1.0;
    if (tosi_fumi) {
      b.lane[L::kBorn][k] = 0.2 + unit(rng);
      b.lane[L::kC6][k] = 1.0 + 10.0 * unit(rng);
      b.lane[L::kD8][k] = 1.0 + 5.0 * unit(rng);
      b.lane[L::kShift][k] = 1e-3 * unit(rng);
    }
  }
  const double inf = HUGE_VAL;
  const double radii[] = {
      kRcut,                                // r^2 == r_cut^2: masked
      std::nextafter(kRcut, 0.0),           // just inside
      std::nextafter(kRcut, inf),           // just outside
      0.5 / kBeta,                          // beta r == 0.5
      std::nextafter(0.5 / kBeta, 0.0),
      std::nextafter(0.5 / kBeta, inf),
      4.0 / kBeta,                          // beta r == 4.0
      std::nextafter(4.0 / kBeta, 0.0),
      std::nextafter(4.0 / kBeta, inf),
      2.0,
      7.5,
  };
  std::size_t k = 0;
  for (const double r : radii) {
    // Along each axis, with both signs, at spread-out lane positions so
    // they land in different vector slots and in the epilogue.
    for (int axis = 0; axis < 3; ++axis) {
      for (const double sign : {1.0, -1.0}) {
        k = (k + 5) % kListBlock;
        b.lane[L::kDx][k] = axis == 0 ? sign * r : 0.0;
        b.lane[L::kDy][k] = axis == 1 ? sign * r : 0.0;
        b.lane[L::kDz][k] = axis == 2 ? sign * r : 0.0;
      }
    }
  }
  return b;
}

TEST(PairEval, BaselineComesFirst) {
  const auto variants = pair_eval_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_STREQ(variants.front().isa, "baseline");
}

TEST(PairEval, BaselineBlendsMaskedLanesToPositiveZero) {
  PairBlock b = make_block(11, /*tosi_fumi=*/true);
  const PairBlock in = b;
  pair_eval_variants().front().evaluate(b, kListBlock, consts(true));
  int masked = 0;
  for (std::size_t k = 0; k < kListBlock; ++k) {
    const double dx = in.lane[L::kDx][k];
    const double dy = in.lane[L::kDy][k];
    const double dz = in.lane[L::kDz][k];
    if (dx * dx + dy * dy + dz * dz < kRcut * kRcut) {
      EXPECT_EQ(b.lane[L::kCount][k], 1.0) << "lane " << k;
      EXPECT_NE(b.lane[L::kPot][k], 0.0) << "lane " << k;
      continue;
    }
    ++masked;
    EXPECT_EQ(b.lane[L::kCount][k], 0.0) << "lane " << k;
    EXPECT_FALSE(std::signbit(b.lane[L::kPot][k])) << "lane " << k;
    EXPECT_EQ(b.lane[L::kPot][k], 0.0) << "lane " << k;
    EXPECT_EQ(b.lane[L::kVir][k], 0.0) << "lane " << k;
    EXPECT_EQ(b.lane[L::kFx][k], 0.0) << "lane " << k;
  }
  EXPECT_GT(masked, 20);
}

TEST(PairEval, EveryIsaVariantMatchesBaselineBitForBit) {
  const auto variants = pair_eval_variants();
  for (const bool tosi_fumi : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      // Full blocks and lengths that leave a vector epilogue.
      for (const std::size_t len :
           {kListBlock, std::size_t{1}, std::size_t{3}, std::size_t{7},
            std::size_t{61}, kListBlock - 1}) {
        const PairBlock in = make_block(seed, tosi_fumi);
        PairBlock ref = in;
        variants.front().evaluate(ref, len, consts(tosi_fumi));
        for (const PairEvalVariant& v : variants) {
          PairBlock out = in;
          v.evaluate(out, len, consts(tosi_fumi));
          for (std::size_t lane = 0; lane < L::kLanes; ++lane) {
            ASSERT_EQ(std::memcmp(out.lane[lane], ref.lane[lane],
                                  sizeof(ref.lane[lane])),
                      0)
                << v.isa << ": lane " << lane << ", seed " << seed
                << ", len " << len << (tosi_fumi ? ", TF" : ", Coulomb");
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mdm::native

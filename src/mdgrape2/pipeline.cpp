#include "mdgrape2/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "util/lane_isa.hpp"

namespace mdm::mdgrape2 {

namespace {
constexpr std::uint64_t kCoordMask = (std::uint64_t{1} << kCoordBits) - 1;

std::uint64_t quantize_coord(double v, double box) {
  const double frac = v / box;
  auto u = static_cast<std::int64_t>(
      std::nearbyint(frac * static_cast<double>(std::uint64_t{1} << kCoordBits)));
  return static_cast<std::uint64_t>(u) & kCoordMask;
}

/// The minimum-image difference a - b of two 40-bit cyclic words, counted
/// in LSBs: the two's-complement reading of the modular difference. With
/// its sign bit flipped the word is s + 2^39 in [0, 2^40), which converts
/// exactly as the double with IEEE bits 2^52 + word, less 2^52 + 2^39.
/// Branch-free and 64-bit only, so it vectorizes on every ISA.
inline double delta_lsbs(std::uint64_t a, std::uint64_t b) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << (kCoordBits - 1);
  const std::uint64_t biased = ((a - b) & kCoordMask) ^ kSign;
  return std::bit_cast<double>(biased | 0x4330000000000000ull) -
         (0x1p52 + 0x1p39);
}

/// The scale by 2^-40 is exact (a power of two).
constexpr double kCoordLsb = 0x1p-40;
static_assert(kCoordBits == 40);

/// Kept pairs evaluated per round, into stack lanes no table read aliases.
constexpr std::size_t kEvalChunk = 64;

/// Both pipeline modes against the staged j's, in three lane stages:
///  * filter: one loop over every staged j takes the displacement
///    (sign-extended word -> double -> float), r^2 and x = a r^2 in single
///    precision and flags the pairs inside the table domain;
///  * compact: the in-domain pairs in staged order, with each stream's end
///    among them. A pair outside the domain evaluates to g = 0 and adds a
///    signed zero, which leaves a sum that started at +0 bit for bit
///    unchanged (no IEEE sum is -0 unless both terms are);
///  * evaluate: the function evaluator and the b g q (r_vec) products of
///    the kept pairs.
/// Each stream's terms are then summed in j order in double precision (the
/// chip's accumulator; float to double is exact), and each stream's sum is
/// added to `out` in stream order.
template <bool kPotential>
[[gnu::always_inline]] inline PairCount sweep(
    const ForcePass* pass, const StoredParticle& i, JLanes& j, double box,
    std::conditional_t<kPotential, double, Vec3>& out) {
  using Sum = std::conditional_t<kPotential, double, Vec3>;
  if (!pass || pass->table.empty())
    throw std::logic_error("Pipeline: no pass loaded");
  const SegmentedTable& table = pass->table;
  float a_row[kMaxAtomTypes], b_row[kMaxAtomTypes];
  for (int t = 0; t < kMaxAtomTypes; ++t) {
    a_row[t] = static_cast<float>(pass->coefficients.a[i.type][t]);
    b_row[t] = static_cast<float>(pass->coefficients.b[i.type][t]);
  }
  const float x_max = static_cast<float>(table.config().x_max);
  const std::size_t n = j.x.size();
  std::size_t useful = 0;
  // Restrict-qualified output lanes, so the stores need no alias checks.
  [&](float* __restrict dx, float* __restrict dy, float* __restrict dz,
      float* __restrict arg, std::uint32_t* __restrict in) {
    for (std::size_t k = 0; k < n; ++k) {  // filter lanes
      // Single-precision datapath from here to the multiply by r_vec.
      dx[k] = static_cast<float>(delta_lsbs(i.position.x, j.x[k]) * box *
                                 kCoordLsb);
      dy[k] = static_cast<float>(delta_lsbs(i.position.y, j.y[k]) * box *
                                 kCoordLsb);
      dz[k] = static_cast<float>(delta_lsbs(i.position.z, j.z[k]) * box *
                                 kCoordLsb);
      const float r2 = dx[k] * dx[k] + dy[k] * dy[k] + dz[k] * dz[k];
      const float x = a_row[j.type[k]] * r2;
      arg[k] = x;
      in[k] = (x > 0.0f) & (x < x_max);  // SegmentedTable::in_domain
      // Potential mode skips r = 0 outright (self-interaction guard).
      useful += kPotential ? (r2 != 0.0f) & (x < x_max) : in[k];
    }
  }(j.dx.data(), j.dy.data(), j.dz.data(), j.arg.data(), j.in.data());
  const std::size_t streams = j.stream_end.size();
  std::size_t kept = 0;
  for (std::size_t s = 0, k = 0; s < streams; ++s) {
    for (; k < j.stream_end[s]; ++k) {
      j.kept[kept] = static_cast<std::uint32_t>(k);
      kept += j.in[k];
    }
    j.kept_end[s] = static_cast<std::uint32_t>(kept);
  }
  // j's stored charge, or 1 (an exact no-op multiply): a bit blend under a
  // loop-invariant mask, which vectorizes where a select would not.
  const std::uint32_t charge_mask = pass->use_particle_charge ? ~0u : 0u;
  const std::uint32_t one = std::bit_cast<std::uint32_t>(1.0f) & ~charge_mask;
  float terms[3][kEvalChunk];
  Sum sum{};
  std::size_t s = 0;
  for (std::size_t base = 0; base < kept; base += kEvalChunk) {
    const std::size_t len = std::min(kEvalChunk, kept - base);
    for (std::size_t e = 0; e < len; ++e) {  // evaluate lanes
      const std::uint32_t k = j.kept[base + e];
      const float q = std::bit_cast<float>(
          (std::bit_cast<std::uint32_t>(j.charge[k]) & charge_mask) | one);
      const float bg = b_row[j.type[k]] * table.interpolate(j.arg[k]) * q;
      terms[0][e] = kPotential ? bg : bg * j.dx[k];
      terms[1][e] = bg * j.dy[k];
      terms[2][e] = bg * j.dz[k];
    }
    for (std::size_t e = 0; e < len; ++e) {
      // Close every stream that ends before kept pair base + e.
      for (; j.kept_end[s] == base + e; ++s, sum = Sum{}) out += sum;
      if constexpr (kPotential) {
        sum += static_cast<double>(terms[0][e]);
      } else {
        sum.x += static_cast<double>(terms[0][e]);
        sum.y += static_cast<double>(terms[1][e]);
        sum.z += static_cast<double>(terms[2][e]);
      }
    }
  }
  for (; s < streams; ++s, sum = Sum{}) out += sum;
  return {n, useful};
}

// One function per ISA and mode, each inlining the same source.
#define MDM_MDGRAPE2_LANE_VARIANT(isa, attr)                              \
  attr PairCount force_##isa(const ForcePass* pass, const StoredParticle& i, \
                             JLanes& j, double box, Vec3& out) {          \
    return sweep<false>(pass, i, j, box, out);                            \
  }                                                                       \
  attr PairCount potential_##isa(const ForcePass* pass,                   \
                                 const StoredParticle& i, JLanes& j,      \
                                 double box, double& out) {               \
    return sweep<true>(pass, i, j, box, out);                             \
  }
MDM_MDGRAPE2_LANE_VARIANT(baseline, )
MDM_MDGRAPE2_LANE_VARIANT(avx2, MDM_TARGET_AVX2)
MDM_MDGRAPE2_LANE_VARIANT(avx512, MDM_TARGET_AVX512)
#undef MDM_MDGRAPE2_LANE_VARIANT

constexpr decltype(&force_baseline) kForce[3] = {force_baseline, force_avx2,
                                                 force_avx512};
constexpr decltype(&potential_baseline) kPotential[3] = {
    potential_baseline, potential_avx2, potential_avx512};

}  // namespace

void JLanes::stage(Streams streams) {
  std::size_t n = 0;
  for (const auto stream : streams) n += stream.size();
  resize(n);
  stream_end.resize(streams.size());
  kept_end.resize(streams.size());
  std::size_t k = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (const StoredParticle& p : streams[s]) {
      x[k] = p.position.x;
      y[k] = p.position.y;
      z[k] = p.position.z;
      type[k] = p.type;
      charge[k] = p.charge;
      ++k;
    }
    stream_end[s] = static_cast<std::uint32_t>(k);
  }
}

void JLanes::resize(std::size_t n, bool reserve_only) {
  auto fit = [&](auto& v) { reserve_only ? v.reserve(n) : v.resize(n); };
  fit(x), fit(y), fit(z), fit(type), fit(charge), fit(dx), fit(dy), fit(dz);
  fit(arg), fit(in), fit(kept);
}

CyclicCoord to_cyclic(const Vec3& r, double box) {
  return {quantize_coord(r.x, box), quantize_coord(r.y, box),
          quantize_coord(r.z, box)};
}

Vec3 cyclic_delta(const CyclicCoord& a, const CyclicCoord& b, double box) {
  return {delta_lsbs(a.x, b.x) * box * kCoordLsb,
          delta_lsbs(a.y, b.y) * box * kCoordLsb,
          delta_lsbs(a.z, b.z) * box * kCoordLsb};
}

PairCount Pipeline::accumulate_force(const StoredParticle& i, JLanes& j,
                                     double box, Vec3& force) const {
  return lane_variant(kForce)(pass_, i, j, box, force);
}

PairCount Pipeline::accumulate_potential(const StoredParticle& i, JLanes& j,
                                         double box,
                                         double& potential) const {
  return lane_variant(kPotential)(pass_, i, j, box, potential);
}

}  // namespace mdm::mdgrape2

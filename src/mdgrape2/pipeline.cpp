#include "mdgrape2/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

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

/// One pass over the kept lanes: x = a r^2, the exact table-domain mask,
/// the useful count and b g q (r_vec). A kept pair outside this pass's
/// domain has g masked to 0 and adds a signed zero, which leaves a sum
/// that started at +0 bit for bit unchanged (no IEEE sum is -0 unless both
/// terms are). Each stream's terms are summed in j order in double
/// precision (the chip's accumulator; float to double is exact) and the
/// stream sums in stream order into `total` (a potential in .x).
template <bool kPotential>
[[gnu::always_inline]] inline std::size_t evaluate(const ForcePass& pass,
                                                   int i_type, JLanes& j,
                                                   std::size_t kept,
                                                   Vec3& total) {
  const SegmentedTable& table = pass.table;
  const float x_max = static_cast<float>(table.config().x_max);
  // j's stored charge, or 1 (an exact no-op multiply): a bit blend under a
  // loop-invariant mask, which vectorizes where a select would not.
  const std::uint32_t charge_mask = pass.use_particle_charge ? ~0u : 0u;
  const std::uint32_t one = std::bit_cast<std::uint32_t>(1.0f) & ~charge_mask;
  float a_row[kMaxAtomTypes], b_row[kMaxAtomTypes];
  for (int t = 0; t < kMaxAtomTypes; ++t) {
    a_row[t] = static_cast<float>(pass.coefficients.a[i_type][t]);
    b_row[t] = static_cast<float>(pass.coefficients.b[i_type][t]);
  }
  float terms[3][kEvalChunk];
  std::size_t useful = 0;
  Vec3 out{}, sum{};
  std::size_t s = 0;
  for (std::size_t base = 0; base < kept; base += kEvalChunk) {
    const std::size_t len = std::min(kEvalChunk, kept - base);
    for (std::size_t e = 0; e < len; ++e) {  // evaluate lanes
      const std::size_t k = base + e;
      const float r2 = j.kr2[k];
      const float x = a_row[j.ktype[k]] * r2;
      const std::uint32_t in = (x > 0.0f) & (x < x_max);  // in_domain
      // Potential mode skips r = 0 outright (self-interaction guard).
      useful += kPotential ? (r2 != 0.0f) & (x < x_max) : in;
      // Out-of-domain lanes read the table at a clamped x, then mask g.
      const float g = std::bit_cast<float>(
          std::bit_cast<std::uint32_t>(table.interpolate(std::min(x, x_max))) &
          (0u - in));
      const float q = std::bit_cast<float>(
          (std::bit_cast<std::uint32_t>(j.kcharge[k]) & charge_mask) | one);
      const float bg = b_row[j.ktype[k]] * g * q;
      terms[0][e] = kPotential ? bg : bg * j.kdx[k];
      terms[1][e] = bg * j.kdy[k];
      terms[2][e] = bg * j.kdz[k];
    }
    for (std::size_t e = 0; e < len; ++e) {
      // Close every stream that ends before kept pair base + e.
      for (; j.kept_end[s] == base + e; ++s, sum = Vec3{}) out += sum;
      sum.x += static_cast<double>(terms[0][e]);
      if constexpr (!kPotential) {
        sum.y += static_cast<double>(terms[1][e]);
        sum.z += static_cast<double>(terms[2][e]);
      }
    }
  }
  for (; s < j.kept_end.size(); ++s, sum = Vec3{}) out += sum;
  total = out;
  return useful;
}

/// Every pass against the staged j's for one i. One filter loop over the
/// staged set takes the displacement (sign-extended word -> double ->
/// float) and r^2 in single precision and keeps the pairs below i's bound;
/// a scalar compaction lists the kept pairs in staged order, with each
/// stream's end, and one gather copies their lanes contiguously; then one
/// evaluate loop per pass.
[[gnu::always_inline]] inline PairCount sweep(std::span<const LanePass> passes,
                                              const KeepBounds& keep,
                                              const StoredParticle& i,
                                              JLanes& j, double box,
                                              Vec3* sums, PairCount* counts) {
  const std::size_t n = j.x.size();
  const float bound = keep[i.type];
  [&](float* __restrict dx, float* __restrict dy, float* __restrict dz,
      float* __restrict r2, std::uint32_t* __restrict in) {
    for (std::size_t k = 0; k < n; ++k) {  // filter lanes
      dx[k] = static_cast<float>(delta_lsbs(i.position.x, j.x[k]) * box *
                                 kCoordLsb);
      dy[k] = static_cast<float>(delta_lsbs(i.position.y, j.y[k]) * box *
                                 kCoordLsb);
      dz[k] = static_cast<float>(delta_lsbs(i.position.z, j.z[k]) * box *
                                 kCoordLsb);
      r2[k] = dx[k] * dx[k] + dy[k] * dy[k] + dz[k] * dz[k];
      in[k] = r2[k] < bound;
    }
  }(j.dx.data(), j.dy.data(), j.dz.data(), j.r2.data(), j.in.data());
  std::size_t kept = 0;
  for (std::size_t s = 0, k = 0; s < j.stream_end.size(); ++s) {
    for (; k < j.stream_end[s]; ++k) {
      j.kept[kept] = static_cast<std::uint32_t>(k);
      kept += j.in[k];
    }
    j.kept_end[s] = static_cast<std::uint32_t>(kept);
  }
  [&](const std::uint32_t* __restrict idx, float* __restrict kdx,
      float* __restrict kdy, float* __restrict kdz, float* __restrict kr2,
      std::int32_t* __restrict ktype, float* __restrict kcharge) {
    for (std::size_t e = 0; e < kept; ++e) {
      kdx[e] = j.dx[idx[e]];
      kdy[e] = j.dy[idx[e]];
      kdz[e] = j.dz[idx[e]];
      kr2[e] = j.r2[idx[e]];
      ktype[e] = j.type[idx[e]];
      kcharge[e] = j.charge[idx[e]];
    }
  }(j.kept.data(), j.kdx.data(), j.kdy.data(), j.kdz.data(), j.kr2.data(),
    j.ktype.data(), j.kcharge.data());
  PairCount all;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const ForcePass& pass = *passes[p].pass;
    const PairCount c{
        n, passes[p].potential
               ? evaluate<true>(pass, i.type, j, kept, sums[p])
               : evaluate<false>(pass, i.type, j, kept, sums[p])};
    counts[p] += c;
    all += c;
  }
  return all;
}

// One function per ISA, each inlining the same source.
#define MDM_MDGRAPE2_LANE_VARIANT(isa, attr)                                \
  attr PairCount sweep_##isa(std::span<const LanePass> passes,              \
                             const KeepBounds& keep, const StoredParticle& i, \
                             JLanes& j, double box, Vec3* sums,             \
                             PairCount* counts) {                           \
    return sweep(passes, keep, i, j, box, sums, counts);                    \
  }
MDM_MDGRAPE2_LANE_VARIANT(baseline, )
MDM_MDGRAPE2_LANE_VARIANT(avx2, MDM_TARGET_AVX2)
MDM_MDGRAPE2_LANE_VARIANT(avx512, MDM_TARGET_AVX512)
#undef MDM_MDGRAPE2_LANE_VARIANT

constexpr decltype(&sweep_baseline) kSweep[3] = {sweep_baseline, sweep_avx2,
                                                 sweep_avx512};

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
  fit(r2), fit(in), fit(kept), fit(kdx), fit(kdy), fit(kdz), fit(kr2);
  fit(kcharge), fit(ktype);
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

KeepBounds keep_bounds(std::span<const LanePass> passes,
                       std::uint32_t j_types) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  KeepBounds keep{};
  for (const LanePass& lp : passes) {
    if (!lp.pass || lp.pass->table.empty())
      throw std::logic_error("Pipeline: no pass loaded");
    const double x_max = static_cast<float>(lp.pass->table.config().x_max);
    for (int it = 0; it < kMaxAtomTypes; ++it) {
      // The smallest positive a bounds the domain r^2 < x_max / a; in
      // potential mode an a <= 0 makes every r > 0 useful.
      float a_min = kInf;
      bool unbounded = false;
      for (int t = 0; t < kMaxAtomTypes; ++t) {
        const float a = static_cast<float>(lp.pass->coefficients.a[it][t]);
        if (!(j_types >> t & 1u)) continue;
        if (a > 0.0f) a_min = std::min(a_min, a);
        unbounded |= lp.potential && !(a > 0.0f);
      }
      const double r2 = x_max / a_min * (1.0 + 0x1p-20);
      float bound = unbounded ? kInf : static_cast<float>(r2);
      if (bound < r2) bound = std::nextafter(bound, kInf);  // round up
      keep[it] = std::max(keep[it], bound);
    }
  }
  return keep;
}

PairCount sweep_passes(std::span<const LanePass> passes,
                       const KeepBounds& keep, const StoredParticle& i,
                       JLanes& j, double box, Vec3* sums, PairCount* counts) {
  return lane_variant(kSweep)(passes, keep, i, j, box, sums, counts);
}

void Pipeline::load(const ForcePass* pass) {
  pass_ = pass;
  // The potential-mode bound keeps a superset of the force-mode one.
  if (pass && !pass->table.empty()) keep_ = keep_bounds({{{pass, true}}});
}

Vec3 Pipeline::run(bool potential, const StoredParticle& i,
                   std::span<const StoredParticle> j_stream, double box,
                   PairCount& count) {
  const LanePass lp{pass_, potential};
  if (!pass_ || pass_->table.empty())
    throw std::logic_error("Pipeline: no pass loaded");
  lanes_.stage({&j_stream, 1});
  Vec3 sum;
  sweep_passes({&lp, 1}, keep_, i, lanes_, box, &sum, &count);
  return sum;
}

PairCount Pipeline::accumulate_force(const StoredParticle& i,
                                     std::span<const StoredParticle> j_stream,
                                     double box, Vec3& force) {
  PairCount count;
  force += run(false, i, j_stream, box, count);
  return count;
}

PairCount Pipeline::accumulate_potential(
    const StoredParticle& i, std::span<const StoredParticle> j_stream,
    double box, double& potential) {
  PairCount count;
  potential += run(true, i, j_stream, box, count).x;
  return count;
}

}  // namespace mdm::mdgrape2

#include "mdgrape2/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

namespace mdm::mdgrape2 {

namespace {
constexpr std::uint64_t kCoordMask = (std::uint64_t{1} << kCoordBits) - 1;

std::uint64_t quantize_coord(double v, double box) {
  const double frac = v / box;
  auto u = static_cast<std::int64_t>(
      std::nearbyint(frac * static_cast<double>(std::uint64_t{1} << kCoordBits)));
  return static_cast<std::uint64_t>(u) & kCoordMask;
}

double signed_delta(std::uint64_t a, std::uint64_t b, double box) {
  // Two's-complement interpretation of the modular difference gives the
  // minimum image directly: shift the 40-bit word to the top and back to
  // sign-extend it. The scale by 2^-40 is exact (a power of two).
  constexpr int kSpare = 64 - kCoordBits;
  constexpr double kCoordLsb = 1.0 / static_cast<double>(std::uint64_t{1}
                                                         << kCoordBits);
  const auto s = static_cast<std::int64_t>((a - b) << kSpare) >> kSpare;
  return static_cast<double>(s) * box * kCoordLsb;
}

/// One pair as the gather stage leaves it for the evaluate stage.
struct Lane {
  float dx, dy, dz;  ///< minimum-image displacement (single precision)
  float x;           ///< a_ij r^2, the function evaluator's argument
  float b;           ///< b_ij
  float q;           ///< j's stored charge, or 1 (an exact no-op multiply)
};

/// Pairs gathered per evaluate round (a stack buffer).
constexpr std::size_t kLanes = 64;

/// Both pipeline modes over j-streams; `Sum` is Vec3 (force) or double
/// (potential). Each chunk of kLanes pairs runs in two stages. The gather
/// stage takes every pair's displacement and x = a r^2 and keeps only the
/// pairs inside the table domain: a pair outside it evaluates to g = 0 and
/// adds a signed zero, which leaves a sum that started at +0 bit-for-bit
/// unchanged (no IEEE sum is -0 unless both terms are), so dropping it
/// changes nothing. The evaluate stage then runs the function evaluator and
/// the double-precision accumulation over the kept pairs in j order.
template <typename Sum>
PairCount sweep(const ForcePass* pass, const StoredParticle& i,
                Pipeline::Streams j_streams, double box, Sum& out) {
  if (!pass || pass->table.empty())
    throw std::logic_error("Pipeline: no pass loaded");
  constexpr bool kPotential = std::is_same_v<Sum, double>;
  const SegmentedTable& table = pass->table;
  const float x_max = static_cast<float>(table.config().x_max);
  const double* a_row = pass->coefficients.a[i.type];
  const double* b_row = pass->coefficients.b[i.type];
  Lane lanes[kLanes];
  PairCount count;
  for (const auto j_stream : j_streams) {
    Sum sum{};
    for (std::size_t at = 0; at < j_stream.size(); at += kLanes) {
      std::size_t n = 0;
      for (const auto& j :
           j_stream.subspan(at, std::min(kLanes, j_stream.size() - at))) {
        const Vec3 d = cyclic_delta(i.position, j.position, box);
        Lane& l = lanes[n];
        // Single-precision datapath from here to the multiply by r_vec.
        l.dx = static_cast<float>(d.x);
        l.dy = static_cast<float>(d.y);
        l.dz = static_cast<float>(d.z);
        const float r2 = l.dx * l.dx + l.dy * l.dy + l.dz * l.dz;
        l.x = static_cast<float>(a_row[j.type]) * r2;
        l.b = static_cast<float>(b_row[j.type]);
        l.q = pass->use_particle_charge ? j.charge : 1.0f;
        const bool in = table.in_domain(l.x);
        // Potential mode skips r = 0 outright (self-interaction guard).
        if constexpr (kPotential)
          count.useful += (r2 != 0.0f) & (l.x < x_max);
        else
          count.useful += in;
        n += in;
      }
      for (std::size_t k = 0; k < n; ++k) {
        const Lane& l = lanes[k];
        const float bg = l.b * table.interpolate(l.x) * l.q;
        // Accumulation in double (the chip's force accumulator).
        if constexpr (kPotential) {
          sum += static_cast<double>(bg);
        } else {
          sum.x += static_cast<double>(bg * l.dx);
          sum.y += static_cast<double>(bg * l.dy);
          sum.z += static_cast<double>(bg * l.dz);
        }
      }
    }
    count.evaluated += j_stream.size();
    out += sum;
  }
  return count;
}

}  // namespace

CyclicCoord to_cyclic(const Vec3& r, double box) {
  return {quantize_coord(r.x, box), quantize_coord(r.y, box),
          quantize_coord(r.z, box)};
}

Vec3 cyclic_delta(const CyclicCoord& a, const CyclicCoord& b, double box) {
  return {signed_delta(a.x, b.x, box), signed_delta(a.y, b.y, box),
          signed_delta(a.z, b.z, box)};
}

PairCount Pipeline::accumulate_force(const StoredParticle& i,
                                     Streams j_streams, double box,
                                     Vec3& force) const {
  return sweep(pass_, i, j_streams, box, force);
}

PairCount Pipeline::accumulate_potential(const StoredParticle& i,
                                         Streams j_streams, double box,
                                         double& potential) const {
  return sweep(pass_, i, j_streams, box, potential);
}

}  // namespace mdm::mdgrape2

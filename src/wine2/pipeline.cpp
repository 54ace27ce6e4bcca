#include "wine2/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/fixed_point.hpp"
#include "util/lane_isa.hpp"

namespace mdm::wine2 {
namespace {

constexpr std::size_t kL = kWaveLanes;

/// The DFT of slots [begin, end), kL slots per vector. Straight-line per
/// lane, so it vectorizes; each lane sums its own slot in particle order.
template <bool kShifter>
[[gnu::always_inline]] inline std::uint64_t dft(
    const TrigUnit& trig, const WaveRows& rows, std::size_t begin,
    std::size_t end, std::span<const WineParticle> particles,
    DftAccumulator* out) {
  const Quantizer& prod = trig.product();
  std::uint64_t saturated = 0;
  for (std::size_t b = begin; b < end; b += kL) {
    const std::uint64_t* nx = rows.n[0].data() + b;
    const std::uint64_t* ny = rows.n[1].data() + b;
    const std::uint64_t* nz = rows.n[2].data() + b;
    double plus[kL] = {}, minus[kL] = {};
    std::uint64_t sat[kL] = {};
    for (const WineParticle& p : particles) {
      for (std::size_t k = 0; k < kL; ++k) {  // dft lanes
        double s, c;
        trig.sincos<kShifter>(
            nx[k] * p.phase[0] + ny[k] * p.phase[1] + nz[k] * p.phase[2], s,
            c);
        const double vs = p.charge_norm * s;
        const double vc = p.charge_norm * c;
        // 64-bit flags keep every lane value 64 bits wide (one vector mode).
        sat[k] += std::uint64_t{prod.saturates(vs)} + prod.saturates(vc);
        const double qs = prod.round<kShifter>(vs);
        const double qc = prod.round<kShifter>(vc);
        // The wide accumulators add the product grid exactly.
        plus[k] += qs + qc;
        minus[k] += qs - qc;
      }
    }
    // Lanes past `end` are padding, not machine slots.
    for (std::size_t k = 0; k < kL && b + k < end; ++k) {
      out[b + k - begin] = {plus[k], minus[k]};
      saturated += sat[k];
    }
  }
  return saturated;
}

/// The IDFT of up to kL particles, one per lane (spare lanes repeat the
/// last particle and are dropped). Every lane walks the same slot ->
/// pipeline -> chip -> machine tree, each level from +0.
template <bool kShifter>
[[gnu::always_inline]] inline std::uint64_t idft(
    const TrigUnit& trig, const WaveRows& rows, const SumTree& tree,
    std::span<const WineParticle> particles, Vec3* out) {
  const Quantizer& prod = trig.product();
  const std::size_t n = particles.size();
  std::uint64_t px[kL], py[kL], pz[kL];
  for (std::size_t k = 0; k < kL; ++k) {
    const WineParticle& p = particles[std::min(k, n - 1)];
    px[k] = p.phase[0];
    py[k] = p.phase[1];
    pz[k] = p.phase[2];
  }
  double total[3][kL] = {};
  std::uint64_t sat[kL] = {};
  std::size_t slot = 0, pipe = 0;
  for (const std::uint32_t chip_end : tree.chip_end) {
    double chip[3][kL] = {};
    for (; pipe < chip_end; ++pipe) {
      double sum[3][kL] = {};
      for (; slot < tree.pipe_end[pipe]; ++slot) {
        const std::uint64_t nx = rows.n[0][slot], ny = rows.n[1][slot],
                            nz = rows.n[2][slot];
        // The integer wave components, which scale the product exactly.
        const auto fx = static_cast<double>(static_cast<std::int64_t>(nx));
        const auto fy = static_cast<double>(static_cast<std::int64_t>(ny));
        const auto fz = static_cast<double>(static_cast<std::int64_t>(nz));
        const double a = rows.a[slot], s_n = rows.s[slot], c_n = rows.c[slot];
        for (std::size_t k = 0; k < kL; ++k) {  // idft lanes
          double s, c;
          trig.sincos<kShifter>(nx * px[k] + ny * py[k] + nz * pz[k], s, c);
          const double vcs = c_n * s;
          const double vsc = s_n * c;
          const double vt =
              a * (prod.round<kShifter>(vcs) - prod.round<kShifter>(vsc));
          sat[k] += std::uint64_t{prod.saturates(vcs)} +
                    prod.saturates(vsc) + prod.saturates(vt);
          const double t = prod.round<kShifter>(vt);
          sum[0][k] += t * fx;
          sum[1][k] += t * fy;
          sum[2][k] += t * fz;
        }
      }
      for (int axis = 0; axis < 3; ++axis)
        for (std::size_t k = 0; k < kL; ++k) chip[axis][k] += sum[axis][k];
    }
    for (int axis = 0; axis < 3; ++axis)
      for (std::size_t k = 0; k < kL; ++k) total[axis][k] += chip[axis][k];
  }
  std::uint64_t saturated = 0;
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = {total[0][k], total[1][k], total[2][k]};
    saturated += sat[k];
  }
  return saturated;
}

// One function per ISA and rounding path, each inlining the same source.
#define MDM_WINE2_LANE_VARIANT(isa, attr)                                  \
  template <bool kShifter>                                                 \
  attr std::uint64_t dft_##isa(const TrigUnit& t, const WaveRows& r,       \
                               std::size_t b, std::size_t e,               \
                               std::span<const WineParticle> p,            \
                               DftAccumulator* out) {                      \
    return dft<kShifter>(t, r, b, e, p, out);                              \
  }                                                                        \
  template <bool kShifter>                                                 \
  attr std::uint64_t idft_##isa(const TrigUnit& t, const WaveRows& r,      \
                                const SumTree& tree,                       \
                                std::span<const WineParticle> p, Vec3* out) { \
    return idft<kShifter>(t, r, tree, p, out);                             \
  }
MDM_WINE2_LANE_VARIANT(baseline, )
MDM_WINE2_LANE_VARIANT(avx2, MDM_TARGET_AVX2)
MDM_WINE2_LANE_VARIANT(avx512, MDM_TARGET_AVX512)
#undef MDM_WINE2_LANE_VARIANT

// [kShifter][LaneIsa]
constexpr decltype(&dft_baseline<true>) kDft[2][3] = {
    {dft_baseline<false>, dft_avx2<false>, dft_avx512<false>},
    {dft_baseline<true>, dft_avx2<true>, dft_avx512<true>}};
constexpr decltype(&idft_baseline<true>) kIdft[2][3] = {
    {idft_baseline<false>, idft_avx2<false>, idft_avx512<false>},
    {idft_baseline<true>, idft_avx2<true>, idft_avx512<true>}};

}  // namespace

void WaveRows::assign(std::span<const WaveSlot> slots) {
  size = slots.size();
  const std::size_t padded = (size + kL - 1) / kL * kL;
  for (auto& row : n) row.assign(padded, 0);
  a.assign(padded, 0.0);
  s.assign(padded, 0.0);
  c.assign(padded, 0.0);
  for (std::size_t k = 0; k < size; ++k) {
    for (int axis = 0; axis < 3; ++axis)
      n[axis][k] = static_cast<std::uint64_t>(slots[k].n[axis]);
    a[k] = slots[k].a_norm;
    s[k] = slots[k].s_norm;
    c[k] = slots[k].c_norm;
  }
}

std::uint64_t dft_lanes(const TrigUnit& trig, const WaveRows& rows,
                        std::size_t begin, std::size_t end,
                        std::span<const WineParticle> particles,
                        DftAccumulator* out) {
  return lane_variant(kDft[trig.shifter_rounds()])(trig, rows, begin, end,
                                                   particles, out);
}

std::uint64_t idft_lanes(const TrigUnit& trig, const WaveRows& rows,
                         const SumTree& tree,
                         std::span<const WineParticle> particles, Vec3* out) {
  if (particles.empty()) return 0;
  return lane_variant(kIdft[trig.shifter_rounds()])(trig, rows, tree,
                                                    particles, out);
}

Pipeline::Pipeline(const WineFormats& formats, const TrigUnit& trig)
    : trig_(&trig),
      phase_mask_((std::uint64_t{1} << formats.phase_bits) - 1) {}

void Pipeline::load_waves(const std::vector<WaveSlot>& waves) {
  rows_.assign(waves);
  tree_.pipe_end.assign(1, static_cast<std::uint32_t>(waves.size()));
  tree_.chip_end.assign(1, 1);
}

std::vector<DftAccumulator> Pipeline::run_dft(
    std::span<const WineParticle> particles) {
  std::vector<DftAccumulator> acc(rows_.size);
  saturations_ +=
      dft_lanes(*trig_, rows_, 0, rows_.size, particles, acc.data());
  ops_ += static_cast<std::uint64_t>(rows_.size) * particles.size();
  return acc;
}

Vec3 Pipeline::run_idft_particle(const WineParticle& particle) {
  Vec3 f;
  saturations_ += idft_lanes(*trig_, rows_, tree_, {&particle, 1}, &f);
  return f;
}

WineParticle make_wine_particle(const Vec3& position, double box,
                                double charge, double charge_scale,
                                const WineFormats& formats) {
  if (!(charge_scale > 0.0))
    throw std::invalid_argument("charge scale must be positive");
  WineParticle p;
  p.phase[0] = coordinate_phase(position.x, box, formats.phase_bits);
  p.phase[1] = coordinate_phase(position.y, box, formats.phase_bits);
  p.phase[2] = coordinate_phase(position.z, box, formats.phase_bits);
  const QFormat coeff{.int_bits = 2, .frac_bits = formats.coeff_frac_bits};
  p.charge_norm = quantize(charge / charge_scale, coeff);
  return p;
}

}  // namespace mdm::wine2

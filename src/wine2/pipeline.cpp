#include "wine2/pipeline.hpp"

#include <stdexcept>

#include "util/fixed_point.hpp"

namespace mdm::wine2 {

Pipeline::Pipeline(const WineFormats& formats, const TrigUnit& trig)
    : trig_(&trig),
      phase_mask_((std::uint64_t{1} << formats.phase_bits) - 1) {}

void Pipeline::load_waves(std::vector<WaveSlot> waves) {
  waves_ = std::move(waves);
}

std::vector<DftAccumulator> Pipeline::run_dft(
    std::span<const WineParticle> particles) {
  std::vector<DftAccumulator> acc(waves_.size());
  run_dft_into(particles, acc);
  return acc;
}

void Pipeline::run_dft_into(std::span<const WineParticle> particles,
                            std::span<DftAccumulator> out) {
  if (out.size() != waves_.size())
    throw std::invalid_argument("Pipeline: DFT output size mismatch");
  const Quantizer& prod = trig_->product();
  std::uint64_t saturated = 0;
  for (std::size_t w = 0; w < waves_.size(); ++w) {
    double plus = 0.0;
    double minus = 0.0;
    for (const auto& p : particles) {
      double s, c;
      trig_->sincos(wave_phase(waves_[w], p), s, c);
      const double vs = p.charge_norm * s;
      const double vc = p.charge_norm * c;
      saturated += prod.saturates(vs) + prod.saturates(vc);
      const double qs = prod(vs);
      const double qc = prod(vc);
      // The wide accumulators add the product grid exactly.
      plus += qs + qc;
      minus += qs - qc;
    }
    out[w].s_plus_c = plus;
    out[w].s_minus_c = minus;
  }
  ops_.fetch_add(static_cast<std::uint64_t>(waves_.size()) * particles.size(),
                 std::memory_order_relaxed);
  if (saturated) saturations_.fetch_add(saturated, std::memory_order_relaxed);
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

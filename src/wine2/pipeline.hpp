#pragma once

/// \file pipeline.hpp
/// WINE-2 pipeline model (sec. 3.4.4, figs. 6-7). A pipeline owns a set of
/// wavenumber vectors ("wavenumber vectors are loaded into a pipeline before
/// starting the calculation") and runs in one of two modes:
///
///  * DFT mode: for each streamed particle j it computes the inner product
///    theta = 2 pi k_n . r_j in cyclic fixed point, its sine/cosine, scales
///    by q_j and accumulates S_n + C_n and S_n - C_n (the host reconstructs
///    S_n and C_n, eq. 9-10).
///  * IDFT mode: for each streamed particle i it evaluates
///    sum_n a_n [C_n sin(theta) - S_n cos(theta)] k_n  (eq. 11).
///
/// Coefficients (q_j, a_n, S_n, C_n) are block-normalized into [-1, 1] by
/// the driver before upload; the denormalization scales are carried
/// alongside and applied by the host library after download. All pipeline
/// registers are quantized to the configured Q-formats.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "util/fixed_point.hpp"
#include "util/vec3.hpp"
#include "wine2/trig_unit.hpp"

namespace mdm::wine2 {

/// A particle as streamed to the pipelines: per-axis coordinate phases and
/// the normalized charge.
struct WineParticle {
  std::uint64_t phase[3] = {0, 0, 0};
  double charge_norm = 0.0;  ///< q / q_scale, on the coefficient grid
};

/// One wavenumber slot resident in a pipeline.
struct WaveSlot {
  int n[3] = {0, 0, 0};   ///< integer wave triple (k = n / L)
  double a_norm = 0.0;    ///< a_n / a_scale (IDFT)
  double s_norm = 0.0;    ///< S_n / sc_scale (IDFT)
  double c_norm = 0.0;    ///< C_n / sc_scale (IDFT)
};

/// DFT accumulator pair of one wave slot (normalized by q_scale).
struct DftAccumulator {
  double s_plus_c = 0.0;
  double s_minus_c = 0.0;
};

class Pipeline {
 public:
  /// `trig` is the shared sin/cos unit (one per system; pipelines hold a
  /// reference so a 2,240-chip machine does not replicate the table).
  Pipeline(const WineFormats& formats, const TrigUnit& trig);

  // Movable so pipelines can live in a std::vector; the op counters are
  // atomics (see below) and are carried over by value.
  Pipeline(Pipeline&& o) noexcept
      : trig_(o.trig_),
        waves_(std::move(o.waves_)),
        phase_mask_(o.phase_mask_),
        ops_(o.ops_.load(std::memory_order_relaxed)),
        saturations_(o.saturations_.load(std::memory_order_relaxed)) {}
  Pipeline& operator=(Pipeline&& o) noexcept {
    trig_ = o.trig_;
    waves_ = std::move(o.waves_);
    phase_mask_ = o.phase_mask_;
    ops_.store(o.ops_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    saturations_.store(o.saturations_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }

  void load_waves(std::vector<WaveSlot> waves);
  std::size_t wave_count() const { return waves_.size(); }
  std::span<const WaveSlot> waves() const { return waves_; }

  /// DFT mode over a particle stream; returns one accumulator per loaded
  /// wave. Increments the pair-operation counter by waves * particles.
  std::vector<DftAccumulator> run_dft(std::span<const WineParticle> particles);

  /// Allocation-free DFT: writes one accumulator per loaded wave into `out`
  /// (out.size() must equal wave_count()). The step loop uses this form.
  void run_dft_into(std::span<const WineParticle> particles,
                    std::span<DftAccumulator> out);

  /// The resident slots, which the host writes S_n/C_n into for the IDFT.
  std::span<WaveSlot> resident_waves() { return waves_; }

  /// IDFT mode: the (normalized) force accumulation for one particle,
  /// summed over this pipeline's waves. Saturations are counted here; the
  /// wave-particle ops of a pass are counted once by `count_idft_pass`.
  Vec3 run_idft_particle(const WineParticle& particle) {
    const Quantizer& prod = trig_->product();
    std::uint64_t saturated = 0;
    auto product = [&](double v) {
      saturated += prod.saturates(v);
      return prod(v);
    };
    Vec3 f;
    for (const auto& wave : waves_) {
      double s, c;
      trig_->sincos(wave_phase(wave, particle), s, c);
      const double cs = product(wave.c_norm * s);
      const double sc = product(wave.s_norm * c);
      const double t = product(wave.a_norm * (cs - sc));
      // Integer wave components scale the product exactly.
      f.x += t * wave.n[0];
      f.y += t * wave.n[1];
      f.z += t * wave.n[2];
    }
    if (saturated) saturations_.fetch_add(saturated, std::memory_order_relaxed);
    return f;
  }
  /// Count one IDFT pass of `particles` streamed particles.
  void count_idft_pass(std::size_t particles) {
    ops_.fetch_add(static_cast<std::uint64_t>(waves_.size()) * particles,
                   std::memory_order_relaxed);
  }

  std::uint64_t wave_particle_ops() const {
    return ops_.load(std::memory_order_relaxed);
  }
  /// Products that fell outside the Q-format range and were clamped
  /// (hardware saturation, sec. 3.4.4).
  std::uint64_t saturation_count() const {
    return saturations_.load(std::memory_order_relaxed);
  }
  void reset_counter() {
    ops_.store(0, std::memory_order_relaxed);
    saturations_.store(0, std::memory_order_relaxed);
  }

  /// theta(n, particle) as a cyclic phase word (exposed for tests).
  std::uint64_t wave_phase(const WaveSlot& wave,
                           const WineParticle& particle) const {
    // theta/2pi = (n_x u_x + n_y u_y + n_z u_z) mod 1: two's complement
    // multiply-accumulate on the phase words wraps for free.
    std::uint64_t acc = 0;
    for (int axis = 0; axis < 3; ++axis)
      acc += static_cast<std::uint64_t>(
          static_cast<std::int64_t>(wave.n[axis]) *
          static_cast<std::int64_t>(particle.phase[axis]));
    return acc & phase_mask_;
  }

 private:
  const TrigUnit* trig_;
  std::vector<WaveSlot> waves_;
  std::uint64_t phase_mask_;
  /// Atomic (relaxed) because the parallel IDFT streams different particles
  /// through the same pipeline from several threads; the totals are
  /// interleaving-independent.
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> saturations_{0};
};

/// Convert a position/charge to the pipeline's particle format.
WineParticle make_wine_particle(const Vec3& position, double box,
                                double charge, double charge_scale,
                                const WineFormats& formats);

}  // namespace mdm::wine2

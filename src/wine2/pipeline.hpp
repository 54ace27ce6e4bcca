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

/// Slots (DFT) or particles (IDFT) one lane kernel call carries side by
/// side: 8 doubles, one AVX-512 register.
inline constexpr std::size_t kWaveLanes = 8;

/// Resident wave slots as SoA rows, in the machine's dealt order, padded
/// with zero slots to a multiple of kWaveLanes so the DFT lanes never run
/// short. The wave triple is held as two's-complement phase multipliers.
struct WaveRows {
  std::size_t size = 0;  ///< real slots; the rows are padded past it
  std::vector<std::uint64_t> n[3];
  std::vector<double> a, s, c;  ///< a_n, S_n, C_n, normalized

  void assign(std::span<const WaveSlot> slots);
};

/// The IDFT summation tree over the rows: pipeline p sums the slots before
/// pipe_end[p], chip c the pipelines before chip_end[c], the machine the
/// chips, each level from +0 in order. Empty pipelines and chips are left
/// out: the +0 they add changes no sum that started at +0.
struct SumTree {
  std::vector<std::uint32_t> pipe_end;
  std::vector<std::uint32_t> chip_end;
};

/// DFT lanes: slots [begin, end) of `rows` (begin a multiple of
/// kWaveLanes), each slot's S+C and S-C summed in particle order into
/// out[slot - begin]. Returns the products that saturated.
std::uint64_t dft_lanes(const TrigUnit& trig, const WaveRows& rows,
                        std::size_t begin, std::size_t end,
                        std::span<const WineParticle> particles,
                        DftAccumulator* out);

/// IDFT lanes: up to kWaveLanes particles, each summed over `rows` through
/// `tree` into out[k]. Returns the products that saturated.
std::uint64_t idft_lanes(const TrigUnit& trig, const WaveRows& rows,
                         const SumTree& tree,
                         std::span<const WineParticle> particles, Vec3* out);

/// One pipeline on its own (a one-pipeline, one-chip machine); Wine2System
/// runs the same lane kernels over the flattened slots of every pipeline.
class Pipeline {
 public:
  /// `trig` is the shared sin/cos unit (one per system; pipelines hold a
  /// reference so a 2,240-chip machine does not replicate the table).
  Pipeline(const WineFormats& formats, const TrigUnit& trig);

  void load_waves(const std::vector<WaveSlot>& waves);
  std::size_t wave_count() const { return rows_.size; }

  /// DFT mode over a particle stream; returns one accumulator per loaded
  /// wave. Increments the pair-operation counter by waves * particles.
  std::vector<DftAccumulator> run_dft(std::span<const WineParticle> particles);

  /// IDFT mode: the (normalized) force accumulation for one particle,
  /// summed over this pipeline's waves. Counts saturations (not ops).
  Vec3 run_idft_particle(const WineParticle& particle);

  std::uint64_t wave_particle_ops() const { return ops_; }
  /// Products that fell outside the Q-format range and were clamped
  /// (hardware saturation, sec. 3.4.4).
  std::uint64_t saturation_count() const { return saturations_; }
  void reset_counter() { ops_ = saturations_ = 0; }

  /// theta(n, particle) as a cyclic phase word (exposed for tests):
  /// theta/2pi = (n . u) mod 1, a two's complement multiply-accumulate on
  /// the phase words that wraps for free (the lanes compute the same).
  std::uint64_t wave_phase(const WaveSlot& wave,
                           const WineParticle& particle) const {
    std::uint64_t acc = 0;
    for (int axis = 0; axis < 3; ++axis)
      acc += static_cast<std::uint64_t>(wave.n[axis]) * particle.phase[axis];
    return acc & phase_mask_;
  }

 private:
  const TrigUnit* trig_;
  WaveRows rows_;
  SumTree tree_;
  std::uint64_t phase_mask_;
  std::uint64_t ops_ = 0;
  std::uint64_t saturations_ = 0;
};

/// Convert a position/charge to the pipeline's particle format.
WineParticle make_wine_particle(const Vec3& position, double box,
                                double charge, double charge_scale,
                                const WineFormats& formats);

}  // namespace mdm::wine2

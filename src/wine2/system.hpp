#pragma once

/// \file system.hpp
/// The WINE-2 subsystem hierarchy (sec. 3.4, figs. 4-6): 20 clusters x 7
/// boards x 16 chips x 8 pipelines = 17,920 pipelines in the full machine.
/// Wave slots are distributed round-robin over every pipeline; the particle
/// image is broadcast to all boards (16 MB SDRAM of particle memory each).
///
/// The system-level driver also performs the block normalization the real
/// WINE-2 library does: charges, a_n and structure factors are scaled into
/// the pipelines' fixed-point range by powers of two and the scales are
/// reapplied on download.

#include <memory>
#include <vector>

#include "ewald/ewald.hpp"
#include "util/thread_pool.hpp"
#include "wine2/pipeline.hpp"

namespace mdm::wine2 {

struct SystemConfig {
  int clusters = 20;          ///< the paper's machine
  int boards_per_cluster = 7;
  int chips_per_board = 16;
  WineFormats formats = WineFormats::paper();
};

/// 16 MB SDRAM / 16 bytes per stored particle.
inline constexpr std::size_t kBoardParticleCapacity =
    16u * 1024 * 1024 / 16;

/// One WINE-2 chip: 8 pipelines sharing the wave set assigned to the chip.
class Chip {
 public:
  static constexpr int kPipelines = 8;

  Chip(const WineFormats& formats, const TrigUnit& trig);

  /// Distribute wave slots round-robin over the 8 pipelines.
  void load_waves(std::span<const WaveSlot> waves);
  std::size_t wave_count() const;

  /// DFT over the particle stream into `out` (out.size() must equal
  /// wave_count()), in this chip's wave order (pipeline 0's slots, then
  /// pipeline 1's, ...). Writes only into `out`, so chips with disjoint
  /// output ranges can run concurrently.
  void run_dft_into(std::span<const WineParticle> particles,
                    std::span<DftAccumulator> out);

  Pipeline& pipeline(int p) { return pipelines_[p]; }

  /// IDFT partial force for one particle over this chip's waves: each
  /// occupied pipeline's sum, added in pipeline order.
  Vec3 run_idft_particle(const WineParticle& particle) {
    Vec3 f;
    for (int p = 0; p < occupied_; ++p)
      f += pipelines_[p].run_idft_particle(particle);
    return f;
  }
  /// Count one IDFT pass of `particles` particles on every pipeline.
  void count_idft_pass(std::size_t particles);

  std::uint64_t wave_particle_ops() const;
  std::uint64_t saturation_count() const;
  void reset_counters();

 private:
  std::vector<Pipeline> pipelines_;
  /// Pipelines holding waves: slots are dealt round-robin, so a prefix.
  int occupied_ = 0;
};

class Wine2System {
 public:
  explicit Wine2System(SystemConfig config = {});

  int chip_count() const { return static_cast<int>(chips_.size()); }
  int pipeline_count() const { return chip_count() * Chip::kPipelines; }
  const SystemConfig& config() const { return config_; }

  /// Load the wavenumber table; slots are dealt round-robin across chips.
  void load_waves(const KVectorTable& table);
  std::size_t wave_count() const { return wave_order_.size(); }

  /// Upload the particle image (broadcast to all boards in the machine; the
  /// per-board capacity is enforced).
  void set_particles(std::span<const Vec3> positions,
                     std::span<const double> charges, double box);

  /// DFT step (eqs. 9-10): structure factors in the k-vector table's order,
  /// in a member buffer that the next run_dft overwrites.
  const StructureFactors& run_dft();

  /// IDFT step (eq. 11): adds the wavenumber-space force to `forces`
  /// (including the physical prefactor 4 k_e q_i / L^4). The normalized
  /// S_n/C_n are written into the resident wave slots, which DFT mode
  /// ignores, so the machine stays ready for the next run_dft.
  void run_idft(const StructureFactors& sf, std::span<Vec3> forces);

  /// Reciprocal-space energy from structure factors,
  /// E = (k_e / (pi L^3)) sum_n a_n (S_n^2 + C_n^2) - evaluated on the host
  /// (the "pot" of calculate_force_and_pot_wavepart_nooffset).
  double reciprocal_energy(const StructureFactors& sf) const;

  std::uint64_t wave_particle_ops() const;
  /// Fixed-point saturations across every pipeline in the machine.
  std::uint64_t saturation_count() const;
  void reset_counters();

  /// Fan the DFT out over chips and the IDFT over particles on a thread
  /// pool (nullptr = serial). Chips write disjoint accumulator ranges and
  /// particles own disjoint force slots, so both passes are bit-identical
  /// to the serial loops at any pool size.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

 private:
  SystemConfig config_;
  std::unique_ptr<TrigUnit> trig_;
  std::vector<Chip> chips_;

  const KVectorTable* kvectors_ = nullptr;
  std::vector<std::size_t> wave_order_;  ///< table index per dealt slot
  double a_scale_ = 1.0;

  double box_ = 0.0;
  double charge_scale_ = 1.0;
  std::vector<WineParticle> particles_;
  std::vector<double> charges_;

  ThreadPool* pool_ = nullptr;
  /// Chips holding waves: slots are dealt round-robin, so a prefix. Empty
  /// chips add +0 to every partial, so the passes skip them exactly.
  std::size_t occupied_chips_ = 0;
  std::vector<std::size_t> chip_offsets_;  ///< first dealt slot per chip
  std::vector<WaveSlot*> resident_;  ///< the pipeline slot of each dealt slot
  /// Per-step scratch, reused across steps.
  std::vector<DftAccumulator> dft_acc_;
  StructureFactors sf_;
};

}  // namespace mdm::wine2

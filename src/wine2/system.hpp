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

#include <atomic>
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

/// Pipelines per WINE-2 chip; a chip deals its wave slots round-robin
/// over them.
inline constexpr int kPipelinesPerChip = 8;

class Wine2System {
 public:
  explicit Wine2System(SystemConfig config = {});

  int chip_count() const { return chip_count_; }
  int pipeline_count() const { return chip_count() * kPipelinesPerChip; }
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

  /// Fan the DFT out over vectors of wave slots and the IDFT over vectors
  /// of particles on a thread pool (nullptr = serial). Slots write disjoint
  /// accumulators and particles own disjoint force slots, so both passes
  /// are bit-identical to the serial loops at any pool size.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

 private:
  SystemConfig config_;
  int chip_count_ = 0;
  std::unique_ptr<TrigUnit> trig_;

  const KVectorTable* kvectors_ = nullptr;
  /// The resident slots of every pipeline, flattened in dealt order (chip
  /// by chip, each chip pipeline by pipeline), and the IDFT tree over them.
  WaveRows rows_;
  SumTree tree_;
  std::vector<std::size_t> wave_order_;  ///< table index per dealt slot
  double a_scale_ = 1.0;

  double box_ = 0.0;
  double charge_scale_ = 1.0;
  std::vector<WineParticle> particles_;
  std::vector<double> charges_;

  ThreadPool* pool_ = nullptr;
  std::uint64_t ops_ = 0;
  std::atomic<std::uint64_t> saturations_{0};
  /// Per-step scratch, reused across steps.
  std::vector<DftAccumulator> dft_acc_;
  StructureFactors sf_;
};

}  // namespace mdm::wine2

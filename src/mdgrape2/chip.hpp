#pragma once

/// \file chip.hpp
/// MDGRAPE-2 chip model (sec. 3.5.3, fig. 10): four identical pipelines, an
/// atom coefficient RAM holding a_ij/b_ij for up to 32 particle types, and a
/// neighbor-list RAM (present in silicon, unused in the paper's run but
/// modelled here for completeness). Peak throughput of the real chip is one
/// pair interaction per pipeline per 100 MHz cycle (~16 Gflops in the
/// paper's counting).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mdgrape2/pipeline.hpp"

namespace mdm::mdgrape2 {

class Chip {
 public:
  static constexpr int kPipelines = 4;

  /// Load a pass (function table + coefficient RAM contents). Models
  /// MR1SetTable; the previous pass is replaced. The chip reads `pass` in
  /// place (the 64 chips of a machine share one copy), so it must outlive
  /// the chip's use of it; a temporary is moved into the chip instead.
  void load_pass(const ForcePass& pass);
  void load_pass(ForcePass&& pass);
  bool pass_loaded() const { return pass_ && !pass_->table.empty(); }

  /// Compute forces for a batch of i-particles against one j-stream.
  /// i-particles are distributed over the four pipelines round-robin while
  /// the j-stream is broadcast, exactly like the board feeds the chip.
  /// Forces are *accumulated* into `forces` (size == i_batch.size()).
  void calc_forces(std::span<const StoredParticle> i_batch,
                   std::span<const StoredParticle> j_stream, double box,
                   std::span<Vec3> forces);

  /// One i-particle against the j's staged in `j` (the board's 27 cells)
  /// for every pass (sweep_passes).
  void calc(std::span<const LanePass> passes, const KeepBounds& keep,
            const StoredParticle& i, JLanes& j, double box, Vec3* sums,
            PairCount* counts) {
    count(sweep_passes(passes, keep, i, j, box, sums, counts));
  }

  /// --- neighbor-list RAM -------------------------------------------------
  /// Load per-i neighbor lists (indices into a j-particle array).
  void load_neighbor_lists(std::vector<std::vector<std::uint32_t>> lists);
  bool neighbor_lists_loaded() const { return !neighbor_lists_.empty(); }

  /// Compute forces using the neighbor-list RAM: i_batch[k] interacts with
  /// j_particles[idx] for idx in the k-th loaded list.
  void calc_forces_with_neighbor_lists(
      std::span<const StoredParticle> i_batch,
      std::span<const StoredParticle> j_particles, double box,
      std::span<Vec3> forces);

  /// Total pair evaluations since construction (for the performance model).
  std::uint64_t pair_operations() const { return pair_operations_; }
  /// Pairs whose argument fell within the table domain (within r_cut).
  std::uint64_t useful_pair_operations() const { return useful_pairs_; }
  void reset_counters();

 private:
  void count(const PairCount& c) {
    pair_operations_ += c.evaluated;
    useful_pairs_ += c.useful;
  }

  const ForcePass* pass_ = nullptr;
  std::unique_ptr<const ForcePass> owned_pass_;  ///< a moved-in temporary
  Pipeline pipelines_[kPipelines];
  std::vector<std::vector<std::uint32_t>> neighbor_lists_;
  std::uint64_t pair_operations_ = 0;
  std::uint64_t useful_pairs_ = 0;
};

}  // namespace mdm::mdgrape2

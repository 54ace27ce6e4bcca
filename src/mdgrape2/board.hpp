#pragma once

/// \file board.hpp
/// MDGRAPE-2 board model (sec. 3.5.2, fig. 9): two chips fed by an FPGA
/// holding the cell-index counter, cell memory, particle-index counter and
/// 8 MB of SSRAM particle memory. The board implements eqs. 7-8: for every
/// i-particle it scans the 27 cells neighbouring i's cell and streams each
/// cell's contiguous particle range through both chips.
///
/// Notable hardware behaviours reproduced here:
///  * no cutoff test - pairs beyond r_cut are evaluated and the zero tail
///    of the g-table discards them (the N_int_g inflation of eq. 6);
///  * no Newton's third law - every i sees all 27 cells;
///  * particle indices within a cell must be contiguous in memory.

#include <cstdint>
#include <span>
#include <vector>

#include "core/cell_list.hpp"
#include "mdgrape2/chip.hpp"

namespace mdm::mdgrape2 {

/// 8 MB SSRAM / 16 bytes per stored particle.
inline constexpr std::size_t kBoardParticleCapacity = 8u * 1024 * 1024 / 16;

class Board {
 public:
  static constexpr int kChips = 2;

  /// Load the j-side: particle memory (cell-sorted) plus the cell table.
  /// `cells` must have been built over the same positions used to produce
  /// `particles` (in cell order). The board reads both in place (every
  /// board of a machine shares the one image), so they must stay alive and
  /// unchanged while the board runs passes. Throws if the particle memory
  /// capacity is exceeded.
  void load_particles(std::span<const StoredParticle> particles,
                      const CellList& cells);
  /// A temporary image or cell list would dangle.
  void load_particles(std::vector<StoredParticle>&&, const CellList&) = delete;
  void load_particles(std::span<const StoredParticle>, CellList&&) = delete;
  std::size_t loaded_particles() const { return particles_.size(); }

  /// Permanent hardware failure: a failed board refuses further passes
  /// (Mdgrape2System repartitions its i-slice across the survivors).
  void mark_failed() { failed_ = true; }
  bool failed() const { return failed_; }

  /// Run every pass for the given i-particles via the 27-cell scan.
  /// `i_cells[k]` is the cell id of i_batch[k], whose sum of pass p is set
  /// at sums[k * passes.size() + p]; `counts[p]` grows by pass p's work.
  /// `lanes` is the caller's staging scratch (one per thread).
  void calc_cells(std::span<const LanePass> passes, const KeepBounds& keep,
                  std::span<const StoredParticle> i_batch,
                  std::span<const int> i_cells, double box,
                  std::span<Vec3> sums, std::span<PairCount> counts,
                  JLanes& lanes);

  const Chip& chip(int k) const { return chips_[k]; }
  Chip& chip(int k) { return chips_[k]; }

  std::uint64_t pair_operations() const;
  std::uint64_t useful_pair_operations() const;
  void reset_counters();

 private:
  std::span<const StoredParticle> particles_;  // cell-sorted particle memory
  const CellList* cells_ = nullptr;            // cell memory + index counter
  Chip chips_[kChips];
  bool failed_ = false;
};

}  // namespace mdm::mdgrape2

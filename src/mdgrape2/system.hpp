#pragma once

/// \file system.hpp
/// The full MDGRAPE-2 subsystem (sec. 3.5, fig. 8): clusters of two boards
/// each. The paper's current machine has 16 clusters (64 chips, 1 Tflops);
/// the future machine 1,536 chips. Each board receives the full cell-sorted
/// particle image (broadcast over the PCI bus in the real machine) and a
/// slice of the i-particles.

#include <memory>
#include <vector>

#include "core/particle_system.hpp"
#include "mdgrape2/board.hpp"
#include "util/thread_pool.hpp"

namespace mdm::mdgrape2 {

struct SystemConfig {
  int clusters = 16;           ///< paper's current machine
  int boards_per_cluster = 2;
  double cell_margin = 1.0;    ///< cell side = cell_margin * r_cut ("a little
                               ///  larger than r_cut" uses > 1)
};

/// Result of one pass over all boards.
struct PassStats {
  std::uint64_t pair_operations = 0;
  /// Pairs within r_cut (the physically useful subset; eq. 6's inflation
  /// is pair_operations / useful_pairs ~ 27 / (4 pi / 3) ~ 6.4 plus the
  /// missing Newton's-third-law factor of 2).
  std::uint64_t useful_pairs = 0;
  /// Pair operations of the busiest board (load-balance indicator).
  std::uint64_t max_board_pairs = 0;
};

/// One pass of a fused run, read in place, and the array its sums are
/// added to (indexed like the ParticleSystem): `forces` for a force-mode
/// pass, `potentials` for a potential-mode one.
struct PassTarget {
  const ForcePass* pass = nullptr;
  std::span<Vec3> forces = {};
  std::span<double> potentials = {};
};

class Mdgrape2System {
 public:
  explicit Mdgrape2System(SystemConfig config = {});

  int board_count() const { return static_cast<int>(boards_.size()); }
  int chip_count() const { return board_count() * Board::kChips; }
  const SystemConfig& config() const { return config_; }

  /// Permanently fail board `b` (fault injection / hardware loss): its
  /// i-slice is redistributed across the surviving boards on subsequent
  /// passes, so the system degrades gracefully instead of dying. Logged
  /// and counted ("mdgrape2.board_failures"); throws std::out_of_range on a
  /// bad index. Failing the last alive board makes the next pass throw.
  void fail_board(int b);
  bool board_failed(int b) const;
  int alive_board_count() const;

  /// Upload positions/types: builds the cell decomposition (cell side >=
  /// r_cut), sorts particles by cell and broadcasts the image to every
  /// board. Must be called whenever positions change.
  void load_particles(const ParticleSystem& system, double r_cut);

  /// Run every target's pass in one sweep (DESIGN.md §3), with the bits,
  /// stats and counters of running them one at a time in order. The
  /// i-range is partitioned across boards. Returns each target's stats,
  /// valid until the next call.
  std::span<const PassStats> run_passes(std::span<const PassTarget> targets);

  /// One force pass; adds b g(a r^2) r_vec sums into `forces`.
  PassStats run_force_pass(const ForcePass& pass, std::span<Vec3> forces);

  /// One potential pass; adds per-particle scalars into `potentials`.
  PassStats run_potential_pass(const ForcePass& pass,
                               std::span<double> potentials);

  /// Number of particles currently loaded.
  std::size_t loaded_particles() const { return stored_.size(); }
  /// Cells per side of the current decomposition.
  int cells_per_side() const { return cells_ ? cells_->cells_per_side() : 0; }

  /// Cumulative pair operations over all boards since the last reset.
  std::uint64_t pair_operations() const;
  std::uint64_t useful_pair_operations() const;
  void reset_counters();

  /// Run passes with the boards fanned out over a thread pool (nullptr =
  /// serial). Boards own disjoint contiguous i-slices and are fully
  /// self-contained, so the parallel pass is bit-identical to the serial
  /// one at any pool size.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

 private:
  SystemConfig config_;
  std::vector<std::unique_ptr<Board>> boards_;
  std::unique_ptr<CellList> cells_;
  double cell_side_ = 0.0;  ///< minimum cell side cells_ was built for
  double box_ = 0.0;
  /// Cell-sorted particle image plus the original index of each slot.
  std::vector<StoredParticle> stored_;
  std::vector<std::uint32_t> original_index_;
  std::vector<int> cell_of_slot_;
  ThreadPool* pool_ = nullptr;
  std::uint32_t types_loaded_ = 0;  ///< a bit per particle type loaded
  /// Per-run scratch, reused across steps (no steady-state allocations).
  std::vector<LanePass> passes_;
  std::vector<Vec3> slot_sums_;
  std::vector<PairCount> board_counts_;
  std::vector<PassStats> stats_;
  std::vector<std::size_t> alive_boards_;
  /// Staging lanes, one per thread running boards.
  std::vector<JLanes> lanes_;
};

}  // namespace mdm::mdgrape2

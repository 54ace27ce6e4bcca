#include "mdgrape2/board.hpp"

#include <array>
#include <stdexcept>

namespace mdm::mdgrape2 {

void Board::load_particles(std::span<const StoredParticle> particles,
                           const CellList& cells) {
  if (particles.size() > kBoardParticleCapacity)
    throw std::length_error(
        "Board: particle memory capacity exceeded (8 MB SSRAM)");
  particles_ = particles;
  cells_ = &cells;
}

void Board::calc_cells(std::span<const LanePass> passes,
                       const KeepBounds& keep,
                       std::span<const StoredParticle> i_batch,
                       std::span<const int> i_cells, double box,
                       std::span<Vec3> sums, std::span<PairCount> counts,
                       JLanes& lanes) {
  if (failed_)
    throw std::logic_error("Board: pass issued to a failed board");
  if (particles_.empty() && !i_batch.empty())
    throw std::logic_error("Board: particle memory not loaded");
  const std::size_t np = passes.size();
  if (i_batch.size() != i_cells.size() ||
      i_batch.size() * np != sums.size() || counts.size() != np)
    throw std::invalid_argument("Board: batch size mismatch");
  // The cell-index counter: the 27 contiguous particle-memory ranges
  // around i's cell, in scan order. The i-batch is cell-sorted, so they
  // change once per cell, and are staged into the lanes then. The two
  // chips split the i-batch; each sees the same j-streams.
  std::array<std::span<const StoredParticle>, 27> streams;
  int cell = -1;
  for (std::size_t k = 0; k < i_batch.size(); ++k) {
    if (i_cells[k] != cell) {
      cell = i_cells[k];
      const auto neighbors = cells_->neighbors27(cell);
      for (int c = 0; c < 27; ++c) {
        const auto r = cells_->cell_range(neighbors[c]);
        streams[c] = particles_.subspan(r.begin, r.end - r.begin);
      }
      lanes.stage(streams);
    }
    chips_[k % kChips].calc(passes, keep, i_batch[k], lanes, box,
                            sums.data() + k * np, counts.data());
  }
}

std::uint64_t Board::pair_operations() const {
  std::uint64_t total = 0;
  for (const auto& chip : chips_) total += chip.pair_operations();
  return total;
}

std::uint64_t Board::useful_pair_operations() const {
  std::uint64_t total = 0;
  for (const auto& chip : chips_) total += chip.useful_pair_operations();
  return total;
}

void Board::reset_counters() {
  for (auto& chip : chips_) chip.reset_counters();
}

}  // namespace mdm::mdgrape2

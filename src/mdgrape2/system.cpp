#include "mdgrape2/system.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/logger.hpp"
#include "obs/metrics.hpp"
#include "obs/step_breakdown.hpp"
#include "obs/trace.hpp"

namespace mdm::mdgrape2 {
namespace {

/// One pass's worth of board counters into the global registry. Each
/// streamed j-particle costs one g-table interpolation in the pipeline, so
/// table lookups track pair operations one-to-one.
void report_pass(const PassStats& stats, bool degraded) {
  auto& reg = obs::Registry::global();
  static obs::Counter& passes = reg.counter("mdgrape2.passes");
  static obs::Counter& pair_ops = reg.counter("mdgrape2.pair_ops");
  static obs::Counter& useful = reg.counter("mdgrape2.useful_pairs");
  static obs::Counter& lookups = reg.counter("mdgrape2.table_lookups");
  static obs::Counter& degraded_passes =
      reg.counter("mdgrape2.degraded_passes");
  passes.add(1);
  pair_ops.add(stats.pair_operations);
  useful.add(stats.useful_pairs);
  lookups.add(stats.pair_operations);
  if (degraded) degraded_passes.add(1);
}

}  // namespace

Mdgrape2System::Mdgrape2System(SystemConfig config) : config_(config) {
  if (config_.clusters < 1 || config_.boards_per_cluster < 1)
    throw std::invalid_argument("Mdgrape2System: bad topology");
  if (config_.cell_margin < 1.0)
    throw std::invalid_argument(
        "Mdgrape2System: cell side must be at least r_cut");
  const int n = config_.clusters * config_.boards_per_cluster;
  boards_.reserve(n);
  for (int i = 0; i < n; ++i) boards_.push_back(std::make_unique<Board>());
}

void Mdgrape2System::load_particles(const ParticleSystem& system,
                                    double r_cut) {
  obs::ScopedPhase host_phase(obs::Phase::kHost);
  MDM_TRACE_SCOPE("mdgrape2.load_particles");
  box_ = system.box();
  // The cell memory is rebuilt in place unless the geometry changed.
  const double cell_side = r_cut * config_.cell_margin;
  if (!cells_ || cells_->box() != box_ || cell_side_ != cell_side) {
    cells_ = std::make_unique<CellList>(box_, cell_side);
    cell_side_ = cell_side;
  }
  if (cells_->cells_per_side() < 3)
    throw std::invalid_argument(
        "Mdgrape2System: cell-index method needs >= 3 cells per side "
        "(box >= 3 r_cut); the 27-cell scan would double count otherwise");
  cells_->build(system.positions());

  const auto order = cells_->order();
  stored_.resize(order.size());
  original_index_.assign(order.begin(), order.end());
  cell_of_slot_.resize(order.size());
  types_loaded_ = 0;
  for (std::size_t slot = 0; slot < order.size(); ++slot) {
    const auto p = order[slot];
    stored_[slot].position = to_cyclic(system.positions()[p], box_);
    stored_[slot].type = system.type(p);
    types_loaded_ |= 1u << (system.type(p) % kMaxAtomTypes);
  }
  for (int c = 0; c < cells_->cell_count(); ++c) {
    const auto range = cells_->cell_range(c);
    for (auto slot = range.begin; slot < range.end; ++slot)
      cell_of_slot_[slot] = c;
  }
  // Broadcast the image to every alive board (PCI write in the real
  // machine; failed boards are off the bus). The boards read this one
  // system-owned image in place.
  for (auto& board : boards_)
    if (!board->failed()) board->load_particles(stored_, *cells_);
}

void Mdgrape2System::fail_board(int b) {
  if (b < 0 || b >= board_count())
    throw std::out_of_range("Mdgrape2System: bad board index");
  if (boards_[b]->failed()) return;
  boards_[b]->mark_failed();
  static obs::Counter& failures =
      obs::Registry::global().counter("mdgrape2.board_failures");
  failures.add(1);
  MDM_LOG_WARN(
      "mdgrape2: board %d failed permanently; redistributing its i-slice "
      "across %d surviving boards",
      b, alive_board_count());
}

bool Mdgrape2System::board_failed(int b) const {
  if (b < 0 || b >= board_count())
    throw std::out_of_range("Mdgrape2System: bad board index");
  return boards_[b]->failed();
}

int Mdgrape2System::alive_board_count() const {
  int alive = 0;
  for (const auto& board : boards_)
    if (!board->failed()) ++alive;
  return alive;
}

PassStats Mdgrape2System::run_force_pass(const ForcePass& pass,
                                         std::span<Vec3> forces) {
  if (pass.potential_mode)
    throw std::invalid_argument("Mdgrape2System: pass is potential-mode");
  const PassTarget target{&pass, forces, {}};
  return run_passes({&target, 1})[0];
}

PassStats Mdgrape2System::run_potential_pass(const ForcePass& pass,
                                             std::span<double> potentials) {
  if (!pass.potential_mode)
    throw std::invalid_argument("Mdgrape2System: pass is force-mode");
  const PassTarget target{&pass, {}, potentials};
  return run_passes({&target, 1})[0];
}

std::span<const PassStats> Mdgrape2System::run_passes(
    std::span<const PassTarget> targets) {
  if (!cells_) throw std::logic_error("Mdgrape2System: particles not loaded");
  const std::size_t n = stored_.size();
  passes_.clear();
  for (const PassTarget& t : targets) {
    const bool potential = t.pass && t.pass->potential_mode;
    if ((potential ? t.potentials.size() : t.forces.size()) != n)
      throw std::invalid_argument("Mdgrape2System: output array size mismatch");
    passes_.push_back({t.pass, potential});
  }
  MDM_TRACE_SCOPE("mdgrape2.passes");
  obs::ScopedPhase real_phase(obs::Phase::kRealSpace);

  alive_boards_.clear();
  for (std::size_t b = 0; b < boards_.size(); ++b)
    if (!boards_[b]->failed()) alive_boards_.push_back(b);
  const std::size_t nb = alive_boards_.size();
  if (nb == 0)
    throw std::runtime_error(
        "Mdgrape2System: every board has failed; no hardware left to run "
        "the pass");
  const KeepBounds keep = keep_bounds(passes_, types_loaded_);
  const std::size_t np = passes_.size();
  slot_sums_.resize(n * np);
  board_counts_.assign(boards_.size() * np, PairCount{});

  // Each alive board owns a contiguous i-slice (block partition over
  // cell-sorted slots) and is fully self-contained, so boards run
  // concurrently and the result is bit-identical to the serial loop. When
  // boards have failed, the partition spans the survivors only (graceful
  // degradation).
  // Any 27-cell neighbourhood holds at most n particles (>= 3 cells per
  // side), so lanes reserved for n never grow during a pass.
  lanes_.resize(std::max<std::size_t>(lanes_.size(),
                                      pool_ ? pool_->size() : 1));
  for (auto& lanes : lanes_) lanes.reserve(n);
  auto run_board = [&](std::size_t k, JLanes& lanes) {
    const std::size_t b = alive_boards_[k];
    const std::size_t begin = k * n / nb;
    const std::size_t end = (k + 1) * n / nb;
    if (begin == end) return;
    boards_[b]->calc_cells(
        passes_, keep, std::span(stored_).subspan(begin, end - begin),
        std::span(cell_of_slot_).subspan(begin, end - begin), box_,
        std::span(slot_sums_).subspan(begin * np, (end - begin) * np),
        std::span(board_counts_).subspan(b * np, np), lanes);
  };
  pool_for_items(pool_, nb, [&](unsigned w, std::size_t begin,
                                std::size_t end) {
    for (std::size_t b = begin; b < end; ++b) run_board(b, lanes_[w]);
  });

  stats_.assign(np, PassStats{});
  for (std::size_t p = 0; p < np; ++p) {
    for (std::size_t b = 0; b < boards_.size(); ++b) {
      const PairCount& c = board_counts_[b * np + p];
      stats_[p].pair_operations += c.evaluated;
      stats_[p].useful_pairs += c.useful;
      stats_[p].max_board_pairs =
          std::max<std::uint64_t>(stats_[p].max_board_pairs, c.evaluated);
    }
    report_pass(stats_[p], nb < boards_.size());
  }
  // Each particle's sums are added in pass order, as one pass at a time.
  for (std::size_t slot = 0; slot < n; ++slot) {
    const std::uint32_t i = original_index_[slot];
    for (std::size_t p = 0; p < np; ++p) {
      const Vec3& sum = slot_sums_[slot * np + p];
      if (passes_[p].potential)
        targets[p].potentials[i] += sum.x;
      else
        targets[p].forces[i] += sum;
    }
  }
  return stats_;
}

std::uint64_t Mdgrape2System::pair_operations() const {
  std::uint64_t total = 0;
  for (const auto& board : boards_) total += board->pair_operations();
  return total;
}

std::uint64_t Mdgrape2System::useful_pair_operations() const {
  std::uint64_t total = 0;
  for (const auto& board : boards_)
    total += board->useful_pair_operations();
  return total;
}

void Mdgrape2System::reset_counters() {
  for (auto& board : boards_) board->reset_counters();
}

}  // namespace mdm::mdgrape2

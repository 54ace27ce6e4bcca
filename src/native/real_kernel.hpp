#pragma once

/// \file real_kernel.hpp
/// Real-space pair kernel of the native backend (DESIGN.md §11).
///
/// One fused sweep evaluates the erfc-damped Ewald real-space force (paper
/// eq. 2) and, optionally, the Tosi-Fumi short-range terms (eq. 15) — the
/// work MDGRAPE-2 performs in three separate emulated passes.
///
/// Filter, then evaluate. Unlike the hardware's 27-cell scan (sec. 6.1),
/// the force expression sees only pairs inside the cutoff. Every cell-mode
/// traversal and both branches of one_sided first run an i's candidate
/// ranges, in pieces of at most 256 slots, through a distance-only pass
/// that writes r^2 into a store buffer (it vectorizes), then a branch-free
/// compaction that appends the kept slots in visit order. The filter keeps
/// r^2 < r_cut^2 (1 + 1e-12): under -march=native GCC may contract the two
/// r^2 expressions differently (FMA), so pair_range's own mask stays the
/// authority and a pair kept only by the margin adds exact zeros. Each i
/// meets its kept partners in the dense traversal's order and a dropped
/// pair only ever added +-0 to sums that are never -0, so results are
/// bit-identical to evaluating every candidate.
///
/// The force pass (pair_range) is straight-line arithmetic written with
/// vectorization in mind:
///
///  * minimum image is two compare-blend corrections (positions are
///    pre-wrapped, so |dx| < box), not a libm rounding call;
///  * erfc/exp use the branch-free rationals of core/fastmath.hpp;
///  * the cutoff test is a mask (forces blend to zero), not a branch;
///  * Tosi-Fumi coefficients are per-slot streams pre-gathered per i-species
///    row, so species lookup is one load per slot, never a type lookup;
///  * per-i sums (force, potential, virial) go through small store buffers
///    with a separate accumulation pass, because GCC will not vectorize a
///    floating-point reduction under strict FP semantics.
///
/// The pair loop does NOT auto-vectorize today: GCC 12.2 reports "not
/// vectorized: control flow in loop" for its compute pass at -O3, at
/// -O3 -fno-trapping-math and at -O3 -mavx2 -mfma. To check, compile this
/// file with -fopt-info-vec-all and grep for 'in loop':
///
///   g++ -std=c++20 -O3 -fno-math-errno -Isrc -fopt-info-vec-all -c
///   src/native/real_kernel.cpp -o /dev/null
///
/// Parallel sweeps reuse the repo's fixed-chunk discipline (CellList
/// kPairChunks): the chunk partition depends only on the grid, j-side
/// forces land in per-chunk buffers reduced in chunk order, so results are
/// bit-identical at ANY pool size. The cell list itself is maintained with
/// CellList::build_auto (half-skin displacement tracking): the native
/// backend's accuracy contract is the envelope, not bit-equality across
/// restarts, so it may skip rebuilds the reference path would perform.
///
/// When the grid is too coarse for the half stencil (r_cut > L/3), sweep()
/// walks a skin-padded half pair list instead of all N(N-1)/2 pairs: one
/// bit per pair i < j whose minimum image was below r_cut + kListSkin at
/// the last build, rebuilt when any particle has drifted more than
/// kListSkin/2, after invalidate(), or when N changes. Every pair inside
/// r_cut is on the list, each i meets its partners in ascending j as the
/// full row did, and a skipped pair only ever added exact zeros, so
/// results are bit-identical to sweeping every pair, whenever the list was
/// built. Rows are whole 64-bit words, ~N^2/16 bytes (1 MB at N = 4096;
/// software_parameters reach this mode up to N ~ 6,200, 2.4 MB). Rows are
/// evaluated in blocks of at most 256 entries, as the filtered traversals
/// are, so the store buffers scale with neither N nor cell occupancy and a
/// rebuild never allocates.

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/cell_list.hpp"
#include "core/force_field.hpp"
#include "core/tosi_fumi.hpp"
#include "native/soa.hpp"
#include "util/thread_pool.hpp"

namespace mdm::native {

class NativeRealKernel {
 public:
  struct Config {
    double box = 0.0;
    double beta = 0.0;   ///< alpha / L, 1/A
    double r_cut = 0.0;  ///< A, must be <= L/2
    bool include_tosi_fumi = false;
    /// Subtract phi_sr(r_cut) per pair (serve software-path convention);
    /// forces are unchanged either way.
    bool tf_shift_energy = false;
    TosiFumiParameters tosi_fumi{};
  };

  /// Verlet skin of the N^2-mode pair list, Angstrom.
  static constexpr double kListSkin = 1.0;

  explicit NativeRealKernel(const Config& config);

  /// Newton half-stencil sweep: every unordered in-range pair once, forces
  /// accumulated for both partners. Adds into `forces` (indexed like
  /// soa streams); returns summed pair potential and virial. Bit-identical
  /// for any pool size (nullptr = serial).
  ForceResult sweep(const SoaParticles& soa, std::span<Vec3> forces,
                    ThreadPool* pool = nullptr);

  /// One-sided sweep for the parallel ranks: forces on particles with index
  /// < n_i (the rank's owned particles, listed first) from ALL particles,
  /// Newton's third law forgone exactly like the hardware scan. The
  /// returned potential/virial double-count owned-owned pairs; the caller
  /// halves them (host/parallel_app convention). Serial — each rank is
  /// already one thread.
  ForceResult one_sided(const SoaParticles& soa, std::size_t n_i,
                        std::span<Vec3> forces);

  /// In-range pair interactions evaluated by the last sweep/one_sided call.
  std::uint64_t last_pairs() const { return last_pairs_; }
  /// Pairs that reached the force expression in the last sweep/one_sided
  /// call (the list length in an N^2-mode sweep, the filtered candidates
  /// otherwise) and the number of pair-list builds this kernel has run.
  std::uint64_t last_candidates() const { return last_candidates_; }
  std::uint64_t list_builds() const { return list_builds_; }
  const CellList& cells() const { return cells_; }

  /// Drop the lazy cell-list anchor, the pair list and cached coefficient
  /// rows; the next sweep rebuilds from scratch. Required after checkpoint
  /// restore or any other position teleport (see CellList::invalidate).
  void invalidate() {
    cells_.invalidate();
    list_valid_ = false;
    coef_valid_ = false;
  }

 private:
  struct Acc {
    double fx = 0, fy = 0, fz = 0, pot = 0, vir = 0, pairs = 0;
  };

  /// Maintain the cell list (build_auto, cell mode only) and regather the
  /// sorted streams.
  void prepare(const SoaParticles& soa);
  /// Size the per-chunk scratch for n slots; the store buffers and the
  /// slot block are a fixed kListBlock wide.
  void ensure_scratch(std::size_t n, int chunks);

  /// Slot a against slots[0..len) (at most kListBlock).
  template <bool kNewton>
  void pair_range(std::size_t a, const std::uint32_t* slots, std::size_t len,
                  double* jfx, double* jfy, double* jfz, double* tmp,
                  Acc& acc) const;
  /// Cell-mode and one-sided traversals: filter slot a's candidate ranges
  /// to the padded cutoff, then pair_range the kept slots. Returns the
  /// number of slots evaluated.
  template <bool kNewton, typename Ranges>
  std::size_t filter_eval(std::size_t a, Ranges&& ranges, double* jfx,
                          double* jfy, double* jfz, double* tmp,
                          std::uint32_t* slots, Acc& acc) const;

  /// N^2 mode: rebuild the pair list if stale; returns true if it ran.
  bool maintain_list(const SoaParticles& soa, int chunks, ThreadPool* pool);
  void run_chunk(std::size_t k, int chunks, std::size_t n);

  Config cfg_;
  double inv_rho_ = 0.0;
  double cutoff2_ = 0.0;
  /// phi_sr(r_cut) per type pair (zero unless tf_shift_energy).
  std::array<std::array<double, TosiFumiParameters::kMaxSpecies>,
             TosiFumiParameters::kMaxSpecies>
      shift_{};

  CellList cells_;
  /// Grid too coarse for the half stencil: sweep walks the pair list.
  bool n2_ = false;
  int coef_rows_ = 0;
  bool coef_valid_ = false;
  /// Slot->type stream the coefficient rows were built for; a mismatch
  /// (migration/halo churn in the parallel app) forces a rebuild.
  std::vector<std::int32_t> coef_ts_;

  /// Cell-sorted streams (slot order == CellList::order(); identity in the
  /// N^2 fallback).
  std::vector<double> xs_, ys_, zs_, qs_;
  std::vector<std::int32_t> ts_;
  /// Per-i-species coefficient rows, [ti * n + slot]: Born prefactor, c6,
  /// d8 and energy shift of the (ti, type[slot]) pair.
  std::vector<double> cb_, cc6_, cd8_, csh_;

  /// Per-chunk j-side force accumulators, [chunk * n + slot], kept zero
  /// outside each chunk's dirty range.
  std::vector<double> jfx_, jfy_, jfz_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dirty_;
  struct ChunkTally {
    double pot = 0, vir = 0, pairs = 0;
    std::uint64_t candidates = 0;
  };
  std::vector<ChunkTally> tally_;
  /// Per-chunk store buffers of the two-pass accumulation, 6 lanes of
  /// kListBlock each (lane 0 doubles as the distance passes' r^2 buffer).
  std::vector<double> tmp_;
  std::size_t scr_slots_ = 0;
  int scr_chunks_ = 0;

  /// N^2-mode half pair list: row i is the bit set of partners j > i,
  /// stored from word (i + 1) / 64 of a 64-bit-word row, so bit j % 64 of
  /// row word j / 64 - (i + 1) / 64; row i starts at list_[row_word_[i]].
  std::vector<std::uint64_t> list_;
  std::vector<std::size_t> row_word_;
  /// Positions at the last list build (the drift anchor).
  std::vector<Vec3> anchor_;
  bool list_valid_ = false;
  /// Per-chunk slot block handed to pair_range (decoded list words or
  /// filtered candidates), [chunk * kListBlock + k].
  std::vector<std::uint32_t> block_slots_;

  std::uint64_t last_pairs_ = 0;
  std::uint64_t last_candidates_ = 0;
  std::uint64_t list_builds_ = 0;
};

}  // namespace mdm::native

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
/// that writes the min-imaged dx/dy/dz and r^2 into a PairBlock (it
/// vectorizes), then a branch-free compaction that moves the slots with
/// r^2 < r_cut^2 down to the block's front, in visit order. The filter and
/// the evaluate stage's mask compute r^2 with the same operations in the
/// same order, and mdm_native is built with -ffp-contract=off, so no build
/// fuses one of them into an FMA: they agree on every pair. Each i meets
/// its kept partners in the dense traversal's order and a dropped pair
/// only ever added +-0 to sums that are never -0, so results are
/// bit-identical to evaluating every candidate.
///
/// The force pass runs in three stages over one PairBlock of at most
/// kListBlock pairs:
///
///  * gather (scalar): the min-imaged dx/dy/dz (written by the filter in
///    cell mode, decoded with the list in N^2 mode), q_j and the four
///    Tosi-Fumi coefficients of the (type i, type j) pair, from per-slot
///    rows pre-gathered per i-species, into contiguous lanes;
///  * evaluate: a branch-free pass over the lanes that GCC auto-vectorizes
///    (minimum image is already applied, erfc/exp are the branch-free
///    rationals of core/fastmath.hpp, the cutoff is a bit-AND mask). It
///    writes force, potential, virial and an in-cutoff count back into the
///    same lanes;
///  * scatter/accumulate (scalar): the Newton j-force updates, then the
///    per-i sums, in the order the pairs were gathered.
///
/// The evaluate loop is compiled once per ISA: AVX-512F, AVX2 and the
/// baseline (SSE2 on x86-64, the only variant elsewhere). The kernel picks
/// the widest one the CPU supports, once, at construction; there is no
/// option. Every variant runs the IEEE operations the scalar expression
/// spells out, lane by lane (no FMA: -ffp-contract=off; no reassociation;
/// correctly rounded sqrt and division), so all variants give the same
/// bits as a scalar build. CI compiles this file with
/// -fopt-info-vec-optimized and fails unless the evaluate loop reports
/// "loop vectorized".
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
/// evaluated in blocks of at most kListBlock entries, as the filtered
/// traversals are, so the pair blocks scale with neither N nor cell
/// occupancy and a rebuild never allocates.

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

/// Most pairs in one PairBlock, and the longest candidate piece the
/// cell-mode filter measures at once.
inline constexpr std::size_t kListBlock = 256;

/// The lanes one block of pairs passes through gather -> evaluate ->
/// scatter: pair k's value of lane L is lane[L][k]. The evaluate stage
/// reads the input lanes and overwrites them in place with its outputs.
struct PairBlock {
  enum Lane : std::size_t {
    // Inputs: min-imaged r_i - r_j, q_j, and the (type i, type j) Born
    // prefactor, C6, D8 and energy shift (all zero when Coulomb-only).
    kDx, kDy, kDz, kQ, kBorn, kC6, kD8, kShift, kLanes,
    // Outputs: force on i, pair potential, pair virial, 1 if in cutoff.
    kFx = kDx, kFy = kDy, kFz = kDz, kPot = kQ, kVir = kBorn, kCount = kC6,
  };
  alignas(64) double lane[kLanes][kListBlock];
};

/// Per-i constants of the evaluate stage.
struct PairConsts {
  double qi_ke = 0.0;    ///< k_e q_i
  double beta = 0.0;     ///< alpha / L, 1/A
  double inv_rho = 0.0;  ///< Born-Mayer 1/rho (0 when Coulomb-only)
  double cutoff2 = 0.0;  ///< r_cut^2
};

/// One ISA variant of the evaluate stage: lanes [0, len) of `block`.
struct PairEvalVariant {
  const char* isa;
  void (*evaluate)(PairBlock& block, std::size_t len, const PairConsts& c);
};

/// The evaluate variants this CPU can run, baseline first, widest last;
/// NativeRealKernel runs the last one.
std::span<const PairEvalVariant> pair_eval_variants();

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
  /// Size the per-chunk j-force buffers for n slots, and the scratch for
  /// `workers` threads.
  void ensure_scratch(std::size_t n, int chunks, std::size_t workers);

  /// Slot a against slots[0..len) (at most kListBlock), whose dx/dy/dz
  /// lanes of `block` are filled: gather the rest, evaluate, scatter.
  template <bool kNewton>
  void pair_range(std::size_t a, const std::uint32_t* slots, std::size_t len,
                  double* jfx, double* jfy, double* jfz, PairBlock& block,
                  Acc& acc) const;
  /// Cell-mode and one-sided traversals: filter slot a's candidate ranges
  /// to the cutoff, then pair_range the kept slots. Returns the number of
  /// slots evaluated.
  template <bool kNewton, typename Ranges>
  std::size_t filter_eval(std::size_t a, Ranges&& ranges, double* jfx,
                          double* jfy, double* jfz, PairBlock& block,
                          std::uint32_t* slots, Acc& acc) const;

  /// N^2 mode: rebuild the pair list if stale; returns true if it ran.
  bool maintain_list(const SoaParticles& soa, int chunks, ThreadPool* pool);
  void run_chunk(std::size_t k, int chunks, std::size_t n,
                 std::size_t worker);

  Config cfg_;
  /// The widest evaluate variant this CPU runs.
  decltype(PairEvalVariant::evaluate) evaluate_;
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
  /// Per-thread scratch: the pair block (a lane doubles as the list
  /// build's r^2 buffer) and the slots it holds (decoded list words or
  /// filtered candidates). Nothing in it outlives one i's evaluation, so
  /// which thread runs a chunk does not matter.
  struct Scratch {
    PairBlock block;
    std::array<std::uint32_t, kListBlock> slots;
  };
  std::vector<Scratch> scratch_;
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

  std::uint64_t last_pairs_ = 0;
  std::uint64_t last_candidates_ = 0;
  std::uint64_t list_builds_ = 0;
};

}  // namespace mdm::native

#include "native/real_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/fastmath.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/units.hpp"

namespace mdm::native {
namespace {

const double kTwoOverSqrtPi = 2.0 / std::sqrt(std::numbers::pi);
/// Pair-list rebuild trigger: half the skin, less a margin that absorbs the
/// rounding of the distance arithmetic (~1e-14 A at these lengths).
constexpr double kMaxDrift = 0.5 * NativeRealKernel::kListSkin - 1e-9;

/// Minimum image of a coordinate difference by compare-blend: coordinates
/// are wrapped into [0, box), so at most one correction applies. Both
/// masks read the input d, which lets GCC vectorize a loop around this
/// (the distance passes of the list build and the filter); for |d| < box
/// it equals correcting d in place, bit for bit.
inline double min_image(double d, double box, double half) {
  const double lo = d < -half ? box : 0.0;
  const double hi = d > half ? box : 0.0;
  return d + lo - hi;
}

/// v where `mask` is all-ones, +0.0 where it is +0.0. A bit-AND rather than
/// a ?: blend, which GCC's baseline SSE2 variant would not if-convert.
inline double keep(double v, double mask) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) &
                               std::bit_cast<std::uint64_t>(mask));
}

/// The evaluate stage: lanes [0, len) of b, in place. Straight-line per
/// lane, so it vectorizes; inlined into one function per ISA below.
[[gnu::always_inline]] inline void evaluate_lanes(PairBlock& b,
                                                  std::size_t len,
                                                  const PairConsts& c) {
  using L = PairBlock;
  const double all_ones = std::bit_cast<double>(~std::uint64_t{0});
  for (std::size_t k = 0; k < len; ++k) {  // evaluate loop
    const double dx = b.lane[L::kDx][k];
    const double dy = b.lane[L::kDy][k];
    const double dz = b.lane[L::kDz][k];
    const double qj = b.lane[L::kQ][k];
    const double born = b.lane[L::kBorn][k];
    const double c6 = b.lane[L::kC6][k];
    const double d8 = b.lane[L::kD8][k];
    const double shift = b.lane[L::kShift][k];
    const double r2 = dx * dx + dy * dy + dz * dz;
    const bool in = r2 < c.cutoff2;
    const double mask = in ? all_ones : 0.0;
    // Masked-out lanes evaluate at r = 1 so every intermediate stays
    // finite; their results blend to zero below.
    const double r2g = in ? r2 : 1.0;
    const double r = std::sqrt(r2g);
    const double inv_r = 1.0 / r;
    const double inv_r2 = inv_r * inv_r;
    // Ewald real space, eq. 2.
    const double bx = c.beta * r;
    const double eg = fastmath::fast_exp(-bx * bx);
    const double erfc = fastmath::erfc_from_exp(bx, eg);
    const double qq = c.qi_ke * qj;
    const double pot_c = qq * erfc * inv_r;
    double s = (pot_c + qq * kTwoOverSqrtPi * bx * eg * inv_r) * inv_r2;
    // Tosi-Fumi short range, eq. 15 (the coefficients are zero when the
    // kernel is Coulomb-only, so these lines contribute exactly 0).
    const double be = born * fastmath::fast_exp(-r * c.inv_rho);
    const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
    const double inv_r8 = inv_r6 * inv_r2;
    s += be * c.inv_rho * inv_r - 6.0 * c6 * inv_r8 -
         8.0 * d8 * inv_r8 * inv_r2;
    const double pot = pot_c + be - c6 * inv_r6 - d8 * inv_r8 - shift;
    s = keep(s, mask);
    b.lane[L::kFx][k] = s * dx;
    b.lane[L::kFy][k] = s * dy;
    b.lane[L::kFz][k] = s * dz;
    b.lane[L::kPot][k] = keep(pot, mask);
    b.lane[L::kVir][k] = s * r2;
    b.lane[L::kCount][k] = keep(1.0, mask);
  }
}

void evaluate_baseline(PairBlock& b, std::size_t len, const PairConsts& c) {
  evaluate_lanes(b, len, c);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]] void evaluate_avx2(PairBlock& b, std::size_t len,
                                           const PairConsts& c) {
  evaluate_lanes(b, len, c);
}

[[gnu::target("avx512f")]] void evaluate_avx512f(PairBlock& b,
                                                 std::size_t len,
                                                 const PairConsts& c) {
  evaluate_lanes(b, len, c);
}
#endif

/// Threads for_each_chunk may run chunks on at once.
std::size_t chunk_workers(const ThreadPool* pool) {
  return pool && pool->size() > 1 ? pool->size() : 1;
}

/// Run fn(k, w) for every chunk k, w being the running thread's index below
/// chunk_workers(pool): on the pool when it has workers, inline otherwise.
/// Chunks write disjoint state, so the result is the same.
template <typename Fn>
void for_each_chunk(ThreadPool* pool, int chunks, Fn&& fn) {
  const auto count = static_cast<std::size_t>(chunks);
  if (chunk_workers(pool) > 1) {
    pool_for(
        *pool, count,
        [&](unsigned w, std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k) fn(k, w);
        },
        /*min_parallel=*/0);
  } else {
    for (std::size_t k = 0; k < count; ++k) fn(k, 0);
  }
}

}  // namespace

std::span<const PairEvalVariant> pair_eval_variants() {
  static const std::vector<PairEvalVariant> variants = [] {
    std::vector<PairEvalVariant> v{{"baseline", evaluate_baseline}};
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) v.push_back({"avx2", evaluate_avx2});
    if (__builtin_cpu_supports("avx512f"))
      v.push_back({"avx512f", evaluate_avx512f});
#endif
    return v;
  }();
  return variants;
}

NativeRealKernel::NativeRealKernel(const Config& config)
    : cfg_(config),
      evaluate_(pair_eval_variants().back().evaluate),
      cells_(config.box, config.r_cut),
      n2_(cells_.use_n2_fallback(config.r_cut)) {
  if (!(cfg_.box > 0.0) || !(cfg_.beta > 0.0) || !(cfg_.r_cut > 0.0))
    throw std::invalid_argument("NativeRealKernel: bad parameters");
  if (cfg_.r_cut > 0.5 * cfg_.box + 1e-12)
    throw std::invalid_argument("NativeRealKernel: r_cut must be <= L/2");
  cutoff2_ = cfg_.r_cut * cfg_.r_cut;
  if (cfg_.include_tosi_fumi) {
    if (cfg_.tosi_fumi.species_count > TosiFumiParameters::kMaxSpecies)
      throw std::invalid_argument("NativeRealKernel: too many species");
    inv_rho_ = 1.0 / cfg_.tosi_fumi.rho;
    if (cfg_.tf_shift_energy)
      for (int i = 0; i < cfg_.tosi_fumi.species_count; ++i)
        for (int j = 0; j < cfg_.tosi_fumi.species_count; ++j)
          shift_[i][j] = cfg_.tosi_fumi.pair_energy(i, j, cfg_.r_cut);
  }
}

/// Gather, evaluate, scatter: slot a against slots[0..len), whose dx/dy/dz
/// lanes the caller has filled. The scatter applies the Newton j-forces
/// and sums the per-i lanes in gather order (strict-FP reductions do not
/// vectorize; this keeps the summation order explicit and deterministic).
/// Splitting one i's partners over several calls leaves every sum's order,
/// and so every bit, unchanged.
template <bool kNewton>
void NativeRealKernel::pair_range(std::size_t a, const std::uint32_t* slots,
                                  std::size_t len, double* jfx, double* jfy,
                                  double* jfz, PairBlock& block,
                                  Acc& acc) const {
  using L = PairBlock;
  // Coefficient rows of i's species.
  const std::size_t base = static_cast<std::size_t>(ts_[a]) * xs_.size();
  const double* cb = cb_.data() + base;
  const double* c6r = cc6_.data() + base;
  const double* d8r = cd8_.data() + base;
  const double* shr = csh_.data() + base;
  for (std::size_t k = 0; k < len; ++k) {
    const std::size_t j = slots[k];
    block.lane[L::kQ][k] = qs_[j];
    block.lane[L::kBorn][k] = cb[j];
    block.lane[L::kC6][k] = c6r[j];
    block.lane[L::kD8][k] = d8r[j];
    block.lane[L::kShift][k] = shr[j];
  }
  evaluate_(block, len,
            {units::kCoulomb * qs_[a], cfg_.beta, inv_rho_, cutoff2_});
  for (std::size_t k = 0; k < len; ++k) {
    if constexpr (kNewton) {
      const std::size_t j = slots[k];
      jfx[j] -= block.lane[L::kFx][k];
      jfy[j] -= block.lane[L::kFy][k];
      jfz[j] -= block.lane[L::kFz][k];
    }
    acc.fx += block.lane[L::kFx][k];
    acc.fy += block.lane[L::kFy][k];
    acc.fz += block.lane[L::kFz][k];
    acc.pot += block.lane[L::kPot][k];
    acc.vir += block.lane[L::kVir][k];
    acc.pairs += block.lane[L::kCount][k];
  }
}

/// Filter, then evaluate: slot a against the candidate ranges [jb, je)
/// that ranges(take) passes to take(jb, je), in visit order. Each range is
/// measured in pieces of at most kListBlock slots: a distance-only pass
/// (the loop shape of maintain_list's, which vectorizes) writes dx/dy/dz
/// and r^2 into the block right after the kept pairs so far (r^2 in the
/// q lane, which the gather fills later), then a branch-free compaction
/// moves the slots inside the cutoff, except a itself, down behind them.
/// pair_range runs whenever the next piece could overflow the block, and
/// once at the end, so a meets its kept partners in the order of the
/// ranges. Returns the number of slots evaluated.
template <bool kNewton, typename Ranges>
std::size_t NativeRealKernel::filter_eval(std::size_t a, Ranges&& ranges,
                                          double* jfx, double* jfy,
                                          double* jfz, PairBlock& block,
                                          std::uint32_t* slots,
                                          Acc& acc) const {
  using L = PairBlock;
  const double box = cfg_.box;
  const double half = 0.5 * box;
  const double cutoff2 = cutoff2_;
  const double* xs = xs_.data();
  const double* ys = ys_.data();
  const double* zs = zs_.data();
  const double xi = xs[a];
  const double yi = ys[a];
  const double zi = zs[a];
  std::size_t len = 0;
  std::size_t evaluated = 0;
  const auto eval = [&] {
    pair_range<kNewton>(a, slots, len, jfx, jfy, jfz, block, acc);
    evaluated += len;
    len = 0;
  };
  ranges([&](std::size_t jb, std::size_t je) {
    for (; jb < je; jb += kListBlock) {
      const std::size_t piece = std::min(je - jb, kListBlock);
      if (len + piece > kListBlock) eval();
      for (std::size_t m = 0; m < piece; ++m) {
        const double dx = min_image(xi - xs[jb + m], box, half);
        const double dy = min_image(yi - ys[jb + m], box, half);
        const double dz = min_image(zi - zs[jb + m], box, half);
        block.lane[L::kDx][len + m] = dx;
        block.lane[L::kDy][len + m] = dy;
        block.lane[L::kDz][len + m] = dz;
        block.lane[L::kQ][len + m] = dx * dx + dy * dy + dz * dz;
      }
      // The write index never passes the read index, so no unread entry
      // is overwritten.
      for (std::size_t m = 0, src = len; m < piece; ++m, ++src) {
        slots[len] = static_cast<std::uint32_t>(jb + m);
        block.lane[L::kDx][len] = block.lane[L::kDx][src];
        block.lane[L::kDy][len] = block.lane[L::kDy][src];
        block.lane[L::kDz][len] = block.lane[L::kDz][src];
        len += (block.lane[L::kQ][src] < cutoff2) & (jb + m != a);
      }
    }
  });
  if (len != 0) eval();
  return evaluated;
}

void NativeRealKernel::prepare(const SoaParticles& soa) {
  const std::size_t n = soa.size();
  if (std::abs(soa.box - cfg_.box) > 1e-12)
    throw std::invalid_argument("NativeRealKernel: box mismatch");
  // The N^2 traversals never read the bins.
  if (!n2_) cells_.build_auto(soa.pos, cfg_.r_cut);
  xs_.resize(n);
  ys_.resize(n);
  zs_.resize(n);
  qs_.resize(n);
  ts_.resize(n);
  if (n2_) {
    // Slots are particle ids in the fallback traversal.
    std::copy(soa.x.begin(), soa.x.end(), xs_.begin());
    std::copy(soa.y.begin(), soa.y.end(), ys_.begin());
    std::copy(soa.z.begin(), soa.z.end(), zs_.begin());
    std::copy(soa.q.begin(), soa.q.end(), qs_.begin());
    std::copy(soa.type.begin(), soa.type.end(), ts_.begin());
  } else {
    const auto order = cells_.order();
    for (std::size_t s = 0; s < n; ++s) {
      const std::uint32_t id = order[s];
      xs_[s] = soa.x[id];
      ys_[s] = soa.y[id];
      zs_[s] = soa.z[id];
      qs_[s] = soa.q[id];
      ts_[s] = soa.type[id];
    }
  }
  // Coefficient rows depend only on the slot->type mapping: rebuild them
  // when that mapping changed (or on first use), not every step. Keying on
  // the gathered type stream itself — not on the cell rebuild — matters in
  // the parallel app, where migration and halo churn can swap which species
  // a slot holds without triggering a rebuild (the N^2 fallback never
  // rebuilds, and the half-skin check can miss a same-size set change).
  const int rows = std::max(1, cfg_.include_tosi_fumi
                                   ? cfg_.tosi_fumi.species_count
                                   : soa.species_count);
  const bool types_changed = ts_ != coef_ts_;
  if (types_changed || !coef_valid_ || rows != coef_rows_) {
    coef_rows_ = rows;
    cb_.resize(static_cast<std::size_t>(rows) * n);
    cc6_.resize(static_cast<std::size_t>(rows) * n);
    cd8_.resize(static_cast<std::size_t>(rows) * n);
    csh_.resize(static_cast<std::size_t>(rows) * n);
    for (int ti = 0; ti < rows; ++ti) {
      const std::size_t base = static_cast<std::size_t>(ti) * n;
      for (std::size_t s = 0; s < n; ++s) {
        const int tj = ts_[s];
        const bool tf = cfg_.include_tosi_fumi;
        cb_[base + s] = tf ? cfg_.tosi_fumi.born_prefactor[ti][tj] : 0.0;
        cc6_[base + s] = tf ? cfg_.tosi_fumi.c6[ti][tj] : 0.0;
        cd8_[base + s] = tf ? cfg_.tosi_fumi.d8[ti][tj] : 0.0;
        csh_[base + s] = tf ? shift_[ti][tj] : 0.0;
      }
    }
    coef_ts_ = ts_;
    coef_valid_ = true;
  }
}

void NativeRealKernel::ensure_scratch(std::size_t n, int chunks,
                                      std::size_t workers) {
  if (scratch_.size() < workers) scratch_.resize(workers);
  if (n == scr_slots_ && chunks == scr_chunks_) return;
  scr_slots_ = n;
  scr_chunks_ = chunks;
  const std::size_t cn = static_cast<std::size_t>(chunks) * n;
  jfx_.assign(cn, 0.0);
  jfy_.assign(cn, 0.0);
  jfz_.assign(cn, 0.0);
  dirty_.assign(static_cast<std::size_t>(chunks), {0, 0});
  tally_.assign(static_cast<std::size_t>(chunks), {});
}

bool NativeRealKernel::maintain_list(const SoaParticles& soa, int chunks,
                                     ThreadPool* pool) {
  const std::size_t n = soa.size();
  if (list_valid_ && anchor_.size() == n) {
    double max2 = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      max2 = std::max(max2,
                      norm2(minimum_image(soa.pos[i], anchor_[i], cfg_.box)));
    if (max2 <= kMaxDrift * kMaxDrift) return false;
  }
  const std::size_t words = (n + 63) / 64;
  if (anchor_.size() != n) {
    row_word_.resize(n + 1);
    for (std::size_t i = 0; i < n; ++i)
      row_word_[i + 1] = row_word_[i] + words - (i + 1) / 64;
    list_.resize(row_word_[n]);
  }
  anchor_.assign(soa.pos.begin(), soa.pos.end());
  // Distance-only pass, rows split like the sweep's chunks: bit j of row i
  // is set when the pair's minimum image, in pair_range's arithmetic, is
  // below r_cut + kListSkin. Each row word's r^2 values pass through the
  // thread's pair block, so the distance loop vectorizes.
  const double box = cfg_.box;
  const double half = 0.5 * box;
  const double r_list2 = (cfg_.r_cut + kListSkin) * (cfg_.r_cut + kListSkin);
  for_each_chunk(pool, chunks, [&](std::size_t k, std::size_t worker) {
    double* r2 = scratch_[worker].block.lane[0];
    const std::size_t i_end = (k + 1) * n / static_cast<std::size_t>(chunks);
    for (std::size_t i = k * n / static_cast<std::size_t>(chunks); i < i_end;
         ++i) {
      const std::size_t w0 = (i + 1) / 64;
      for (std::size_t w = w0; w < words; ++w) {
        const std::size_t jb = std::max(64 * w, i + 1);
        const std::size_t len = std::min(64 * w + 64, n) - jb;
        for (std::size_t m = 0; m < len; ++m) {
          const double dx = min_image(xs_[i] - xs_[jb + m], box, half);
          const double dy = min_image(ys_[i] - ys_[jb + m], box, half);
          const double dz = min_image(zs_[i] - zs_[jb + m], box, half);
          r2[m] = dx * dx + dy * dy + dz * dz;
        }
        std::uint64_t bits = 0;
        for (std::size_t m = 0; m < len; ++m)
          bits |= std::uint64_t{r2[m] < r_list2} << ((jb + m) % 64);
        list_[row_word_[i] + w - w0] = bits;
      }
    }
  });
  list_valid_ = true;
  ++list_builds_;
  return true;
}

void NativeRealKernel::run_chunk(std::size_t k, int chunks, std::size_t n,
                                 std::size_t worker) {
  double* jfx = jfx_.data() + k * n;
  double* jfy = jfy_.data() + k * n;
  double* jfz = jfz_.data() + k * n;
  PairBlock& block = scratch_[worker].block;
  std::uint32_t* slots = scratch_[worker].slots.data();
  std::uint32_t lo = static_cast<std::uint32_t>(n);
  std::uint32_t hi = 0;
  ChunkTally tally;
  const auto touch = [&](std::uint32_t b, std::uint32_t e) {
    lo = std::min(lo, b);
    hi = std::max(hi, e);
  };
  const auto flush_i = [&](std::size_t slot, const Acc& acc) {
    jfx[slot] += acc.fx;
    jfy[slot] += acc.fy;
    jfz[slot] += acc.fz;
    touch(static_cast<std::uint32_t>(slot),
          static_cast<std::uint32_t>(slot) + 1);
    tally.pot += acc.pot;
    tally.vir += acc.vir;
    tally.pairs += acc.pairs;
  };

  if (n2_) {
    // Each i's list row, decoded in ascending j into blocks of at most
    // kListBlock slots (a row word adds up to 64), with the gather's
    // dx/dy/dz.
    using L = PairBlock;
    const double box = cfg_.box;
    const double half = 0.5 * box;
    const std::size_t words = (n + 63) / 64;
    const std::size_t i_begin = k * n / static_cast<std::size_t>(chunks);
    const std::size_t i_end = (k + 1) * n / static_cast<std::size_t>(chunks);
    for (std::size_t i = i_begin; i < i_end; ++i) {
      const std::uint64_t* row = list_.data() + row_word_[i];
      const std::size_t w0 = (i + 1) / 64;
      const double xi = xs_[i];
      const double yi = ys_[i];
      const double zi = zs_[i];
      Acc acc;
      std::size_t len = 0;
      const auto eval = [&] {
        pair_range<true>(i, slots, len, jfx, jfy, jfz, block, acc);
        tally.candidates += len;
        len = 0;
      };
      for (std::size_t w = w0; w < words; ++w) {
        for (std::uint64_t bits = row[w - w0]; bits != 0; bits &= bits - 1) {
          const std::size_t j = 64 * w + std::countr_zero(bits);
          slots[len] = static_cast<std::uint32_t>(j);
          block.lane[L::kDx][len] = min_image(xi - xs_[j], box, half);
          block.lane[L::kDy][len] = min_image(yi - ys_[j], box, half);
          block.lane[L::kDz][len] = min_image(zi - zs_[j], box, half);
          ++len;
        }
        if (len + 64 > kListBlock) eval();
      }
      if (len != 0) eval();
      touch(static_cast<std::uint32_t>(i + 1), static_cast<std::uint32_t>(n));
      flush_i(i, acc);
    }
  } else {
    const auto cell_count = static_cast<std::size_t>(cells_.cell_count());
    const int c_begin =
        static_cast<int>(k * cell_count / static_cast<std::size_t>(chunks));
    const int c_end = static_cast<int>((k + 1) * cell_count /
                                       static_cast<std::size_t>(chunks));
    const int m = cells_.cells_per_side();
    for (int c = c_begin; c < c_end; ++c) {
      const CellList::Range own = cells_.cell_range(c);
      if (own.size() == 0) continue;
      const int ix = c % m;
      const int iy = (c / m) % m;
      const int iz = c / (m * m);
      std::array<CellList::Range, std::size(CellList::kHalfStencil)> fwd;
      for (std::size_t h = 0; h < fwd.size(); ++h) {
        const auto& off = CellList::kHalfStencil[h];
        fwd[h] = cells_.cell_range(
            cells_.cell_index(ix + off[0], iy + off[1], iz + off[2]));
      }
      for (std::uint32_t a = own.begin; a < own.end; ++a) {
        Acc acc;
        // Same-cell partners after i (each unordered pair once), then the
        // 13 forward neighbour cells of the half stencil.
        const auto ranges = [&](auto&& take) {
          take(a + 1, own.end);
          touch(a + 1, own.end);
          for (const CellList::Range other : fwd) {
            if (other.size() == 0) continue;
            take(other.begin, other.end);
            touch(other.begin, other.end);
          }
        };
        tally.candidates +=
            filter_eval<true>(a, ranges, jfx, jfy, jfz, block, slots, acc);
        flush_i(a, acc);
      }
    }
  }
  dirty_[k] = {lo, lo < hi ? hi : lo};
  tally_[k] = tally;
}

ForceResult NativeRealKernel::sweep(const SoaParticles& soa,
                                    std::span<Vec3> forces,
                                    ThreadPool* pool) {
  MDM_TRACE_SCOPE("native.real_space");
  prepare(soa);
  const std::size_t n = soa.size();
  const std::size_t units =
      n2_ ? n : static_cast<std::size_t>(cells_.cell_count());
  const int chunks = static_cast<int>(
      std::min<std::size_t>(CellList::kPairChunks, units ? units : 1));
  ensure_scratch(n, chunks, chunk_workers(pool));
  if (n2_ && maintain_list(soa, chunks, pool)) {
    static obs::Counter& rebuilds =
        obs::Registry::global().counter("native.pair_list.rebuilds");
    rebuilds.add(1);
  }

  for_each_chunk(pool, chunks, [&](std::size_t k, std::size_t w) {
    run_chunk(k, chunks, n, w);
  });

  // Chunk-ordered reduction into the caller's force array (slot -> particle
  // through the cell order); buffers are re-zeroed for the next sweep.
  const auto order = cells_.order();
  ForceResult result;
  double pairs = 0.0;
  std::uint64_t candidates = 0;
  for (int k = 0; k < chunks; ++k) {
    double* jfx = jfx_.data() + static_cast<std::size_t>(k) * n;
    double* jfy = jfy_.data() + static_cast<std::size_t>(k) * n;
    double* jfz = jfz_.data() + static_cast<std::size_t>(k) * n;
    const auto [lo, hi] = dirty_[static_cast<std::size_t>(k)];
    for (std::uint32_t s = lo; s < hi; ++s) {
      const std::uint32_t id = n2_ ? s : order[s];
      forces[id] += Vec3{jfx[s], jfy[s], jfz[s]};
      jfx[s] = 0.0;
      jfy[s] = 0.0;
      jfz[s] = 0.0;
    }
    result.potential += tally_[static_cast<std::size_t>(k)].pot;
    result.virial += tally_[static_cast<std::size_t>(k)].vir;
    pairs += tally_[static_cast<std::size_t>(k)].pairs;
    candidates += tally_[static_cast<std::size_t>(k)].candidates;
  }
  last_pairs_ = static_cast<std::uint64_t>(pairs);
  last_candidates_ = candidates;
  static obs::Counter& pair_counter =
      obs::Registry::global().counter("native.real_pairs");
  static obs::Counter& candidate_counter =
      obs::Registry::global().counter("native.pair_list.candidates");
  pair_counter.add(last_pairs_);
  candidate_counter.add(candidates);
  return result;
}

ForceResult NativeRealKernel::one_sided(const SoaParticles& soa,
                                        std::size_t n_i,
                                        std::span<Vec3> forces) {
  MDM_TRACE_SCOPE("native.real_space_one_sided");
  prepare(soa);
  const std::size_t n = soa.size();
  ensure_scratch(n, 1, 1);
  ForceResult result;
  double pairs = 0.0;
  std::uint64_t candidates = 0;

  const auto eval_i = [&](std::size_t slot, std::size_t id, auto&& ranges) {
    Acc acc;
    candidates += filter_eval<false>(slot, ranges, nullptr, nullptr, nullptr,
                                     scratch_[0].block,
                                     scratch_[0].slots.data(), acc);
    forces[id] += Vec3{acc.fx, acc.fy, acc.fz};
    result.potential += acc.pot;
    result.virial += acc.vir;
    pairs += acc.pairs;
  };

  if (n2_) {
    for (std::size_t i = 0; i < std::min(n_i, n); ++i)
      eval_i(i, i, [&](auto&& take) { take(0, n); });
  } else {
    const auto order = cells_.order();
    for (int c = 0; c < cells_.cell_count(); ++c) {
      const CellList::Range own = cells_.cell_range(c);
      if (own.size() == 0) continue;
      const auto neigh = cells_.neighbors27(c);
      for (std::uint32_t a = own.begin; a < own.end; ++a) {
        const std::uint32_t id = order[a];
        if (id >= n_i) continue;  // halo particle: no force wanted
        eval_i(a, id, [&](auto&& take) {
          for (const int nc : neigh) {
            const CellList::Range r = cells_.cell_range(nc);
            take(r.begin, r.end);
          }
        });
      }
    }
  }
  last_pairs_ = static_cast<std::uint64_t>(pairs);
  last_candidates_ = candidates;
  static obs::Counter& pair_counter =
      obs::Registry::global().counter("native.real_pairs");
  static obs::Counter& candidate_counter =
      obs::Registry::global().counter("native.pair_list.candidates");
  pair_counter.add(last_pairs_);
  candidate_counter.add(candidates);
  return result;
}

}  // namespace mdm::native

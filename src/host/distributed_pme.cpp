#include "host/distributed_pme.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>

#include "util/units.hpp"

namespace mdm::host {
namespace {

constexpr double kPi = std::numbers::pi;

/// Point-to-point tags on the wavenumber subgroup. Must avoid the
/// parallel-app tags (100..701, 9001/9002), the WINE-2 library's 7001+
/// block and the native structure-factor tags 7101/7103.
enum PmeTag : int {
  kGhostSpread = 7301,
  kTransposeFwd = 7303,
  kTransposeBack = 7305,
  kGhostPhi = 7307,
  kPmeReduce = 7309,
};

/// recv_into `buf` and require the layout-determined element count.
template <typename T>
void receive_block(vmpi::Communicator& comm, int source, int tag,
                   std::vector<T>& buf, std::size_t expected) {
  comm.recv_into(source, tag, buf);
  if (buf.size() != expected)
    throw std::runtime_error("distributed PME: message of " +
                             std::to_string(buf.size()) + " elements, " +
                             std::to_string(expected) + " expected");
}

}  // namespace

PmeSlabLayout PmeSlabLayout::create(int grid, int order, int ranks) {
  if (ranks < 1)
    throw std::invalid_argument(
        "distributed PME: need >= 1 wavenumber rank (got " +
        std::to_string(ranks) + ")");
  if (order < 2 || order > pme::kMaxOrder)
    throw std::invalid_argument("distributed PME: B-spline order " +
                                std::to_string(order) +
                                " outside [2, 10]");
  if (grid < 1 || grid % ranks != 0)
    throw std::invalid_argument(
        "distributed PME: mesh K=" + std::to_string(grid) +
        " is not divisible into z-slabs over W=" + std::to_string(ranks) +
        " wavenumber ranks (K % W must be 0)");
  PmeSlabLayout layout;
  layout.grid = grid;
  layout.order = order;
  layout.ranks = ranks;
  layout.planes = grid / ranks;
  return layout;
}

int PmeSlabLayout::base_plane(double z, double box) const {
  const double u = wrap_coordinate(z, box) / box * grid;
  int base = static_cast<int>(std::floor(u));
  // wrap_coordinate returns [0, box), so base is already in [0, K); the
  // modulo only guards the u == K rounding edge.
  return ((base % grid) + grid) % grid;
}

DistributedPmeRank::DistributedPmeRank(const PmeParameters& params,
                                       double box,
                                       const vmpi::Communicator& comm)
    : params_(params),
      box_(box),
      comm_(comm),
      layout_(PmeSlabLayout::create(params.grid, params.order, comm.size())) {
  first_ = layout_.first_plane(comm_.rank());
  ghost_ = layout_.ghost_planes();
  const std::size_t k = static_cast<std::size_t>(layout_.grid);
  const std::size_t s = static_cast<std::size_t>(layout_.planes);
  half_ = half_length(k);
  // Influence function over this rank's y-slab of the half spectrum,
  // matching the transposed buffer layout [(y_local*K + z)*H + kx].
  const std::vector<double> b2 = pme::axis_b2(params.grid, params.order);
  theta_.resize(s * k * half_);
  for (std::size_t yl = 0; yl < s; ++yl)
    for (std::size_t z = 0; z < k; ++z)
      for (std::size_t x = 0; x < half_; ++x)
        theta_[(yl * k + z) * half_ + x] = pme::influence_theta(
            static_cast<int>(x), first_ + static_cast<int>(yl),
            static_cast<int>(z), layout_.grid, params_.alpha, b2);
  window_.resize((ghost_ + layout_.planes) * k * k);
  slab_.resize(s * k * half_);
  t_.resize(s * k * half_);
  pack_buf_.resize(s * s * half_);
  block_buf_.reserve(s * s * half_);
  plane_buf_.reserve(k * k);
  reduce_.reserve(5);
}

template <typename Plane>
void DistributedPmeRank::stencil_planes(const pme::SplineWeights& s,
                                        Plane* window, Plane** planes) const {
  const std::size_t plane_size =
      static_cast<std::size_t>(layout_.grid) * layout_.grid;
  for (int jz = 0; jz < params_.order; ++jz)
    planes[jz] = window + window_offset(s.base[2], jz) * plane_size;
}

void DistributedPmeRank::spread(const std::vector<Vec3>& positions,
                                const std::vector<double>& charges) {
  std::fill(window_.begin(), window_.end(), 0.0);
  double* planes[pme::kMaxOrder];
  for (std::size_t i = 0; i < positions.size(); ++i) {
    stencil_planes(spline_[i], window_.data(), planes);
    pme::spread_particle(spline_[i], params_.order, layout_.grid, charges[i],
                         planes);
  }
}

void DistributedPmeRank::exchange_ghost_spread() {
  const int k = layout_.grid;
  const int w = comm_.rank();
  const std::size_t plane_size = static_cast<std::size_t>(k) * k;
  // Ship every ghost plane to its owner (never self: the ghost region lies
  // strictly below the owned slab whenever it is non-empty).
  for (int j = 1; j <= ghost_; ++j) {
    const int gz = ((first_ - j) % k + k) % k;
    comm_.send(layout_.owner_of_plane(gz), kGhostSpread,
               std::span<const double>(
                   window_.data() + (ghost_ - j) * plane_size, plane_size));
  }
  // Receive the matching contributions into the owned slab. Both sides
  // enumerate (source rank, j) from the layout alone, in the same order, so
  // the messages need no headers.
  for (int src = 0; src < layout_.ranks; ++src) {
    if (src == w) continue;
    const int src_first = layout_.first_plane(src);
    for (int j = 1; j <= ghost_; ++j) {
      const int gz = ((src_first - j) % k + k) % k;
      if (layout_.owner_of_plane(gz) != w) continue;
      receive_block(comm_, src, kGhostSpread, plane_buf_, plane_size);
      double* dst = window_.data() + (ghost_ + gz - first_) * plane_size;
      for (std::size_t i = 0; i < plane_size; ++i) dst[i] += plane_buf_[i];
    }
  }
}

void DistributedPmeRank::transpose_forward() {
  const std::size_t k = static_cast<std::size_t>(layout_.grid);
  const std::size_t s = static_cast<std::size_t>(layout_.planes);
  const std::size_t h = half_;
  const std::size_t w = static_cast<std::size_t>(comm_.rank());
  // The y block of rank d in one z plane is s contiguous x rows.
  for (std::size_t d = 0; d < static_cast<std::size_t>(layout_.ranks); ++d) {
    if (d == w) continue;
    for (std::size_t zl = 0; zl < s; ++zl) {
      const Complex* src = slab_.data() + (zl * k + d * s) * h;
      std::copy(src, src + s * h, pack_buf_.data() + zl * s * h);
    }
    comm_.send(static_cast<int>(d), kTransposeFwd, pack_buf_);
  }
  // Own block, no message: in the slab it sits at row stride k, not s.
  for (std::size_t zl = 0; zl < s; ++zl)
    for (std::size_t yl = 0; yl < s; ++yl) {
      const Complex* row = slab_.data() + (zl * k + w * s + yl) * h;
      std::copy(row, row + h, t_.data() + (yl * k + w * s + zl) * h);
    }
  for (std::size_t src = 0; src < static_cast<std::size_t>(layout_.ranks);
       ++src) {
    if (src == w) continue;
    receive_block(comm_, static_cast<int>(src), kTransposeFwd, block_buf_,
                  s * s * h);
    for (std::size_t zl = 0; zl < s; ++zl)
      for (std::size_t yl = 0; yl < s; ++yl) {
        const Complex* row = block_buf_.data() + (zl * s + yl) * h;
        std::copy(row, row + h, t_.data() + (yl * k + src * s + zl) * h);
      }
  }
}

void DistributedPmeRank::transform_z(FftSign sign) {
  const std::size_t k = static_cast<std::size_t>(layout_.grid);
  for (int yl = 0; yl < layout_.planes; ++yl)
    fft_lines(t_.data() + static_cast<std::size_t>(yl) * k * half_, k, half_,
              half_, sign);
}

void DistributedPmeRank::transpose_backward() {
  const std::size_t k = static_cast<std::size_t>(layout_.grid);
  const std::size_t s = static_cast<std::size_t>(layout_.planes);
  const std::size_t h = half_;
  const std::size_t w = static_cast<std::size_t>(comm_.rank());
  // The z block of rank d in one y plane is s contiguous x rows.
  for (std::size_t d = 0; d < static_cast<std::size_t>(layout_.ranks); ++d) {
    if (d == w) continue;
    for (std::size_t yl = 0; yl < s; ++yl) {
      const Complex* src = t_.data() + (yl * k + d * s) * h;
      std::copy(src, src + s * h, pack_buf_.data() + yl * s * h);
    }
    comm_.send(static_cast<int>(d), kTransposeBack, pack_buf_);
  }
  for (std::size_t yl = 0; yl < s; ++yl)
    for (std::size_t zl = 0; zl < s; ++zl) {
      const Complex* row = t_.data() + (yl * k + w * s + zl) * h;
      std::copy(row, row + h, slab_.data() + (zl * k + w * s + yl) * h);
    }
  for (std::size_t src = 0; src < static_cast<std::size_t>(layout_.ranks);
       ++src) {
    if (src == w) continue;
    receive_block(comm_, static_cast<int>(src), kTransposeBack, block_buf_,
                  s * s * h);
    for (std::size_t yl = 0; yl < s; ++yl)
      for (std::size_t zl = 0; zl < s; ++zl) {
        const Complex* row = block_buf_.data() + (yl * s + zl) * h;
        std::copy(row, row + h, slab_.data() + (zl * k + src * s + yl) * h);
      }
  }
}

void DistributedPmeRank::exchange_ghost_phi() {
  const int k = layout_.grid;
  const int w = comm_.rank();
  const std::size_t plane_size = static_cast<std::size_t>(k) * k;
  // The owned planes already hold phi (irfft_planes wrote them). Mirror of
  // the spread exchange, reversed: the owner of each plane in rank r's
  // ghost window sends it to r. Same layout-determined order on both sides.
  for (int dst = 0; dst < layout_.ranks; ++dst) {
    if (dst == w) continue;
    const int dst_first = layout_.first_plane(dst);
    for (int j = 1; j <= ghost_; ++j) {
      const int gz = ((dst_first - j) % k + k) % k;
      if (layout_.owner_of_plane(gz) != w) continue;
      comm_.send(dst, kGhostPhi,
                 std::span<const double>(
                     window_.data() + (ghost_ + gz - first_) * plane_size,
                     plane_size));
    }
  }
  for (int j = 1; j <= ghost_; ++j) {
    const int gz = ((first_ - j) % k + k) % k;
    receive_block(comm_, layout_.owner_of_plane(gz), kGhostPhi, plane_buf_,
                  plane_size);
    std::copy(plane_buf_.begin(), plane_buf_.end(),
              window_.begin() + (ghost_ - j) * plane_size);
  }
}

double DistributedPmeRank::gather(const std::vector<Vec3>& positions,
                                  const std::vector<double>& charges,
                                  double energy_partial,
                                  std::vector<Vec3>& forces) {
  const int k = layout_.grid;
  const double force_pref =
      units::kCoulomb / (kPi * box_) * static_cast<double>(k) / box_;

  forces.resize(positions.size());
  const double* planes[pme::kMaxOrder];
  Vec3 net;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const pme::SplineWeights& s = spline_[i];
    stencil_planes(s, static_cast<const double*>(window_.data()), planes);
    forces[i] = (-charges[i] * force_pref) *
                pme::gather_particle(s, params_.order, k, planes);
    net += forces[i];
  }

  // One combined reduction: energy partial, net reciprocal force and the
  // particle count for the serial solver's mean-force momentum fix.
  reduce_.assign({energy_partial, net.x, net.y, net.z,
                  static_cast<double>(positions.size())});
  comm_.allreduce_sum(reduce_, kPmeReduce);
  const double energy = reduce_[0] * units::kCoulomb / (2.0 * kPi * box_);
  if (reduce_[4] > 0.0) {
    const Vec3 mean{reduce_[1] / reduce_[4], reduce_[2] / reduce_[4],
                    reduce_[3] / reduce_[4]};
    for (auto& f : forces) f -= mean;
  }
  return energy;
}

double DistributedPmeRank::step(const std::vector<Vec3>& positions,
                                const std::vector<double>& charges,
                                std::vector<Vec3>& forces) {
  if (positions.size() != charges.size())
    throw std::invalid_argument("distributed PME: positions/charges mismatch");
  using Clock = std::chrono::steady_clock;
  auto mark = Clock::now();
  const auto lap = [&mark](double& total_ms) {
    const auto now = Clock::now();
    total_ms += std::chrono::duration<double, std::milli>(now - mark).count();
    mark = now;
  };
  const std::size_t k = static_cast<std::size_t>(layout_.grid);
  const std::size_t s = static_cast<std::size_t>(layout_.planes);
  double* owned = window_.data() + ghost_ * k * k;

  spline_.resize(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i)
    pme::spline_weights(positions[i], box_, layout_.grid, params_.order,
                        spline_[i]);
  lap(times_.spline_ms);
  spread(positions, charges);
  lap(times_.spread_ms);
  exchange_ghost_spread();
  lap(times_.ghost_ms);
  rfft_planes(owned, slab_.data(), k, s);
  lap(times_.fft_ms);
  transpose_forward();
  lap(times_.transpose_ms);
  transform_z(FftSign::kForward);
  lap(times_.fft_ms);
  const double energy_partial =
      pme::convolve_half(t_.data(), theta_.data(), s * k, layout_.grid);
  lap(times_.convolve_ms);
  transform_z(FftSign::kBackward);
  lap(times_.fft_ms);
  transpose_backward();
  lap(times_.transpose_ms);
  irfft_planes(slab_.data(), owned, k, s);
  lap(times_.fft_ms);
  exchange_ghost_phi();
  lap(times_.ghost_ms);
  const double energy = gather(positions, charges, energy_partial, forces);
  lap(times_.gather_ms);
  ++times_.steps;
  return energy;
}

}  // namespace mdm::host

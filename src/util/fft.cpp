#include "util/fft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>

namespace mdm {
namespace {

/// Precomputed tables for one power-of-two length n.
struct Plan {
  std::size_t n = 0;
  /// Bit-reversal permutation as (i, j) index pairs with i < j.
  std::vector<std::uint32_t> swaps;
  /// Forward twiddles per butterfly stage: stage `len` (2 <= len <= n)
  /// stores e^{-2 pi i j / len}, j < len/2, starting at index len/2 - 1.
  /// The last stage doubles as the rfft split table of length n.
  std::vector<Complex> twiddle;
};

std::unique_ptr<Plan> make_plan(std::size_t n) {
  auto plan = std::make_unique<Plan>();
  plan->n = n;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      plan->swaps.push_back(static_cast<std::uint32_t>(i));
      plan->swaps.push_back(static_cast<std::uint32_t>(j));
    }
  }
  plan->twiddle.reserve(n > 1 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1)
    for (std::size_t j = 0; j < len / 2; ++j) {
      const double angle = 2.0 * std::numbers::pi * double(j) / double(len);
      plan->twiddle.emplace_back(std::cos(angle), -std::sin(angle));
    }
  return plan;
}

/// Shared plan for length n (a power of two), built on first use.
const Plan& plan_for(std::size_t n) {
  constexpr int kSlots = 32;
  static std::once_flag once[kSlots];
  static std::unique_ptr<Plan> plans[kSlots];
  const int slot = std::countr_zero(n);
  if (!is_power_of_two(n) || slot >= kSlots)
    throw std::invalid_argument("fft: length must be a power of two");
  std::call_once(once[slot], [&] { plans[slot] = make_plan(n); });
  return *plans[slot];
}

/// One complex value as a two-lane vector (GCC/Clang vector extension).
/// The butterflies load and store whole complex values this way, so a
/// stage never reads back with one 16-byte load what the previous stage
/// wrote as two 8-byte stores (a store-forwarding stall the scalar form
/// runs into when the compiler vectorises only some of the stages).
using V2 = double __attribute__((vector_size(16)));

inline V2 load(const Complex* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store(Complex* p, V2 v) {
  std::memcpy(static_cast<void*>(p), &v, sizeof v);
}

/// Butterfly twiddle w = (wr, wi) of stage span `len`, index j, sign
/// applied, split as re = (wr, wr) and im = (-wi, wi) so that
/// b * w = b * re + swap(b) * im.
template <bool kBackward>
inline void twiddle(const Plan& plan, std::size_t len, std::size_t j, V2& re,
                    V2& im) {
  const Complex w = plan.twiddle[len / 2 - 1 + j];
  const double wi = kBackward ? -w.imag() : w.imag();
  re = V2{w.real(), w.real()};
  im = V2{-wi, wi};
}

inline void butterfly(Complex* a, Complex* b, V2 re, V2 im) {
  const V2 bv = load(b);
  const V2 t = bv * re + V2{bv[1], bv[0]} * im;
  const V2 av = load(a);
  store(a, av + t);
  store(b, av - t);
}

inline void butterfly(Complex* a, Complex* b) {
  const V2 av = load(a);
  const V2 bv = load(b);
  store(a, av + bv);
  store(b, av - bv);
}

/// Unscaled radix-2 DIT transform of one line, element i at d[i * stride].
template <bool kBackward>
void line_kernel(Complex* d, const Plan& plan, std::size_t stride) {
  const std::size_t n = plan.n;
  for (std::size_t s = 0; s < plan.swaps.size(); s += 2)
    std::swap(d[plan.swaps[s] * stride], d[plan.swaps[s + 1] * stride]);
  if (n >= 2)
    for (std::size_t i = 0; i < n; i += 2)
      butterfly(d + i * stride, d + (i + 1) * stride);
  for (std::size_t len = 4; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t j = 0; j < half; ++j) {
      V2 re, im;
      twiddle<kBackward>(plan, len, j, re, im);
      for (std::size_t i = j; i < n; i += len)
        butterfly(d + i * stride, d + (i + half) * stride, re, im);
    }
  }
}

/// Batched form of line_kernel over `count` interleaved lines (element i of
/// line c at d[i * stride + c]). Every butterfly runs across the contiguous
/// c dimension with the same arithmetic as line_kernel, so a line gives the
/// same bits either way.
template <bool kBackward>
void lines_kernel(Complex* d, const Plan& plan, std::size_t stride,
                  std::size_t count) {
  const std::size_t n = plan.n;
  for (std::size_t s = 0; s < plan.swaps.size(); s += 2) {
    Complex* a = d + plan.swaps[s] * stride;
    std::swap_ranges(a, a + count, d + plan.swaps[s + 1] * stride);
  }
  if (n >= 2)
    for (std::size_t i = 0; i < n; i += 2) {
      Complex* a = d + i * stride;
      Complex* b = a + stride;
      for (std::size_t c = 0; c < count; ++c) butterfly(a + c, b + c);
    }
  for (std::size_t len = 4; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len)
      for (std::size_t j = 0; j < half; ++j) {
        V2 re, im;
        twiddle<kBackward>(plan, len, j, re, im);
        Complex* a = d + (i + j) * stride;
        Complex* b = a + half * stride;
        for (std::size_t c = 0; c < count; ++c)
          butterfly(a + c, b + c, re, im);
      }
  }
}

void check_real_length(std::size_t n) {
  if (n < 2 || !is_power_of_two(n))
    throw std::invalid_argument(
        "rfft: length must be a power of two >= 2");
}

/// rfft on resolved plans: `half` is the plan of n/2, `w` the n-point
/// split twiddles e^{-2 pi i k / n}, k < n/2.
void rfft_row(const double* in, Complex* out, const Plan& half,
              const Complex* w) {
  const std::size_t m = half.n;
  for (std::size_t j = 0; j < m; ++j) out[j] = {in[2 * j], in[2 * j + 1]};
  line_kernel<false>(out, half, 1);
  // Z = FFT(x_even + i x_odd); X[k] = E[k] + W^k O[k] with
  // E = (Z[k] + conj Z[m-k]) / 2 and O = (Z[k] - conj Z[m-k]) / 2i.
  const Complex z0 = out[0];
  out[0] = {z0.real() + z0.imag(), 0.0};
  out[m] = {z0.real() - z0.imag(), 0.0};
  for (std::size_t k = 1; k < m - k; ++k) {
    const Complex a = out[k];
    const Complex b = out[m - k];
    const double er = 0.5 * (a.real() + b.real());
    const double ei = 0.5 * (a.imag() - b.imag());
    const double odr = 0.5 * (a.imag() + b.imag());
    const double odi = -0.5 * (a.real() - b.real());
    const double tr = odr * w[k].real() - odi * w[k].imag();
    const double ti = odr * w[k].imag() + odi * w[k].real();
    out[k] = {er + tr, ei + ti};
    out[m - k] = {er - tr, -(ei - ti)};
  }
  if (m >= 2) out[m / 2] = std::conj(out[m / 2]);
}

/// irfft on resolved plans (see rfft_row); unscaled, overwrites `in`.
void irfft_row(Complex* in, double* out, const Plan& half, const Complex* w) {
  const std::size_t m = half.n;
  // Z[k] = P + i W^-k D with P = X[k] + conj X[m-k], D = X[k] - conj X[m-k];
  // Z[m-k] = conj(P - i W^-k D).
  const double x0 = in[0].real();
  const double xm = in[m].real();
  in[0] = {x0 + xm, x0 - xm};
  for (std::size_t k = 1; k < m - k; ++k) {
    const Complex a = in[k];
    const Complex b = in[m - k];
    const double pr = a.real() + b.real();
    const double pi = a.imag() - b.imag();
    const double dr = a.real() - b.real();
    const double di = a.imag() + b.imag();
    // U = conj(W^k) D, then i U = (-U.im, U.re).
    const double ur = dr * w[k].real() + di * w[k].imag();
    const double ui = di * w[k].real() - dr * w[k].imag();
    in[k] = {pr - ui, pi + ur};
    in[m - k] = {pr + ui, -(pi - ur)};
  }
  if (m >= 2) in[m / 2] = 2.0 * std::conj(in[m / 2]);
  line_kernel<true>(in, half, 1);
  for (std::size_t j = 0; j < m; ++j) {
    out[2 * j] = in[j].real();
    out[2 * j + 1] = in[j].imag();
  }
}

const Complex* split_twiddles(const Plan& full) {
  return full.twiddle.data() + (full.n / 2 - 1);
}

}  // namespace

void fft_strided(Complex* data, std::size_t n, std::size_t stride,
                 bool inverse) {
  const Plan& plan = plan_for(n);
  if (inverse) {
    line_kernel<true>(data, plan, stride);
    const double scale = 1.0 / double(n);
    for (std::size_t i = 0; i < n; ++i) data[i * stride] *= scale;
  } else {
    line_kernel<false>(data, plan, stride);
  }
}

void fft(std::vector<Complex>& data, bool inverse) {
  fft_strided(data.data(), data.size(), 1, inverse);
}

void fft_lines(Complex* data, std::size_t n, std::size_t stride,
               std::size_t count, FftSign sign) {
  const Plan& plan = plan_for(n);
  if (sign == FftSign::kBackward)
    lines_kernel<true>(data, plan, stride, count);
  else
    lines_kernel<false>(data, plan, stride, count);
}

void rfft(const double* in, Complex* out, std::size_t n) {
  check_real_length(n);
  rfft_row(in, out, plan_for(n / 2), split_twiddles(plan_for(n)));
}

void irfft(Complex* in, double* out, std::size_t n) {
  check_real_length(n);
  irfft_row(in, out, plan_for(n / 2), split_twiddles(plan_for(n)));
}

void rfft_planes(const double* in, Complex* out, std::size_t k,
                 std::size_t planes) {
  check_real_length(k);
  const Plan& half = plan_for(k / 2);
  const Plan& full = plan_for(k);
  const Complex* w = split_twiddles(full);
  const std::size_t h = half_length(k);
  for (std::size_t row = 0; row < planes * k; ++row)
    rfft_row(in + row * k, out + row * h, half, w);
  for (std::size_t z = 0; z < planes; ++z)
    lines_kernel<false>(out + z * k * h, full, h, h);
}

void irfft_planes(Complex* in, double* out, std::size_t k,
                  std::size_t planes) {
  check_real_length(k);
  const Plan& half = plan_for(k / 2);
  const Plan& full = plan_for(k);
  const Complex* w = split_twiddles(full);
  const std::size_t h = half_length(k);
  for (std::size_t z = 0; z < planes; ++z)
    lines_kernel<true>(in + z * k * h, full, h, h);
  for (std::size_t row = 0; row < planes * k; ++row)
    irfft_row(in + row * h, out + row * k, half, w);
}

void rfft3d(const double* in, Complex* out, std::size_t k) {
  rfft_planes(in, out, k, k);
  fft_lines(out, k, k * half_length(k), k * half_length(k),
            FftSign::kForward);
}

void irfft3d(Complex* in, double* out, std::size_t k) {
  fft_lines(in, k, k * half_length(k), k * half_length(k),
            FftSign::kBackward);
  irfft_planes(in, out, k, k);
}

Grid3D::Grid3D(std::size_t k) : k_(k), data_(k * k * k) {
  if (!is_power_of_two(k))
    throw std::invalid_argument("Grid3D: K must be a power of two");
}

void Grid3D::clear() {
  for (auto& v : data_) v = Complex{};
}

void Grid3D::transform(bool inverse) {
  const FftSign sign = inverse ? FftSign::kBackward : FftSign::kForward;
  const std::size_t plane = k_ * k_;
  // x lines (contiguous), then y and z lines batched over the contiguous
  // dimension.
  const Plan& plan = plan_for(k_);
  for (std::size_t row = 0; row < k_ * k_; ++row) {
    if (inverse)
      line_kernel<true>(data_.data() + row * k_, plan, 1);
    else
      line_kernel<false>(data_.data() + row * k_, plan, 1);
  }
  for (std::size_t z = 0; z < k_; ++z)
    fft_lines(data_.data() + z * plane, k_, k_, k_, sign);
  fft_lines(data_.data(), k_, plane, plane, sign);
  if (inverse) {
    const double scale = 1.0 / double(data_.size());
    for (auto& v : data_) v *= scale;
  }
}

}  // namespace mdm

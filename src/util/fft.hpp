#pragma once

/// \file fft.hpp
/// Self-contained radix-2 FFT on power-of-two lengths, built for the smooth
/// particle-mesh Ewald solver (the O(N log N) alternative the paper cites
/// as ref. [4] and proposes to compare against).
///
/// Every length runs on a precomputed plan: a bit-reversal swap list and a
/// per-stage twiddle table, built once per length on first use (thread
/// safe; rank threads share them). No transform evaluates trig. Three
/// kernel shapes run on the plans:
///  * one line, contiguous or strided (fft, fft_strided, Grid3D x lines);
///  * a batch of interleaved lines (fft_lines): the butterflies walk the
///    contiguous dimension, so column passes are unit-stride sweeps;
///  * real-to-complex / complex-to-real lines (rfft, irfft) as a half-length
///    complex transform plus one split pass.
/// rfft3d / irfft3d compose them into the real cubic transform the PME
/// mesh needs. The half spectrum of a length-K real line holds the
/// K/2 + 1 non-redundant frequencies 0..K/2.

#include <complex>
#include <cstddef>
#include <vector>

namespace mdm {

using Complex = std::complex<double>;

/// True if n is a power of two (and > 0).
constexpr bool is_power_of_two(std::size_t n) {
  return n > 0 && (n & (n - 1)) == 0;
}

/// Exponent sign of an unscaled transform: forward sums x e^{-2 pi i jk/n},
/// backward sums x e^{+2 pi i jk/n} (no 1/n).
enum class FftSign { kForward, kBackward };

/// In-place FFT of length-n power-of-two data; inverse = conjugate
/// transform scaled by 1/n.
void fft(std::vector<Complex>& data, bool inverse);

/// In-place FFT on a strided view; inverse is scaled by 1/n as in fft().
void fft_strided(Complex* data, std::size_t n, std::size_t stride,
                 bool inverse);

/// Unscaled in-place FFT of `count` interleaved length-n lines: element i
/// of line c sits at data[i * stride + c] (count <= stride).
void fft_lines(Complex* data, std::size_t n, std::size_t stride,
               std::size_t count, FftSign sign);

/// Forward real-to-complex transform of one length-n real line (n a power
/// of two >= 2) into its n/2 + 1 half-spectrum values, unscaled.
void rfft(const double* in, Complex* out, std::size_t n);

/// Unscaled backward complex-to-real transform of a Hermitian half
/// spectrum (n/2 + 1 values; the imaginary parts of bins 0 and n/2 are
/// ignored) into n reals. irfft(rfft(x)) == n * x. Overwrites `in`.
void irfft(Complex* in, double* out, std::size_t n);

/// Half-spectrum width of a length-k real axis: k/2 + 1.
constexpr std::size_t half_length(std::size_t k) { return k / 2 + 1; }

/// Forward R2C over a stack of `planes` real k x k planes [(z*k + y)*k + x]
/// into [(z*k + y)*h + kx], h = half_length(k): rfft along x, then the
/// y lines of every plane.
void rfft_planes(const double* in, Complex* out, std::size_t k,
                 std::size_t planes);

/// Unscaled backward of rfft_planes: y lines, then irfft along x.
/// Overwrites `in`.
void irfft_planes(Complex* in, double* out, std::size_t k,
                  std::size_t planes);

/// Forward R2C of a real k^3 cube [(z*k + y)*k + x] into its half spectrum
/// [(kz*k + ky)*h + kx]: rfft_planes, then the z lines.
void rfft3d(const double* in, Complex* out, std::size_t k);

/// Unscaled backward C2R of rfft3d's layout. Overwrites `in`.
void irfft3d(Complex* in, double* out, std::size_t k);

/// Cubic K x K x K grid of complex values, indexed [(z*K + y)*K + x].
class Grid3D {
 public:
  explicit Grid3D(std::size_t k);

  std::size_t k() const { return k_; }
  std::size_t size() const { return data_.size(); }

  Complex& at(std::size_t x, std::size_t y, std::size_t z) {
    return data_[(z * k_ + y) * k_ + x];
  }
  const Complex& at(std::size_t x, std::size_t y, std::size_t z) const {
    return data_[(z * k_ + y) * k_ + x];
  }
  std::vector<Complex>& data() { return data_; }
  const std::vector<Complex>& data() const { return data_; }

  void clear();

  /// In-place 3D FFT (inverse = conjugate transform scaled by 1/K^3).
  void transform(bool inverse);

 private:
  std::size_t k_;
  std::vector<Complex> data_;
};

}  // namespace mdm

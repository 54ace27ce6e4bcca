#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <thread>

#include "core/lattice.hpp"
#include "ewald/ewald.hpp"
#include "ewald/parameters.hpp"
#include "ewald/direct_sum.hpp"
#include "ewald/pme.hpp"
#include "ewald/pme_kernels.hpp"
#include "util/fft.hpp"
#include "util/random.hpp"
#include "util/units.hpp"

namespace mdm {
namespace {

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> data(6);
  EXPECT_THROW(fft(data, false), std::invalid_argument);
  EXPECT_THROW(Grid3D(12), std::invalid_argument);
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<Complex> data(8);
  data[0] = 1.0;
  fft(data, false);
  for (const auto& v : data) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, RoundTripIdentity) {
  Random rng(1);
  std::vector<Complex> data(64);
  for (auto& v : data) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto original = data;
  fft(data, false);
  fft(data, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-12);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-12);
  }
}

TEST(Fft, MatchesDirectDft) {
  Random rng(2);
  const std::size_t n = 16;
  std::vector<Complex> data(n);
  for (auto& v : data) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto direct = [&](std::size_t m) {
    Complex sum{};
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * std::numbers::pi * double(m * j) / n;
      sum += data[j] * Complex{std::cos(angle), std::sin(angle)};
    }
    return sum;
  };
  std::vector<Complex> expected(n);
  for (std::size_t m = 0; m < n; ++m) expected[m] = direct(m);
  fft(data, false);
  for (std::size_t m = 0; m < n; ++m) {
    EXPECT_NEAR(data[m].real(), expected[m].real(), 1e-10);
    EXPECT_NEAR(data[m].imag(), expected[m].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalOnGrid3D) {
  Random rng(3);
  Grid3D grid(8);
  double sum2 = 0.0;
  for (auto& v : grid.data()) {
    v = {rng.uniform(-1, 1), 0.0};
    sum2 += std::norm(v);
  }
  grid.transform(false);
  double spec2 = 0.0;
  for (const auto& v : grid.data()) spec2 += std::norm(v);
  EXPECT_NEAR(spec2, sum2 * double(grid.size()), 1e-8 * spec2);
}

/// Naive O(n^2) forward DFT of a real line.
std::vector<Complex> naive_real_dft(const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t m = 0; m < n; ++m)
    for (std::size_t j = 0; j < n; ++j) {
      const double angle =
          -2.0 * std::numbers::pi * double((m * j) % n) / double(n);
      out[m] += x[j] * Complex{std::cos(angle), std::sin(angle)};
    }
  return out;
}

TEST(Fft, RealForwardMatchesNaiveDft) {
  Random rng(11);
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(-1, 1);
    const auto expected = naive_real_dft(x);
    double scale = 0.0;
    for (const auto& v : expected) scale = std::max(scale, std::abs(v));
    std::vector<Complex> half(half_length(n));
    rfft(x.data(), half.data(), n);
    for (std::size_t m = 0; m < half.size(); ++m)
      EXPECT_LT(std::abs(half[m] - expected[m]), 1e-12 * scale)
          << "n=" << n << " m=" << m;
  }
}

TEST(Fft, RealRoundTrip) {
  Random rng(12);
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(-1, 1);
    std::vector<Complex> half(half_length(n));
    std::vector<double> back(n);
    rfft(x.data(), half.data(), n);
    irfft(half.data(), back.data(), n);
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(back[j] / double(n), x[j], 1e-12) << "n=" << n;
  }
  std::vector<double> x(6);
  std::vector<Complex> half(4);
  EXPECT_THROW(rfft(x.data(), half.data(), 6), std::invalid_argument);
  EXPECT_THROW(rfft(x.data(), half.data(), 1), std::invalid_argument);
}

TEST(Fft, BatchedLinesMatchSingleLinesBitForBit) {
  Random rng(13);
  const std::size_t n = 32, count = 17, stride = 20;
  std::vector<Complex> batch(n * stride);
  for (auto& v : batch) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto single = batch;
  fft_lines(batch.data(), n, stride, count, FftSign::kForward);
  for (std::size_t c = 0; c < count; ++c)
    fft_strided(single.data() + c, n, stride, false);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < stride; ++c)
      EXPECT_EQ(batch[i * stride + c], single[i * stride + c]) << i << " " << c;
}

TEST(Fft, Real3dMatchesGrid3DOnTheHalfSpectrum) {
  Random rng(14);
  for (std::size_t k : {2u, 8u, 16u}) {
    const std::size_t h = half_length(k);
    std::vector<double> mesh(k * k * k);
    Grid3D grid(k);
    for (std::size_t i = 0; i < mesh.size(); ++i) {
      mesh[i] = rng.uniform(-1, 1);
      grid.data()[i] = mesh[i];
    }
    std::vector<Complex> half(k * k * h);
    rfft3d(mesh.data(), half.data(), k);
    grid.transform(false);
    double scale = 0.0;
    for (const auto& v : grid.data()) scale = std::max(scale, std::abs(v));
    for (std::size_t z = 0; z < k; ++z)
      for (std::size_t y = 0; y < k; ++y)
        for (std::size_t x = 0; x < h; ++x)
          EXPECT_LT(std::abs(half[(z * k + y) * h + x] - grid.at(x, y, z)),
                    1e-12 * scale)
              << "k=" << k << " " << x << " " << y << " " << z;
    // Unscaled backward C2R returns K^3 times the mesh.
    std::vector<double> back(mesh.size());
    irfft3d(half.data(), back.data(), k);
    const double n3 = double(mesh.size());
    for (std::size_t i = 0; i < mesh.size(); ++i)
      EXPECT_NEAR(back[i] / n3, mesh[i], 1e-12) << "k=" << k;
  }
}

TEST(Fft, HalfSpectrumEnergyWeightingMatchesFullCube) {
  Random rng(15);
  const int k = 16;
  const std::size_t ku = k, h = half_length(ku);
  const auto b2 = pme::axis_b2(k, 6);
  std::vector<double> mesh(ku * ku * ku);
  Grid3D grid(ku);
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    mesh[i] = rng.uniform(-1, 1);
    grid.data()[i] = mesh[i];
  }
  grid.transform(false);
  double full = 0.0;
  for (int z = 0; z < k; ++z)
    for (int y = 0; y < k; ++y)
      for (int x = 0; x < k; ++x)
        full += pme::influence_theta(x, y, z, k, 5.0, b2) *
                std::norm(grid.at(x, y, z));
  std::vector<Complex> half(ku * ku * h);
  std::vector<double> theta(half.size());
  for (int z = 0; z < k; ++z)
    for (int y = 0; y < k; ++y)
      for (std::size_t x = 0; x < h; ++x)
        theta[(z * ku + y) * h + x] =
            pme::influence_theta(int(x), y, z, k, 5.0, b2);
  rfft3d(mesh.data(), half.data(), ku);
  const double weighted =
      pme::convolve_half(half.data(), theta.data(), ku * ku, k);
  EXPECT_NEAR(weighted, full, 1e-12 * full);
}

TEST(Fft, PlansBuiltConcurrentlyAgree) {
  // A length no other test uses, so the threads race to build its plan.
  const std::size_t n = 1u << 13;
  std::vector<Complex> input(n);
  Random rng(16);
  for (auto& v : input) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  std::vector<std::vector<Complex>> out(4, input);
  std::vector<std::thread> threads;
  for (auto& o : out) threads.emplace_back([&o] { fft(o, false); });
  for (auto& t : threads) t.join();
  for (std::size_t r = 1; r < out.size(); ++r) EXPECT_EQ(out[r], out[0]);
}

TEST(Bspline, RecurrenceMatchesRecursiveForm) {
  const double box = 10.0;
  const int grid = 32;
  for (int p = 3; p <= pme::kMaxOrder; ++p)
    for (double t : {0.0, 1e-12, 0.5, 1.0 - 1e-12}) {
      // Place x so that u = x / L * K = 7 + t.
      const double x = (7.0 + t) * box / grid;
      pme::SplineWeights s;
      pme::spline_weights({x, x, x}, box, grid, p, s);
      const double tt = x / box * grid - 7.0;
      for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(s.base[d], 7);
        for (int j = 0; j < p; ++j) {
          EXPECT_NEAR(s.w[d][j], bspline(p, tt + j), 1e-14)
              << "p=" << p << " t=" << t << " j=" << j;
          EXPECT_NEAR(s.dw[d][j],
                      bspline(p - 1, tt + j) - bspline(p - 1, tt + j - 1),
                      1e-14)
              << "p=" << p << " t=" << t << " j=" << j;
          EXPECT_EQ(s.index[d][j], ((7 - j) % grid + grid) % grid);
        }
      }
    }
}

TEST(Bspline, PartitionOfUnityAndSupport) {
  for (int p : {3, 4, 6}) {
    EXPECT_EQ(bspline(p, -0.5), 0.0);
    EXPECT_EQ(bspline(p, p + 0.5), 0.0);
    // sum_j M_p(t + j) == 1 for t in [0,1).
    for (double t = 0.0; t < 1.0; t += 0.093) {
      double sum = 0.0;
      for (int j = 0; j < p; ++j) sum += bspline(p, t + j);
      EXPECT_NEAR(sum, 1.0, 1e-12) << p << " " << t;
    }
  }
  // M_2 is the hat function.
  EXPECT_DOUBLE_EQ(bspline(2, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(bspline(2, 0.5), 0.5);
  // M_4 at integer knots: the cubic B-spline values 1/6, 4/6, 1/6.
  EXPECT_NEAR(bspline(4, 1.0), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(bspline(4, 2.0), 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(bspline(4, 3.0), 1.0 / 6.0, 1e-12);
}

ParticleSystem melt(int n_cells, std::uint64_t seed) {
  auto sys = make_nacl_crystal(n_cells);
  Random rng(seed);
  for (auto& r : sys.positions())
    r += Vec3{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
              rng.uniform(-0.3, 0.3)};
  sys.wrap_positions();
  return sys;
}

TEST(SmoothPme, RejectsBadConfig) {
  EXPECT_THROW(SmoothPme({0.0, 4.0, 32, 4}, 12.0), std::invalid_argument);
  EXPECT_THROW(SmoothPme({6.0, 10.0, 32, 4}, 12.0),
               std::invalid_argument);  // r_cut > L/2
  EXPECT_THROW(SmoothPme({6.0, 4.0, 24, 4}, 12.0),
               std::invalid_argument);  // grid not power of two
  EXPECT_THROW(SmoothPme({6.0, 4.0, 32, 2}, 12.0),
               std::invalid_argument);  // order too low
  EXPECT_THROW(SmoothPme({6.0, 4.0, 4, 4}, 12.0),
               std::invalid_argument);  // grid < 2*order
}

TEST(SmoothPme, ReciprocalMatchesExactEwald) {
  const auto sys = melt(2, 77);
  // Tight truncation: PME sums the full mode cube, so the exact reference
  // must be converged (paper-accuracy truncation would differ by ~4e-3).
  const auto params =
      software_parameters(double(sys.size()), sys.box(), {3.6, 3.8});

  EwaldCoulomb exact(params, sys.box());
  std::vector<Vec3> ref(sys.size(), Vec3{});
  const auto ref_result = exact.add_wavenumber_space(sys, ref);

  SmoothPme pme({params.alpha, params.r_cut, 32, 6}, sys.box());
  std::vector<Vec3> got(sys.size(), Vec3{});
  const double energy = pme.add_reciprocal(sys, got);

  EXPECT_NEAR(energy, ref_result.potential,
              2e-4 * std::fabs(ref_result.potential));
  double fscale = 0.0;
  for (const auto& f : ref) fscale = std::max(fscale, norm(f));
  for (std::size_t i = 0; i < sys.size(); ++i)
    EXPECT_NEAR(norm(got[i] - ref[i]), 0.0, 2e-3 * fscale) << i;
}

TEST(SmoothPme, TotalMatchesExactEwald) {
  const auto sys = melt(2, 78);
  const auto params =
      software_parameters(double(sys.size()), sys.box(), {3.6, 3.8});

  EwaldCoulomb exact(params, sys.box());
  std::vector<Vec3> ref(sys.size());
  const auto ref_result = evaluate_forces(exact, sys, ref);

  SmoothPme pme({params.alpha, params.r_cut, 32, 6}, sys.box());
  std::vector<Vec3> got(sys.size());
  const auto got_result = evaluate_forces(pme, sys, got);

  EXPECT_NEAR(got_result.potential, ref_result.potential,
              1e-4 * std::fabs(ref_result.potential));
  double fscale = 0.0;
  for (const auto& f : ref) fscale = std::max(fscale, norm(f));
  for (std::size_t i = 0; i < sys.size(); ++i)
    EXPECT_NEAR(norm(got[i] - ref[i]), 0.0, 2e-3 * fscale);
}

TEST(SmoothPme, MadelungConstant) {
  const auto sys = make_nacl_crystal(2);
  const double d = kPaperLatticeConstant / 2.0;
  const double expected =
      -kMadelungNaCl * units::kCoulomb / d * (sys.size() / 2.0);
  const EwaldAccuracy tight{3.6, 3.8};
  const auto params = clamp_to_box(
      parameters_from_alpha(8.0, sys.box(), tight), sys.box());
  SmoothPme pme({params.alpha, params.r_cut, 64, 6}, sys.box());
  std::vector<Vec3> forces(sys.size());
  const double energy = evaluate_forces(pme, sys, forces).potential;
  EXPECT_NEAR(energy, expected, 1e-4 * std::fabs(expected));
}

TEST(SmoothPme, FinerGridConvergesToExact) {
  const auto sys = melt(2, 79);
  const auto params =
      software_parameters(double(sys.size()), sys.box(), {3.6, 3.8});
  EwaldCoulomb exact(params, sys.box());
  std::vector<Vec3> ref(sys.size(), Vec3{});
  exact.add_wavenumber_space(sys, ref);
  double ref_rms = 0.0;
  for (const auto& f : ref) ref_rms += norm2(f);

  double prev = 1e300;
  for (int grid : {16, 32, 64}) {
    SmoothPme pme({params.alpha, params.r_cut, grid, 4}, sys.box());
    std::vector<Vec3> got(sys.size(), Vec3{});
    pme.add_reciprocal(sys, got);
    double err = 0.0;
    for (std::size_t i = 0; i < sys.size(); ++i)
      err += norm2(got[i] - ref[i]);
    const double rel = std::sqrt(err / ref_rms);
    EXPECT_LT(rel, prev) << grid;
    prev = rel;
  }
  EXPECT_LT(prev, 1e-3);  // 64^3 with order 4 is sub-0.1%
}

TEST(SmoothPme, BitIdenticalAcrossPoolSizes) {
  const auto sys = melt(2, 81);
  const auto params = software_parameters(double(sys.size()), sys.box());
  SmoothPme serial({params.alpha, params.r_cut, 32, 6}, sys.box());
  std::vector<Vec3> ref(sys.size());
  const double ref_energy = evaluate_forces(serial, sys, ref).potential;
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    SmoothPme pooled({params.alpha, params.r_cut, 32, 6}, sys.box());
    pooled.set_thread_pool(&pool);
    std::vector<Vec3> got(sys.size());
    EXPECT_EQ(evaluate_forces(pooled, sys, got).potential, ref_energy);
    for (std::size_t i = 0; i < sys.size(); ++i) {
      EXPECT_EQ(got[i].x, ref[i].x) << threads << " " << i;
      EXPECT_EQ(got[i].y, ref[i].y) << threads << " " << i;
      EXPECT_EQ(got[i].z, ref[i].z) << threads << " " << i;
    }
  }
}

TEST(SmoothPme, TotalForceIsZero) {
  const auto sys = melt(2, 80);
  const auto params = software_parameters(double(sys.size()), sys.box());
  SmoothPme pme({params.alpha, params.r_cut, 32, 4}, sys.box());
  std::vector<Vec3> forces(sys.size());
  evaluate_forces(pme, sys, forces);
  Vec3 total;
  double fscale = 1e-12;
  for (const auto& f : forces) {
    total += f;
    fscale = std::max(fscale, norm(f));
  }
  // Spline spreading conserves total charge -> net force ~ mesh noise.
  EXPECT_LT(norm(total), 1e-9 * fscale * sys.size());
}

}  // namespace
}  // namespace mdm

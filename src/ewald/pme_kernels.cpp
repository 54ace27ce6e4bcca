#include "ewald/pme_kernels.hpp"

#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>

namespace mdm::pme {
namespace {

/// Raise c[j] = M_{k-1}(t + j), j < k - 1, to c[j] = M_k(t + j), j < k,
/// in place: M_k(x) = (x M_{k-1}(x) + (k - x) M_{k-1}(x - 1)) / (k - 1).
void raise_order(double* c, int k, double t) {
  const double div = 1.0 / (k - 1);
  c[k - 1] = div * (1.0 - t) * c[k - 2];
  for (int j = k - 2; j >= 1; --j) {
    const double x = t + j;
    c[j] = div * (x * c[j] + (k - x) * c[j - 1]);
  }
  c[0] = div * t * c[0];
}

}  // namespace

double bspline(int p, double x) {
  if (p < 2) throw std::invalid_argument("bspline: order must be >= 2");
  if (x <= 0.0 || x >= p) return 0.0;
  if (p == 2) return 1.0 - std::fabs(x - 1.0);
  return x / (p - 1) * bspline(p - 1, x) +
         (p - x) / (p - 1) * bspline(p - 1, x - 1.0);
}

void spline_weights(const Vec3& pos, double box, int grid, int order,
                    SplineWeights& s) {
  const double coord[3] = {pos.x, pos.y, pos.z};
  for (int d = 0; d < 3; ++d) {
    const double u = wrap_coordinate(coord[d], box) / box * grid;
    int base = static_cast<int>(std::floor(u));
    const double t = u - base;
    // wrap_coordinate returns [0, L), so only the u == K rounding edge
    // needs folding back onto plane 0.
    if (base >= grid) base -= grid;
    s.base[d] = base;
    for (int j = 0, g = base; j < order; ++j) {
      s.index[d][j] = g;
      g = g == 0 ? grid - 1 : g - 1;
    }
    // Order-2 hat, raised to order p - 1 for the derivative
    // dM_p(u)/du = M_{p-1}(u) - M_{p-1}(u - 1), then once more to p.
    double* c = s.w[d];
    c[0] = t;
    c[1] = 1.0 - t;
    for (int k = 3; k < order; ++k) raise_order(c, k, t);
    s.dw[d][0] = c[0];
    for (int j = 1; j < order - 1; ++j) s.dw[d][j] = c[j] - c[j - 1];
    s.dw[d][order - 1] = -c[order - 2];
    raise_order(c, order, t);
  }
}

void spread_particle(const SplineWeights& s, int order, int grid, double q,
                     double* const* planes) {
  const int* ix = s.index[0];
  const int* iy = s.index[1];
  for (int jz = 0; jz < order; ++jz) {
    double* plane = planes[jz];
    const double qz = q * s.w[2][jz];
    for (int jy = 0; jy < order; ++jy) {
      double* row = plane + iy[jy] * grid;
      const double wyz = qz * s.w[1][jy];
      for (int jx = 0; jx < order; ++jx) row[ix[jx]] += wyz * s.w[0][jx];
    }
  }
}

Vec3 gather_particle(const SplineWeights& s, int order, int grid,
                     const double* const* planes) {
  const int* ix = s.index[0];
  const int* iy = s.index[1];
  Vec3 f;
  for (int jz = 0; jz < order; ++jz) {
    const double* plane = planes[jz];
    const double wz = s.w[2][jz];
    const double dz = s.dw[2][jz];
    for (int jy = 0; jy < order; ++jy) {
      const double* row = plane + iy[jy] * grid;
      double sum_w = 0.0;
      double sum_dw = 0.0;
      for (int jx = 0; jx < order; ++jx) {
        const double phi = row[ix[jx]];
        sum_w += s.w[0][jx] * phi;
        sum_dw += s.dw[0][jx] * phi;
      }
      f.x += s.w[1][jy] * wz * sum_dw;
      f.y += s.dw[1][jy] * wz * sum_w;
      f.z += s.w[1][jy] * dz * sum_w;
    }
  }
  return f;
}

std::vector<double> axis_b2(int grid, int order) {
  // |b(n)|^2 per axis: b(n) = e^{2 pi i (p-1) n / K} /
  //   sum_{j=0}^{p-2} M_p(j+1) e^{2 pi i n j / K}  (Essmann eq. 4.4).
  std::vector<double> b2(grid);
  for (int n = 0; n < grid; ++n) {
    std::complex<double> denom{};
    for (int j = 0; j <= order - 2; ++j) {
      const double angle = 2.0 * std::numbers::pi * n * j / grid;
      denom += bspline(order, j + 1.0) *
               std::complex<double>{std::cos(angle), std::sin(angle)};
    }
    const double d2 = std::norm(denom);
    // Keep a zero (instead of a blow-up) where the spline sum vanishes;
    // those modes carry no PME weight.
    b2[n] = d2 > 1e-20 ? 1.0 / d2 : 0.0;
  }
  return b2;
}

double influence_theta(int nx, int ny, int nz, int grid, double alpha,
                       const std::vector<double>& b2) {
  if (nx == 0 && ny == 0 && nz == 0) return 0.0;
  // Signed alias of a grid frequency index: n in [0,K) -> [-K/2, K/2).
  const auto signed_index = [grid](int n) {
    return n <= grid / 2 ? n : n - grid;
  };
  const double sx = signed_index(nx);
  const double sy = signed_index(ny);
  const double sz = signed_index(nz);
  const double n2 = sx * sx + sy * sy + sz * sz;
  const double damp =
      (std::numbers::pi / alpha) * (std::numbers::pi / alpha);
  return std::exp(-damp * n2) / n2 * b2[nx] * b2[ny] * b2[nz];
}

double convolve_half(Complex* spec, const double* theta, std::size_t rows,
                     int grid) {
  const std::size_t h = half_length(static_cast<std::size_t>(grid));
  const auto norm2 = [](const Complex& a) {
    return a.real() * a.real() + a.imag() * a.imag();
  };
  double edges = 0.0;
  double interior = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    Complex* a = spec + r * h;
    const double* th = theta + r * h;
    edges += th[0] * norm2(a[0]) + th[h - 1] * norm2(a[h - 1]);
    for (std::size_t x = 1; x + 1 < h; ++x) interior += th[x] * norm2(a[x]);
    for (std::size_t x = 0; x < h; ++x) a[x] *= th[x];
  }
  return edges + 2.0 * interior;
}

}  // namespace mdm::pme

#include "mdgrape2/function_evaluator.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace mdm::mdgrape2 {
namespace {

/// Solve a small dense linear system in place (partial pivoting); used to
/// convert Chebyshev-node samples into monomial coefficients.
void solve_dense(std::vector<double>& a, std::vector<double>& b, int n) {
  for (int col = 0; col < n; ++col) {
    int pivot = col;
    for (int row = col + 1; row < n; ++row)
      if (std::fabs(a[row * n + col]) > std::fabs(a[pivot * n + col]))
        pivot = row;
    for (int k = 0; k < n; ++k) std::swap(a[col * n + k], a[pivot * n + k]);
    std::swap(b[col], b[pivot]);
    const double diag = a[col * n + col];
    if (diag == 0.0) throw std::runtime_error("singular interpolation system");
    for (int row = col + 1; row < n; ++row) {
      const double f = a[row * n + col] / diag;
      for (int k = col; k < n; ++k) a[row * n + k] -= f * a[col * n + k];
      b[row] -= f * b[col];
    }
  }
  for (int row = n - 1; row >= 0; --row) {
    double s = b[row];
    for (int k = row + 1; k < n; ++k) s -= a[row * n + k] * b[k];
    b[row] = s / a[row * n + row];
  }
}

}  // namespace

SegmentedTable SegmentedTable::fit(const std::function<double(double)>& g,
                                   const TableConfig& config) {
  if (!config.valid())
    throw std::invalid_argument("SegmentedTable: invalid config");

  SegmentedTable table;
  table.config_ = config;
  table.exp_min_ = std::ilogb(config.x_min);
  const int exp_max = std::ilogb(config.x_max) +
                      (std::ldexp(1.0, std::ilogb(config.x_max)) <
                               config.x_max
                           ? 1
                           : 0);
  table.exp_count_ = std::max(1, exp_max - table.exp_min_);
  table.sub_per_exp_ = config.segments / table.exp_count_;
  if (table.sub_per_exp_ < 1)
    throw std::invalid_argument(
        "SegmentedTable: domain spans more binades than segments");
  table.config_.segments = table.exp_count_ * table.sub_per_exp_;
  // The represented domain starts at the binade floor of x_min.
  table.config_.x_min = std::ldexp(1.0, table.exp_min_);

  table.x_max_f_ = static_cast<float>(config.x_max);

  constexpr int kCoef = kInterpolationOrder + 1;
  const auto segments = static_cast<std::size_t>(table.config_.segments);
  table.coefficients_.assign(segments * kCoef, 0.0f);
  table.mid_.resize(segments);
  table.half_.resize(segments);

  for (int s = 0; s < table.config_.segments; ++s) {
    double lo, hi;
    table.segment_bounds(s, lo, hi);
    table.mid_[s] = 0.5 * (lo + hi);
    table.half_[s] = 0.5 * (hi - lo);
    // Degree-4 Chebyshev interpolation nodes on [lo, hi].
    std::vector<double> matrix(kCoef * kCoef);
    std::vector<double> rhs(kCoef);
    for (int node = 0; node < kCoef; ++node) {
      const double t = std::cos(std::numbers::pi *
                                (2.0 * node + 1.0) / (2.0 * kCoef));
      const double x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t;
      double power = 1.0;
      for (int k = 0; k < kCoef; ++k) {
        matrix[node * kCoef + k] = power;
        power *= t;
      }
      rhs[node] = g(x);
    }
    solve_dense(matrix, rhs, kCoef);
    for (int k = 0; k < kCoef; ++k)
      table.coefficients_[static_cast<std::size_t>(s) * kCoef + k] =
          static_cast<float>(rhs[k]);
  }
  return table;
}

void SegmentedTable::segment_bounds(int s, double& lo, double& hi) const {
  const int e = exp_min_ + s / sub_per_exp_;
  const int sub = s % sub_per_exp_;
  const double base = std::ldexp(1.0, e);
  lo = base * (1.0 + static_cast<double>(sub) / sub_per_exp_);
  hi = base * (1.0 + static_cast<double>(sub + 1) / sub_per_exp_);
}

double SegmentedTable::evaluate_exact(double x) const {
  if (empty()) throw std::logic_error("SegmentedTable: table not loaded");
  if (!(x > 0.0)) return 0.0;
  if (x >= config_.x_max) return 0.0;
  if (x < config_.x_min) x = config_.x_min;
  const int s = segment_of(x);
  const double t = (x - mid_[s]) / half_[s];
  const float* c =
      coefficients_.data() + static_cast<std::size_t>(s) * (kInterpolationOrder + 1);
  double acc = c[kInterpolationOrder];
  for (int k = kInterpolationOrder - 1; k >= 0; --k) acc = acc * t + c[k];
  return acc;
}

}  // namespace mdm::mdgrape2

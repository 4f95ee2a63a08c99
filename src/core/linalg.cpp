#include "core/linalg.h"

#include <cmath>
#include <stdexcept>

namespace harvest::core {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return data_[r * cols_ + c];
}

void Matrix::add_outer(std::span<const double> v, double scale) {
  if (v.size() != rows_ || rows_ != cols_) {
    throw std::invalid_argument("add_outer: dimension mismatch");
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    const double vi_s = v[i] * scale;
    for (std::size_t j = 0; j < cols_; ++j) {
      data_[i * cols_ + j] += vi_s * v[j];
    }
  }
}

std::vector<double> cholesky_solve(Matrix a, std::span<const double> b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    throw std::invalid_argument("cholesky_solve: dimension mismatch");
  }
  // In-place lower Cholesky: A = L L^T.
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a.at(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a.at(j, k) * a.at(j, k);
    if (diag <= 0) {
      throw std::domain_error("cholesky_solve: matrix not positive definite");
    }
    const double ljj = std::sqrt(diag);
    a.at(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = a.at(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= a.at(i, k) * a.at(j, k);
      a.at(i, j) = sum / ljj;
    }
  }
  // Forward substitution: L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= a.at(i, k) * y[k];
    y[i] = sum / a.at(i, i);
  }
  // Back substitution: L^T x = y.
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= a.at(k, i) * x[k];
    x[i] = sum / a.at(i, i);
  }
  return x;
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

// Cache-line aligned, like argmax_bias_first below: every reward-model
// prediction runs this loop, and when that kernel's alignment left the loop
// straddling a cache line, the offline estimators of the ope-replay workload
// in roundbench/ ran 10-20% slower per row.
__attribute__((aligned(64))) double dot_bias_first(std::span<const double> w,
                                                   std::span<const double> x) {
  if (w.size() != x.size() + 1) {
    throw std::invalid_argument("dot_bias_first: size mismatch");
  }
  double s = 0;
  s += 1.0 * w[0];
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * w[i + 1];
  return s;
}

// Cache-line aligned so the scoring loop's placement, and with it decide()'s
// latency, does not depend on how much code the linker puts before it: a
// 16-byte shift that makes the outer loop's compare-and-branch straddle a
// 32-byte boundary slows decide() ~1.5x on Intel cores that keep such
// branches out of the µop cache (the serve-live workload in roundbench/).
__attribute__((aligned(64))) std::size_t argmax_bias_first(
    std::span<const double> weights, std::size_t num_actions,
    std::span<const double> x) {
  const std::size_t dim = x.size();
  const std::size_t stride = dim + 1;
  if (num_actions == 0 || weights.size() != num_actions * stride) {
    throw std::invalid_argument("argmax_bias_first: geometry mismatch");
  }
  return argmax_first(num_actions, [&](std::size_t a) {
    const double* w = weights.data() + a * stride;
    double score = 0;
    score += 1.0 * w[0];
    for (std::size_t i = 0; i < dim; ++i) score += x[i] * w[i + 1];
    return score;
  });
}

std::vector<double> flatten_rows(
    const std::vector<std::vector<double>>& rows) {
  std::vector<double> flat;
  for (const auto& row : rows) {
    if (row.size() != rows.front().size()) {
      throw std::invalid_argument("flatten_rows: ragged rows");
    }
    flat.insert(flat.end(), row.begin(), row.end());
  }
  if (flat.empty()) throw std::invalid_argument("flatten_rows: no values");
  return flat;
}

}  // namespace harvest::core

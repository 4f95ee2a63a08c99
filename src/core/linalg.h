// Small dense linear algebra: just enough for ridge regression reward models.
// Matrices are row-major, sized at runtime, and tiny (feature dimensions are
// single digits to low hundreds), so no BLAS is warranted.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace harvest::core {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// The entries in row-major order, for loops that index them directly.
  std::span<double> values() { return data_; }
  std::span<const double> values() const { return data_; }

  /// this += scale * (col_vec * col_vec^T); used to accumulate X^T W X.
  void add_outer(std::span<const double> v, double scale);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b for symmetric positive-definite A via Cholesky
/// factorization. Throws std::domain_error if A is not SPD (within a small
/// diagonal tolerance). A is passed by value because the factorization is
/// done in place on the copy.
std::vector<double> cholesky_solve(Matrix a, std::span<const double> b);

/// Dot product; the two spans must have equal length.
double dot(std::span<const double> a, std::span<const double> b);

/// w · [1, x] for a bias-first weight row, without building [1, x]: the same
/// operations in the same order as dot(x.with_bias(), w), so the result is
/// bit-identical to it. Throws std::invalid_argument unless
/// w.size() == x.size() + 1.
double dot_bias_first(std::span<const double> w, std::span<const double> x);

/// The argmax rule of every greedy choice: the lowest id among the largest
/// non-NaN values of score(0), ..., score(n - 1), or 0 when every score is
/// NaN. So ties go to the lowest id and a NaN score never wins. `score` is
/// called a second time for some ids when no score exceeds -inf.
template <typename Score>
std::size_t argmax_first(std::size_t n, Score score) {
  const double lowest = -std::numeric_limits<double>::infinity();
  double best = lowest;
  std::size_t arg = 0;
  for (std::size_t a = 0; a < n; ++a) {
    const double s = score(a);
    // A plain ">" from -inf compiles without a branch; a NaN test here
    // compiled to a data-dependent branch that made decide() 12-39% slower
    // across the roundbench workloads.
    if (s > best) {
      best = s;
      arg = a;
    }
  }
  if (best == lowest) {  // every score is -inf or NaN: the first -inf leads
    for (std::size_t a = 0; a < n; ++a) {
      if (!std::isnan(score(a))) return a;
    }
  }
  return arg;
}

/// The one linear-scoring kernel: argmax_a dot_bias_first(w_a, x) over
/// `num_actions` bias-first rows of x.size() + 1 doubles laid end to end,
/// with dot_bias_first's operations in the same order and argmax_first's
/// rule. Throws std::invalid_argument unless num_actions > 0 and
/// weights.size() == num_actions * (x.size() + 1).
std::size_t argmax_bias_first(std::span<const double> weights,
                              std::size_t num_actions,
                              std::span<const double> x);

/// Lays equal-length rows end to end, the layout argmax_bias_first reads.
/// Throws std::invalid_argument if there are no rows, the rows are empty,
/// or their lengths differ.
std::vector<double> flatten_rows(
    const std::vector<std::vector<double>>& rows);

}  // namespace harvest::core

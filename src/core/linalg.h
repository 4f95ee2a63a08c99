// Small dense linear algebra: just enough for ridge regression reward models.
// Matrices are row-major, sized at runtime, and tiny (feature dimensions are
// single digits to low hundreds), so no BLAS is warranted.
#pragma once

#include <cstddef>
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

}  // namespace harvest::core

// Small dense linear algebra: just enough for ridge regression reward models.
// Matrices are row-major, sized at runtime, and tiny (feature dimensions are
// single digits to low hundreds), so no BLAS is warranted.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
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

/// Which implementation a lane kernel (LinearScorer, fold_weighted_sample)
/// runs. kAvx2 works four lanes per instruction, with a separate multiply
/// and add and never a fused one, so both implementations give the same
/// bits. kAuto picks kAvx2 when the host has it and the shape is one where
/// it is faster, and kScalar otherwise.
enum class Lanes : std::uint8_t { kAuto, kScalar, kAvx2 };

/// True when this host runs AVX2; decided once per process.
bool host_has_avx2();

/// The one linear-scoring kernel: scores x against num_actions bias-first
/// weight rows, score_a = w_a · [1, x], for every action in one pass.
///
/// It keeps a feature-major copy of the rows, one lane per action, padded
/// to a multiple of 4 actions, and scores up to 16 actions per pass over x.
/// Each lane computes s = 0; s += 1.0 * w[0]; s += x[i] * w[i + 1] for i in
/// order, dot_bias_first's operations in its order, so every score is
/// bit-identical to dot_bias_first(w_a, x) on either implementation. (Where
/// two NaNs meet in an add, the one that comes out follows the operand
/// order the compiler picked, for the scalar loop too; it is a NaN either
/// way.) Scoring allocates nothing.
class LinearScorer {
 public:
  /// No actions; scores() and argmax() throw.
  LinearScorer() = default;

  /// `rows` is num_actions bias-first rows of dim + 1 doubles laid end to
  /// end (flatten_rows's layout). kAuto runs AVX2 from 4 actions up. Throws
  /// std::invalid_argument unless num_actions > 0 and rows.size() is a
  /// positive multiple of num_actions, or when kAvx2 is asked of a host
  /// without it.
  LinearScorer(std::span<const double> rows, std::size_t num_actions,
               Lanes lanes = Lanes::kAuto);

  /// The implementation kAuto resolved to (kScalar or kAvx2).
  Lanes lanes() const { return lanes_; }

  /// Writes every action's score into `out`. Throws std::invalid_argument
  /// unless x.size() is the rows' dim and out.size() is num_actions.
  void scores(std::span<const double> x, std::span<double> out) const;

  /// argmax_first over the scores: the lowest id among the largest non-NaN
  /// scores, or 0 when every score is NaN. Throws std::invalid_argument
  /// unless x.size() is the rows' dim and the scorer has actions.
  std::size_t argmax(std::span<const double> x) const;

  /// True when the lane copy holds exactly `rows` (bit for bit, padding
  /// lanes zero): how a caller that checksums its action-major rows
  /// covers the copy the scores are read from.
  bool matches(std::span<const double> rows) const;

 private:
  std::size_t num_actions_ = 0;
  std::size_t dim_ = 0;
  std::size_t stride_ = 0;  // lanes per feature: num_actions rounded up to 4
  Lanes lanes_ = Lanes::kScalar;
  std::vector<double> lanes_by_feature_;
};

/// The rank-1 fold of weighted least squares. With v = [1, x] and
/// n = x.size() + 1, adds (v_i * weight) * v_j to m[i * n + j] for every
/// j <= i, and (weight * reward) * v_k to b[k]: the lower triangle of
/// X^T W X and X^T W y, one sample at a time. Each entry gets one rounded
/// product of the rounded row factor and v_j, then one add, on either
/// implementation, so both give the same bits (NaN meeting NaN aside, as
/// for LinearScorer); entries above the diagonal are not touched. kAuto
/// runs AVX2 from dim 8 up. Allocates nothing. Throws
/// std::invalid_argument unless m.size() == n * n and b.size() == n, or
/// when kAvx2 is asked of a host without it.
void fold_weighted_sample(std::span<double> m, std::span<double> b,
                          std::span<const double> x, double reward,
                          double weight, Lanes lanes = Lanes::kAuto);

/// Lays equal-length rows end to end, the layout LinearScorer reads.
/// Throws std::invalid_argument if there are no rows, the rows are empty,
/// or their lengths differ.
std::vector<double> flatten_rows(
    const std::vector<std::vector<double>>& rows);

}  // namespace harvest::core

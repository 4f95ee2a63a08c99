#include "core/linalg.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

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

// Cache-line aligned, like the lane kernels below: every single-action
// prediction runs this loop, and when the old scoring kernel's alignment
// left the loop straddling a cache line, the offline estimators of the
// ope-replay workload in roundbench/ ran 10-20% slower per row.
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

// ---- Lane kernels --------------------------------------------------------
//
// Both kernels exist twice, once scalar and once with AVX2 intrinsics, and
// every lane of the AVX2 code performs the scalar code's operations in its
// order: a multiply rounded on its own, then an add. The AVX2 functions are
// compiled with target("avx2") alone: under "avx2,fma" or "avx512f", g++
// 12.2 contracts a multiply and an add into one vfmadd, which rounds once
// where the scalar code rounds twice and would move every golden. The
// target is set per function, not per file, so a build that compiles these
// sources with its own flags gets the same code.
//
// Every kernel starts on a cache line and aligns its loops to 32 bytes, so
// its speed does not depend on how much code comes before it: a 16-byte
// shift that made the old scoring loop's compare-and-branch straddle a
// 32-byte boundary slowed decide() ~1.5x on Intel cores that keep such
// branches out of the µop cache (the serve-live workload in roundbench/),
// and the scalar argmax's inner loop, placed across such a boundary, ran
// ~1.6x slower at 3 actions x 16 dims.

namespace {

constexpr std::size_t kLaneWidth = 4;    // doubles per AVX2 register
constexpr std::size_t kChunkLanes = 16;  // lanes scored per pass over x
// kAuto's crossovers (bench/micro_decision_latency: BM_ScorerArgmax and
// BM_FoldWeightedSample): below them the AVX2 code is no faster.
constexpr std::size_t kMinAvx2Actions = 4;
constexpr std::size_t kMinAvx2FoldDim = 8;

#if defined(__x86_64__) || defined(__i386__)
#define HARVEST_LANES_X86 1
bool detect_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
const bool kHostAvx2 = detect_avx2();
#else
constexpr bool kHostAvx2 = false;
#endif

// Out of line and cold, so that the kernels' fast paths carry no exception
// code: inlined into fold_weighted_sample, a throw with a built message
// made the 3 x 4 fold ~3 ns slower.
[[noreturn]] __attribute__((noinline, cold)) void throw_invalid(
    const char* what) {
  throw std::invalid_argument(what);
}

std::size_t round_up_lanes(std::size_t n) {
  return (n + kLaneWidth - 1) / kLaneWidth * kLaneWidth;
}

// The lanes: feature f of action a at lanes[f * stride + a].

/// Action a's score, one lane at a time: the scalar implementation.
inline double lane_score(const double* lanes, std::size_t stride,
                         std::size_t dim, const double* x, std::size_t a) {
  const double* w = lanes + a;
  double s = 0;
  s += 1.0 * w[0];
  for (std::size_t i = 0; i < dim; ++i) s += x[i] * w[(i + 1) * stride];
  return s;
}

/// argmax_first over lane_score.
inline std::size_t argmax_scalar(const double* lanes, std::size_t num_actions,
                                 std::size_t stride, std::size_t dim,
                                 const double* x) {
  return argmax_first(num_actions, [=](std::size_t a) {
    return lane_score(lanes, stride, dim, x, a);
  });
}

#if defined(HARVEST_LANES_X86)

// Scores the `width` lanes (a multiple of 4, at most kChunkLanes) that start
// at `c` into `out`. The register loops are unrolled so that the
// accumulators stay in registers; left to itself, g++ -O2 kept them on the
// stack. The lanes sit in a plain std::vector, so the loads are unaligned:
// allocating them 64-byte aligned (memalign) beside the decider rings left
// a freed 11.5 MB ring resident in roundbench's serve-live set-up, +8 MB of
// peak RSS.
template <std::size_t kRegs>
__attribute__((target("avx2"), always_inline)) inline void score_regs_avx2(
    const double* c, std::size_t stride, std::size_t dim, const double* x,
    double* out) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d s[kRegs];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < kRegs; ++r) {
    s[r] = _mm256_add_pd(_mm256_setzero_pd(),
                         _mm256_mul_pd(one, _mm256_loadu_pd(c + r * 4)));
  }
  for (std::size_t i = 0; i < dim; ++i) {
    c += stride;
    const __m256d xi = _mm256_broadcast_sd(x + i);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < kRegs; ++r) {
      s[r] = _mm256_add_pd(s[r], _mm256_mul_pd(xi, _mm256_loadu_pd(c + r * 4)));
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < kRegs; ++r) _mm256_store_pd(out + r * 4, s[r]);
}

__attribute__((target("avx2"), always_inline)) inline void score_chunk_avx2(
    const double* c, std::size_t stride, std::size_t dim, const double* x,
    std::size_t width, double* out) {
  switch (width / kLaneWidth) {
    case 1:
      return score_regs_avx2<1>(c, stride, dim, x, out);
    case 2:
      return score_regs_avx2<2>(c, stride, dim, x, out);
    case 3:
      return score_regs_avx2<3>(c, stride, dim, x, out);
    default:
      return score_regs_avx2<4>(c, stride, dim, x, out);
  }
}

// The chunks carry argmax_first's running state from one to the next. When
// no score beats -inf, the scalar argmax, whose scores have the same bits,
// runs argmax_first's second pass.
__attribute__((target("avx2"), aligned(64), optimize("align-loops=32")))
std::size_t argmax_avx2(
    const double* lanes, std::size_t num_actions, std::size_t stride,
    std::size_t dim, const double* x) {
  const double lowest = -std::numeric_limits<double>::infinity();
  alignas(32) double buf[kChunkLanes];
  double best = lowest;
  std::size_t arg = 0;
  for (std::size_t first = 0; first < num_actions; first += kChunkLanes) {
    const std::size_t count = std::min(kChunkLanes, num_actions - first);
    score_chunk_avx2(lanes + first, stride, dim, x, round_up_lanes(count),
                     buf);
    for (std::size_t j = 0; j < count; ++j) {
      if (buf[j] > best) {
        best = buf[j];
        arg = first + j;
      }
    }
  }
  if (best == lowest) return argmax_scalar(lanes, num_actions, stride, dim, x);
  return arg;
}

__attribute__((target("avx2"), aligned(64), optimize("align-loops=32")))
void scores_avx2(
    const double* lanes, std::size_t num_actions, std::size_t stride,
    std::size_t dim, const double* x, double* out) {
  alignas(32) double buf[kChunkLanes];
  for (std::size_t first = 0; first < num_actions; first += kChunkLanes) {
    const std::size_t count = std::min(kChunkLanes, num_actions - first);
    score_chunk_avx2(lanes + first, stride, dim, x, round_up_lanes(count),
                     buf);
    std::copy_n(buf, count, out + first);
  }
}

// One row of the fold below: row[0] gains f, then row[j] gains f * x[j - 1]
// for j = 1..len, four entries per instruction and the last 1 to 3 in an
// SSE register and a scalar. AVX masked stores were slower here: a later
// load cannot be forwarded from them.
__attribute__((target("avx2"), always_inline)) inline void fold_row_avx2(
    double* row, double f, const double* x, std::size_t len) {
  row[0] += f;
  const __m256d f4 = _mm256_set1_pd(f);
  std::size_t j = 1;
  for (; j + kLaneWidth <= len + 1; j += kLaneWidth) {
    const __m256d product = _mm256_mul_pd(f4, _mm256_loadu_pd(x + j - 1));
    _mm256_storeu_pd(row + j, _mm256_add_pd(_mm256_loadu_pd(row + j), product));
  }
  if (j + 1 <= len) {
    const __m128d product =
        _mm_mul_pd(_mm256_castpd256_pd128(f4), _mm_loadu_pd(x + j - 1));
    _mm_storeu_pd(row + j, _mm_add_pd(_mm_loadu_pd(row + j), product));
    j += 2;
  }
  if (j <= len) row[j] += f * x[j - 1];
}

__attribute__((target("avx2"), aligned(64), optimize("align-loops=32")))
void fold_avx2(
    double* m, double* b, const double* x, std::size_t n, double reward,
    double weight) {
  m[0] += weight;
  for (std::size_t i = 1; i < n; ++i) {
    fold_row_avx2(m + i * n, x[i - 1] * weight, x, i);
  }
  fold_row_avx2(b, weight * reward, x, n - 1);
}

#else

// Never called: kHostAvx2 is false, so kAvx2 is refused before these run.
std::size_t argmax_avx2(const double*, std::size_t, std::size_t, std::size_t,
                        const double*) {
  throw std::logic_error("argmax_avx2 without AVX2");
}
void scores_avx2(const double*, std::size_t, std::size_t, std::size_t,
                 const double*, double*) {
  throw std::logic_error("scores_avx2 without AVX2");
}
void fold_avx2(double*, double*, const double*, std::size_t, double,
               double) {
  throw std::logic_error("fold_avx2 without AVX2");
}

#endif

// Rows go in pairs that share each load of x_j.
inline void fold_scalar(double* m, double* b, const double* x, std::size_t n,
                        double reward, double weight) {
  m[0] += weight;
  std::size_t i = 1;
  for (; i + 1 < n; i += 2) {
    const double vi = x[i - 1] * weight;
    const double vk = x[i] * weight;
    double* const ri = m + i * n;
    double* const rk = ri + n;
    ri[0] += vi;
    rk[0] += vk;
    for (std::size_t j = 1; j <= i; ++j) {
      const double xj = x[j - 1];
      ri[j] += vi * xj;
      rk[j] += vk * xj;
    }
    rk[i + 1] += vk * x[i];
  }
  if (i < n) {  // the last row, when dim is odd
    const double vi = x[i - 1] * weight;
    double* const ri = m + i * n;
    ri[0] += vi;
    for (std::size_t j = 1; j <= i; ++j) ri[j] += vi * x[j - 1];
  }
  const double wr = weight * reward;
  b[0] += wr;
  for (std::size_t k = 1; k < n; ++k) b[k] += wr * x[k - 1];
}

}  // namespace

bool host_has_avx2() { return kHostAvx2; }

LinearScorer::LinearScorer(std::span<const double> rows,
                           std::size_t num_actions, Lanes lanes)
    : num_actions_(num_actions) {
  if (num_actions == 0 || rows.empty() || rows.size() % num_actions != 0) {
    throw_invalid("LinearScorer: geometry mismatch");
  }
  if (lanes == Lanes::kAvx2 && !kHostAvx2) {
    throw_invalid("LinearScorer: AVX2 asked of a host without it");
  }
  const std::size_t width = rows.size() / num_actions;  // dim + 1
  dim_ = width - 1;
  stride_ = round_up_lanes(num_actions);
  if (lanes == Lanes::kAuto) {
    lanes = kHostAvx2 && num_actions >= kMinAvx2Actions ? Lanes::kAvx2
                                                        : Lanes::kScalar;
  }
  lanes_ = lanes;
  lanes_by_feature_.assign(width * stride_, 0.0);
  for (std::size_t a = 0; a < num_actions; ++a) {
    for (std::size_t f = 0; f < width; ++f) {
      lanes_by_feature_[f * stride_ + a] = rows[a * width + f];
    }
  }
}

void LinearScorer::scores(std::span<const double> x,
                          std::span<double> out) const {
  if (x.size() != dim_ || out.size() != num_actions_) {
    throw_invalid("LinearScorer::scores: size mismatch");
  }
  const double* lanes = lanes_by_feature_.data();
  if (lanes_ == Lanes::kAvx2) {
    scores_avx2(lanes, num_actions_, stride_, dim_, x.data(), out.data());
    return;
  }
  for (std::size_t a = 0; a < num_actions_; ++a) {
    out[a] = lane_score(lanes, stride_, dim_, x.data(), a);
  }
}

// The scalar kernel is this function itself, flattened, so that decide()
// at a few actions makes one call, as it did before the AVX2 kernel existed.
__attribute__((aligned(64), optimize("align-loops=32"), flatten))
std::size_t LinearScorer::argmax(std::span<const double> x) const {
  if (x.size() != dim_ || num_actions_ == 0) {
    throw_invalid("LinearScorer::argmax: size mismatch");
  }
  const double* lanes = lanes_by_feature_.data();
  if (lanes_ == Lanes::kAvx2) {
    return argmax_avx2(lanes, num_actions_, stride_, dim_, x.data());
  }
  return argmax_scalar(lanes, num_actions_, stride_, dim_, x.data());
}

bool LinearScorer::matches(std::span<const double> rows) const {
  const std::size_t width = dim_ + 1;
  if (num_actions_ == 0 || rows.size() != num_actions_ * width) return false;
  for (std::size_t f = 0; f < width; ++f) {
    for (std::size_t a = 0; a < stride_; ++a) {
      const double lane = lanes_by_feature_[f * stride_ + a];
      const double want = a < num_actions_ ? rows[a * width + f] : 0.0;
      if (std::bit_cast<std::uint64_t>(lane) !=
          std::bit_cast<std::uint64_t>(want)) {
        return false;
      }
    }
  }
  return true;
}

// The scalar fold is this function itself, flattened, as for
// LinearScorer::argmax: at a few dims the fold is a few dozen flops, and a
// second call cost RidgeRewardModel::observe ~2 ns at 3 actions x 4 dims.
__attribute__((aligned(64), optimize("align-loops=32"), flatten))
void fold_weighted_sample(std::span<double> m, std::span<double> b,
                          std::span<const double> x, double reward,
                          double weight, Lanes lanes) {
  const std::size_t n = x.size() + 1;
  if (m.size() != n * n || b.size() != n) {
    throw_invalid("fold_weighted_sample: size mismatch");
  }
  if (lanes == Lanes::kAuto) {
    lanes = kHostAvx2 && x.size() >= kMinAvx2FoldDim ? Lanes::kAvx2
                                                     : Lanes::kScalar;
  } else if (lanes == Lanes::kAvx2 && !kHostAvx2) {
    throw_invalid("fold_weighted_sample: AVX2 asked of a host without it");
  }
  if (lanes == Lanes::kAvx2) {
    return fold_avx2(m.data(), b.data(), x.data(), n, reward, weight);
  }
  fold_scalar(m.data(), b.data(), x.data(), n, reward, weight);
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

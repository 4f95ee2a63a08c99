// Property tests of the two lane kernels, each implementation called
// directly (not only the one the host dispatches to):
//  - LinearScorer::scores is bit-identical to dot_bias_first row by row, and
//    LinearScorer::argmax equal to argmax_first over those scores, at every
//    K in [1, 40] and D in [0, 26], with NaN, ±inf, −0.0, denormals, exact
//    ties and all-NaN / all-(−inf) rows;
//  - fold_weighted_sample is bit-identical to the per-entry formula it
//    documents, on the whole matrix, at dims 1 to 27.
// Where two NaNs meet in an add, which one comes out follows the
// instruction's operand order, which the compiler picks in scalar code too,
// so a NaN only has to match NaN.
//  - RidgeRewardModel::predict_all and greedy, and GreedyPolicy over a
//    ridge model, agree with per-action predict and argmax_first, and so do
//    the RewardModel defaults other models inherit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/linalg.h"
#include "core/policies/greedy.h"
#include "core/reward_model.h"
#include "testing/fixtures.h"

namespace harvest::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Equal bits, or both NaN.
::testing::AssertionResult same_value(double got, double want) {
  if (bits(got) == bits(want) || (std::isnan(got) && std::isnan(want))) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got bits " << std::hex << bits(got) << ", want " << bits(want);
}

const double kInf = std::numeric_limits<double>::infinity();
const double kNan = std::numeric_limits<double>::quiet_NaN();

/// The implementations this host runs.
std::vector<Lanes> host_lanes() {
  if (host_has_avx2()) return {Lanes::kScalar, Lanes::kAvx2};
  return {Lanes::kScalar};
}

std::string lanes_name(Lanes lanes) {
  return lanes == Lanes::kAvx2 ? "avx2" : "scalar";
}

/// Mostly ordinary values, sometimes a special one: NaN, ±inf, ±0,
/// denormals, and magnitudes whose products overflow or underflow.
double draw(util::Rng& rng, double special_rate) {
  static const double specials[] = {
      0.0,    -0.0,    kInf,   -kInf,   kNan,   5e-324, -5e-324,
      1e-310, 1e308,   -1e308, 1e-200,  1.0,    -1.0};
  return rng.bernoulli(special_rate)
             ? specials[rng.uniform_index(std::size(specials))]
             : rng.uniform(-4.0, 4.0);
}

/// argmax_first over dot_bias_first, the rule and the scores the scorer
/// must reproduce.
std::size_t reference_argmax(const std::vector<double>& rows, std::size_t k,
                             std::span<const double> x) {
  const std::size_t width = x.size() + 1;
  return argmax_first(k, [&](std::size_t a) {
    return dot_bias_first(std::span<const double>(rows).subspan(a * width, width),
                          x);
  });
}

void expect_scorer_matches(const std::vector<double>& rows, std::size_t k,
                           const std::vector<double>& x, Lanes lanes,
                           const std::string& where) {
  const LinearScorer scorer(rows, k, lanes);
  ASSERT_EQ(scorer.lanes(), lanes) << where;
  ASSERT_TRUE(scorer.matches(rows)) << where;
  std::vector<double> scores(k);
  scorer.scores(x, scores);
  const std::size_t width = x.size() + 1;
  for (std::size_t a = 0; a < k; ++a) {
    const double want = dot_bias_first(
        std::span<const double>(rows).subspan(a * width, width), x);
    ASSERT_TRUE(same_value(scores[a], want)) << where << ", action " << a;
  }
  ASSERT_EQ(scorer.argmax(x), reference_argmax(rows, k, x)) << where;
}

TEST(LaneKernelTest, ScorerMatchesDotBiasFirstAtEveryShape) {
  util::Rng rng(21);
  for (const Lanes lanes : host_lanes()) {
    for (std::size_t k = 1; k <= 40; ++k) {
      for (std::size_t dim = 0; dim <= 26; ++dim) {
        for (int trial = 0; trial < 3; ++trial) {
          // Trial 0 is ordinary values; later trials mix in specials.
          const double rate = trial == 0 ? 0.0 : 0.1 * trial;
          std::vector<double> rows(k * (dim + 1)), x(dim);
          for (double& v : rows) v = draw(rng, rate);
          for (double& v : x) v = draw(rng, rate);
          if (k > 1 && rng.bernoulli(0.5)) {  // an exact tie between two rows
            const std::size_t from = rng.uniform_index(k);
            const std::size_t to = rng.uniform_index(k);
            std::copy_n(rows.begin() + from * (dim + 1), dim + 1,
                        rows.begin() + to * (dim + 1));
          }
          expect_scorer_matches(rows, k, x, lanes,
                                lanes_name(lanes) + " K=" + std::to_string(k) +
                                    " D=" + std::to_string(dim) + " trial " +
                                    std::to_string(trial));
        }
      }
    }
  }
}

TEST(LaneKernelTest, ScorerArgmaxOnRowsWithoutAFiniteWinner) {
  // Scores set by the biases alone (zero feature weights, finite x): every
  // action NaN, every action -inf, and NaNs before the first -inf, at widths
  // that end inside a lane group and past one 16-lane chunk.
  for (const Lanes lanes : host_lanes()) {
    for (const std::size_t k : {1, 3, 4, 5, 16, 17, 21, 40}) {
      for (const std::size_t dim : {0, 1, 7}) {
        const std::vector<double> x(dim, 0.5);
        auto rows_with_biases = [&](auto bias_of) {
          std::vector<double> rows(k * (dim + 1), 0.0);
          for (std::size_t a = 0; a < k; ++a) rows[a * (dim + 1)] = bias_of(a);
          return rows;
        };
        const std::string where = lanes_name(lanes) + " K=" +
                                  std::to_string(k) + " D=" +
                                  std::to_string(dim);
        const auto all_nan = rows_with_biases([](std::size_t) { return kNan; });
        expect_scorer_matches(all_nan, k, x, lanes, where + " all NaN");
        EXPECT_EQ(LinearScorer(all_nan, k, lanes).argmax(x), 0u) << where;
        const auto all_minus_inf =
            rows_with_biases([](std::size_t) { return -kInf; });
        expect_scorer_matches(all_minus_inf, k, x, lanes, where + " all -inf");
        EXPECT_EQ(LinearScorer(all_minus_inf, k, lanes).argmax(x), 0u)
            << where;
        // NaN up to the last action, which alone is -inf.
        const auto last_minus_inf = rows_with_biases(
            [&](std::size_t a) { return a + 1 == k ? -kInf : kNan; });
        expect_scorer_matches(last_minus_inf, k, x, lanes,
                              where + " last -inf");
        EXPECT_EQ(LinearScorer(last_minus_inf, k, lanes).argmax(x), k - 1)
            << where;
        // Every score equal: the lowest id wins, -0.0 tying +0.0.
        const auto zeros = rows_with_biases(
            [](std::size_t a) { return a % 2 == 0 ? -0.0 : 0.0; });
        EXPECT_EQ(LinearScorer(zeros, k, lanes).argmax(x), 0u) << where;
      }
    }
    for (const testing::ScoringCase& c : testing::scoring_special_cases()) {
      EXPECT_EQ(LinearScorer(c.weights, 3, lanes)
                    .argmax(std::span<const double>(&c.x, 1)),
                c.expected)
          << lanes_name(lanes) << " " << c.name;
    }
  }
}

TEST(LaneKernelTest, AutoPicksAvx2FromFourActionsOnHostsThatHaveIt) {
  const std::vector<double> three(3 * 5, 0.5), four(4 * 5, 0.5);
  EXPECT_EQ(LinearScorer(three, 3).lanes(), Lanes::kScalar);
  EXPECT_EQ(LinearScorer(four, 4).lanes(),
            host_has_avx2() ? Lanes::kAvx2 : Lanes::kScalar);
  if (!host_has_avx2()) {
    EXPECT_THROW(LinearScorer(four, 4, Lanes::kAvx2), std::invalid_argument);
  }
  // matches() sees a one-bit change in any row, and a different geometry.
  std::vector<double> other = four;
  other[7] = std::nextafter(other[7], 1.0);
  EXPECT_TRUE(LinearScorer(four, 4).matches(four));
  EXPECT_FALSE(LinearScorer(four, 4).matches(other));
  EXPECT_FALSE(LinearScorer(four, 4).matches(three));
  EXPECT_FALSE(LinearScorer().matches({}));
  std::vector<double> out(3);
  EXPECT_THROW(LinearScorer(four, 4).scores(std::vector<double>(4), out),
               std::invalid_argument);  // 4 outputs needed, not 3
}

/// The formula fold_weighted_sample documents, entry by entry on the full
/// matrix, with v = [1, x].
void reference_fold(std::vector<double>& m, std::vector<double>& b,
                    const std::vector<double>& x, double reward,
                    double weight) {
  const std::size_t n = x.size() + 1;
  auto v = [&](std::size_t i) { return i == 0 ? 1.0 : x[i - 1]; };
  for (std::size_t i = 0; i < n; ++i) {
    const double row_factor = v(i) * weight;
    for (std::size_t j = 0; j <= i; ++j) m[i * n + j] += row_factor * v(j);
  }
  const double wr = weight * reward;
  for (std::size_t k = 0; k < n; ++k) b[k] += wr * v(k);
}

TEST(LaneKernelTest, FoldMatchesThePerEntryFormulaOnTheWholeMatrix) {
  util::Rng rng(22);
  for (const Lanes lanes : host_lanes()) {
    for (std::size_t dim = 1; dim <= 27; ++dim) {
      const std::size_t n = dim + 1;
      for (const double rate : {0.0, 0.05, 0.3}) {
        // The upper triangle starts at a sentinel the fold must not touch.
        std::vector<double> m(n * n), b(n);
        for (double& v : m) v = draw(rng, rate);
        for (double& v : b) v = draw(rng, rate);
        std::vector<double> want_m = m, want_b = b;
        for (int sample = 0; sample < 20; ++sample) {
          std::vector<double> x(dim);
          for (double& v : x) v = draw(rng, rate);
          const double reward = draw(rng, rate);
          const double weight = rate == 0.0 ? rng.uniform(0.5, 20.0)
                                            : draw(rng, rate);
          fold_weighted_sample(m, b, x, reward, weight, lanes);
          reference_fold(want_m, want_b, x, reward, weight);
        }
        for (std::size_t e = 0; e < m.size(); ++e) {
          ASSERT_TRUE(same_value(m[e], want_m[e]))
              << lanes_name(lanes) << " dim " << dim << " rate " << rate
              << " entry (" << e / n << ", " << e % n << ")";
        }
        for (std::size_t e = 0; e < n; ++e) {
          ASSERT_TRUE(same_value(b[e], want_b[e]))
              << lanes_name(lanes) << " dim " << dim << " b[" << e << "]";
        }
      }
    }
  }
  std::vector<double> m(9), b(2), x(1, 1.0);  // 9 entries: n is 2, not 3
  EXPECT_THROW(fold_weighted_sample(m, b, x, 1.0, 1.0), std::invalid_argument);
}

TEST(LaneKernelTest, RidgeObserveFoldsTheSameBitsOnEveryPath) {
  // Two models over the same rows, one folded by RidgeRewardModel::observe
  // (kAuto) and one merged from a model fed the same rows: equal bytes of
  // coefficients at dims on both sides of kAuto's crossover.
  util::Rng rng(23);
  for (const std::size_t dim : {1, 4, 7, 8, 16, 26}) {
    RidgeRewardModel observed(5, dim, 0.5);
    std::vector<double> m((dim + 1) * (dim + 1)), b(dim + 1);
    for (std::size_t i = 0; i < dim + 1; ++i) m[i * (dim + 1) + i] = 0.5;
    std::vector<double> want_m = m, want_b = b;
    for (int row = 0; row < 300; ++row) {
      std::vector<double> x(dim);
      for (double& v : x) v = rng.uniform(-2.0, 2.0);
      const double reward = rng.uniform();
      const double weight = rng.uniform(1.0, 10.0);
      observed.observe(x, 2, reward, weight);
      reference_fold(want_m, want_b, x, reward, weight);
    }
    observed.fit();
    Matrix xtx(dim + 1, dim + 1);
    std::copy(want_m.begin(), want_m.end(), xtx.values().begin());
    const std::vector<double> want = cholesky_solve(xtx, want_b);
    const std::span<const double> got = observed.weights(2);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t f = 0; f < want.size(); ++f) {
      EXPECT_EQ(bits(got[f]), bits(want[f])) << "dim " << dim << " f " << f;
    }
  }
}

TEST(LaneKernelTest, PredictAllAndGreedyAgreeWithPredict) {
  util::Rng rng(24);
  for (const std::size_t k : {1, 3, 4, 9, 16, 17, 40}) {
    for (const std::size_t dim : {1, 8, 26}) {
      auto model = std::make_shared<RidgeRewardModel>(k, dim, 1.0);
      for (int i = 0; i < 40 * static_cast<int>(k); ++i) {
        std::vector<double> x(dim);
        for (double& v : x) v = rng.uniform(-1.0, 1.0);
        model->observe(x, static_cast<ActionId>(rng.uniform_index(k)),
                       rng.uniform());
      }
      model->fit();
      const GreedyPolicy policy(model);
      std::vector<double> all(k);
      for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> values(dim);
        for (double& v : values) v = draw(rng, trial < 25 ? 0.0 : 0.2);
        const FeatureVector x(values);
        model->predict_all(x, all);
        for (std::size_t a = 0; a < k; ++a) {
          ASSERT_TRUE(
              same_value(all[a], model->predict(x, static_cast<ActionId>(a))))
              << "K=" << k << " D=" << dim << " action " << a;
        }
        const std::size_t want = argmax_first(k, [&](std::size_t a) {
          return model->predict(x, static_cast<ActionId>(a));
        });
        ASSERT_EQ(model->greedy(x), want) << "K=" << k << " D=" << dim;
        ASSERT_EQ(policy.choose(x), want) << "K=" << k << " D=" << dim;
      }
    }
  }
  RidgeRewardModel unfitted(3, 2, 1.0);
  std::vector<double> out(3);
  EXPECT_THROW(unfitted.predict_all(FeatureVector{0.1, 0.2}, out),
               std::logic_error);
  EXPECT_THROW(unfitted.greedy(FeatureVector{0.1, 0.2}), std::logic_error);
}

/// A model with only predict(): it runs the RewardModel defaults.
class SpecialScoresModel final : public RewardModel {
 public:
  explicit SpecialScoresModel(std::vector<double> scores)
      : scores_(std::move(scores)) {}
  double predict(const FeatureVector&, ActionId a) const override {
    return scores_.at(a);
  }
  std::size_t num_actions() const override { return scores_.size(); }
  std::string name() const override { return "special"; }

 private:
  std::vector<double> scores_;
};

TEST(LaneKernelTest, RewardModelDefaultsFollowPredict) {
  const FeatureVector x{0.5};
  const SpecialScoresModel nan_first({kNan, -kInf, 2.0, 2.0});
  std::vector<double> out(4);
  nan_first.predict_all(x, out);
  EXPECT_TRUE(std::isnan(out[0]));
  EXPECT_EQ(out[1], -kInf);
  EXPECT_EQ(nan_first.greedy(x), 2u);  // ties go to the lower id
  EXPECT_EQ(SpecialScoresModel({kNan, -kInf}).greedy(x), 1u);
  EXPECT_EQ(SpecialScoresModel({kNan, kNan}).greedy(x), 0u);
  std::vector<double> short_out(3);
  EXPECT_THROW(nan_first.predict_all(x, short_out), std::invalid_argument);
}

}  // namespace
}  // namespace harvest::core

// Reward models: r̂(x, a) regressors. They power the Direct Method and
// Doubly Robust estimators and the greedy learned policies ("the CB algorithm
// learns a good estimator of each server's latency", §5).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/linalg.h"
#include "core/types.h"

namespace harvest::core {

/// Predicts the expected reward of playing action `a` in context `x`.
class RewardModel {
 public:
  virtual ~RewardModel() = default;
  virtual double predict(const FeatureVector& x, ActionId a) const = 0;

  /// r̂(x, a) for every action into `out`: the doubles predict() returns,
  /// from one call per context. The default calls predict() per action.
  /// Throws std::invalid_argument unless out.size() == num_actions().
  virtual void predict_all(const FeatureVector& x,
                           std::span<double> out) const;

  /// The greedy action over the predictions, by core::argmax_first's rule:
  /// the lowest id among the largest non-NaN values, 0 when all are NaN.
  /// The default calls predict() per action.
  virtual ActionId greedy(const FeatureVector& x) const;

  virtual std::size_t num_actions() const = 0;
  virtual std::string name() const = 0;
};

using RewardModelPtr = std::shared_ptr<const RewardModel>;

/// One ridge regression per action on bias-augmented features, fit with
/// per-sample weights (importance weights when training from exploration
/// data). Closed-form normal equations solved by Cholesky. Only the lower
/// triangle of each X^T W X is accumulated (core::fold_weighted_sample),
/// because it is all the Cholesky solve reads. fit() also builds a
/// core::LinearScorer over the coefficients, which predict_all() and
/// greedy() read.
class RidgeRewardModel final : public RewardModel {
 public:
  /// `dim` is the raw context dimension (a bias feature is added inside).
  RidgeRewardModel(std::size_t num_actions, std::size_t dim, double lambda);

  /// Adds one weighted observation of ([1, x], a) -> reward, reading the raw
  /// context `x` in place by core::fold_weighted_sample, whose kAuto picks
  /// the implementation by dim. Allocates nothing. Throws std::out_of_range for
  /// an action out of range and std::invalid_argument unless x.size() is
  /// the model's dim.
  void observe(std::span<const double> x, ActionId a, double reward,
               double weight = 1.0);
  void observe(const FeatureVector& x, ActionId a, double reward,
               double weight = 1.0) {
    observe(x.values(), a, reward, weight);
  }

  /// Solves the normal equations; call after all observations (idempotent —
  /// re-fitting after more observations is allowed).
  void fit();

  /// Folds another model's accumulated observations into this one without
  /// double-counting the ridge prior. Both models must share num_actions,
  /// dim, and lambda. Lets callers accumulate sufficient statistics in
  /// per-shard models and merge them in a fixed order, which keeps the fit
  /// deterministic for any thread count.
  void merge_observations(const RidgeRewardModel& other);

  /// Drops every observation, leaving the model as constructed. Allocates
  /// nothing, so a caller can recycle accumulators.
  void clear_observations();

  /// predict(), predict_all() and greedy() throw std::logic_error before
  /// fit() and std::invalid_argument unless x.size() is the model's dim.
  double predict(const FeatureVector& x, ActionId a) const override;
  void predict_all(const FeatureVector& x,
                   std::span<double> out) const override;
  ActionId greedy(const FeatureVector& x) const override;
  std::size_t num_actions() const override { return per_action_.size(); }
  std::string name() const override { return "ridge"; }

  /// Every action's fitted coefficients as num_actions rows of dim+1,
  /// bias first, laid end to end: the layout core::LinearScorer and
  /// serve::PolicySnapshot read. Throws std::logic_error before fit().
  std::span<const double> coefficients() const;

  /// Row `a` of coefficients(). Throws std::out_of_range for an action out
  /// of range and std::logic_error before fit().
  std::span<const double> weights(ActionId a) const;

  /// Number of (weighted) observations seen for an action.
  double observation_weight(ActionId a) const;

 private:
  struct PerAction {
    Matrix xtx;                    // X^T W X + lambda I, lower triangle
    std::vector<double> xty;       // X^T W y accumulator
    double total_weight = 0;
  };

  std::size_t dim_with_bias_;
  double lambda_;
  std::vector<PerAction> per_action_;
  std::vector<double> coef_;  // solved weights, num_actions * dim_with_bias_
  LinearScorer scorer_;       // coef_'s lanes; empty until the first fit()
  bool fitted_ = false;       // coef_ solves the current accumulators
};

/// Online per-action linear model trained by weighted SGD; used by the
/// epoch-greedy online learner where refitting normal equations per step
/// would be wasteful.
class SgdRewardModel final : public RewardModel {
 public:
  SgdRewardModel(std::size_t num_actions, std::size_t dim,
                 double learning_rate, double l2 = 0.0);

  /// One gradient step on squared error, scaled by `weight`.
  void update(const FeatureVector& x, ActionId a, double reward,
              double weight = 1.0);

  double predict(const FeatureVector& x, ActionId a) const override;
  std::size_t num_actions() const override { return weights_.size(); }
  std::string name() const override { return "sgd-linear"; }

 private:
  double learning_rate_;
  double l2_;
  std::vector<std::vector<double>> weights_;  // [action][dim+1], bias first
  std::vector<std::size_t> updates_;          // per-action step counts
};

/// Fits a ridge model from exploration data with optional importance
/// weighting (weight 1/p corrects the logging policy's action skew).
RidgeRewardModel fit_ridge(const ExplorationDataset& data, double lambda,
                           bool importance_weighted);

/// Fits a ridge model from full-feedback data (every action of every context
/// contributes one sample) — the supervised skyline of Fig. 4.
RidgeRewardModel fit_ridge_full(const FullFeedbackDataset& data,
                                double lambda);

}  // namespace harvest::core

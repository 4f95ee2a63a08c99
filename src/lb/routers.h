// The concrete routing policies of Table 2 plus the richer-exploration
// variants discussed in §5 (epoch-weighted randomization).
#pragma once

#include "core/policy.h"
#include "lb/router.h"

namespace harvest::lb {

/// Uniform random routing — Nginx's `random` upstream directive. The ideal
/// harvesting source: every backend has propensity 1/S.
class RandomRouter final : public Router {
 public:
  explicit RandomRouter(std::size_t num_servers);

  std::size_t route(const RoutingContext& ctx, util::Rng& rng) override;
  std::vector<double> distribution(const RoutingContext& ctx) const override;
  std::string name() const override { return "random"; }
};

/// Sends each request to the backend with the fewest open connections
/// (Nginx `least_conn`). Ties break to the lowest index.
class LeastLoadedRouter final : public Router {
 public:
  explicit LeastLoadedRouter(std::size_t num_servers);

  std::size_t route(const RoutingContext& ctx, util::Rng& rng) override;
  std::vector<double> distribution(const RoutingContext& ctx) const override;
  std::string name() const override { return "least-loaded"; }
};

/// Always routes to one fixed backend — Table 2's "Send to 1", the policy
/// whose off-policy estimate breaks.
class SendToRouter final : public Router {
 public:
  SendToRouter(std::size_t num_servers, std::size_t target);

  std::size_t route(const RoutingContext& ctx, util::Rng& rng) override;
  std::vector<double> distribution(const RoutingContext& ctx) const override;
  std::string name() const override;

 private:
  std::size_t target_;
};

/// §5's richer-exploration proposal: instead of randomizing every request,
/// re-draw the traffic weights every `epoch_length` requests. This produces
/// sustained skewed-load episodes — exactly the coverage needed to evaluate
/// long-horizon policies such as send-to-1.
class EpochWeightedRandomRouter final : public Router {
 public:
  /// `min_weight` floors every server's share each epoch (the drawn
  /// Dirichlet weights are mixed with uniform) so importance weights stay
  /// bounded — propensities never drop below min_weight.
  EpochWeightedRandomRouter(std::size_t num_servers,
                            std::size_t epoch_length,
                            double concentration = 1.0,
                            double min_weight = 0.05);

  std::size_t route(const RoutingContext& ctx, util::Rng& rng) override;
  std::vector<double> distribution(const RoutingContext& ctx) const override;
  std::string name() const override { return "epoch-weighted-random"; }

 private:
  void redraw(util::Rng& rng);

  std::size_t epoch_length_;
  double concentration_;
  double min_weight_;
  std::size_t in_epoch_ = 0;
  std::vector<double> weights_;
};

/// Routes with a learned CB policy over the load context ("CB policy" row of
/// Table 2). Owns a shared_ptr to the policy so trained policies can be
/// deployed without copying the model.
class CbRouter final : public Router {
 public:
  explicit CbRouter(core::PolicyPtr policy);

  std::size_t route(const RoutingContext& ctx, util::Rng& rng) override;
  std::vector<double> distribution(const RoutingContext& ctx) const override;
  std::string name() const override { return "cb-policy"; }

 private:
  core::PolicyPtr policy_;
};

}  // namespace harvest::lb

#include "lb/routers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace harvest::lb {

namespace {
void check_servers(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Router: need at least one server");
}
}  // namespace

RandomRouter::RandomRouter(std::size_t num_servers) : Router(num_servers) {
  check_servers(num_servers);
}

std::size_t RandomRouter::route(const RoutingContext& /*ctx*/,
                                util::Rng& rng) {
  return rng.uniform_index(num_servers());
}

std::vector<double> RandomRouter::distribution(
    const RoutingContext& /*ctx*/) const {
  return std::vector<double>(num_servers(),
                             1.0 / static_cast<double>(num_servers()));
}

LeastLoadedRouter::LeastLoadedRouter(std::size_t num_servers)
    : Router(num_servers) {
  check_servers(num_servers);
}

std::size_t LeastLoadedRouter::route(const RoutingContext& ctx,
                                     util::Rng& /*rng*/) {
  const auto it = std::min_element(ctx.open_connections.begin(),
                                   ctx.open_connections.end());
  return static_cast<std::size_t>(it - ctx.open_connections.begin());
}

std::vector<double> LeastLoadedRouter::distribution(
    const RoutingContext& ctx) const {
  std::vector<double> d(num_servers(), 0.0);
  const auto it = std::min_element(ctx.open_connections.begin(),
                                   ctx.open_connections.end());
  d[static_cast<std::size_t>(it - ctx.open_connections.begin())] = 1.0;
  return d;
}

SendToRouter::SendToRouter(std::size_t num_servers, std::size_t target)
    : Router(num_servers), target_(target) {
  check_servers(num_servers);
  if (target >= num_servers) {
    throw std::invalid_argument("SendToRouter: target out of range");
  }
}

std::size_t SendToRouter::route(const RoutingContext& /*ctx*/,
                                util::Rng& /*rng*/) {
  return target_;
}

std::vector<double> SendToRouter::distribution(
    const RoutingContext& /*ctx*/) const {
  std::vector<double> d(num_servers(), 0.0);
  d[target_] = 1.0;
  return d;
}

std::string SendToRouter::name() const {
  return "send-to-" + std::to_string(target_ + 1);
}

EpochWeightedRandomRouter::EpochWeightedRandomRouter(std::size_t num_servers,
                                                     std::size_t epoch_length,
                                                     double concentration,
                                                     double min_weight)
    : Router(num_servers),
      epoch_length_(epoch_length),
      concentration_(concentration),
      min_weight_(min_weight),
      weights_(num_servers, 1.0 / static_cast<double>(num_servers)) {
  check_servers(num_servers);
  if (epoch_length == 0) {
    throw std::invalid_argument("EpochWeightedRandomRouter: epoch_length 0");
  }
  if (concentration <= 0) {
    throw std::invalid_argument(
        "EpochWeightedRandomRouter: concentration > 0");
  }
  if (min_weight < 0 ||
      min_weight * static_cast<double>(num_servers) >= 1.0) {
    throw std::invalid_argument(
        "EpochWeightedRandomRouter: min_weight in [0, 1/num_servers)");
  }
}

void EpochWeightedRandomRouter::redraw(util::Rng& rng) {
  // Dirichlet(concentration) via normalized Gamma draws; small
  // concentration -> extreme splits (one server takes most traffic).
  double total = 0;
  for (double& w : weights_) {
    // Gamma(k) for k<=1 via Johnk-like exponent trick: U^(1/k) * Exp(1)
    // has the right tail behaviour for exploration purposes.
    double u;
    do {
      u = rng.uniform();
    } while (u == 0.0);
    w = std::pow(u, 1.0 / concentration_) * rng.exponential(1.0);
    total += w;
  }
  if (total <= 0) {
    weights_.assign(num_servers(), 1.0 / static_cast<double>(num_servers()));
    return;
  }
  // Mix with uniform so every server keeps at least min_weight_ share —
  // bounded importance weights for the sequence estimators.
  const double uniform_mass =
      min_weight_ * static_cast<double>(num_servers());
  for (double& w : weights_) {
    w = (1.0 - uniform_mass) * (w / total) + min_weight_;
  }
}

std::size_t EpochWeightedRandomRouter::route(const RoutingContext& /*ctx*/,
                                             util::Rng& rng) {
  if (in_epoch_ == 0) redraw(rng);
  in_epoch_ = (in_epoch_ + 1) % epoch_length_;
  return rng.categorical(weights_);
}

std::vector<double> EpochWeightedRandomRouter::distribution(
    const RoutingContext& /*ctx*/) const {
  return weights_;  // current epoch's weights = the logging propensities
}

CbRouter::CbRouter(core::PolicyPtr policy)
    : Router(policy ? policy->num_actions() : 0), policy_(std::move(policy)) {
  if (!policy_) throw std::invalid_argument("CbRouter: null policy");
}

std::size_t CbRouter::route(const RoutingContext& ctx, util::Rng& rng) {
  return policy_->act(ctx.to_features(), rng);
}

std::vector<double> CbRouter::distribution(const RoutingContext& ctx) const {
  return policy_->distribution(ctx.to_features());
}

}  // namespace harvest::lb

#include "core/feature_vector.h"

#include <utility>

#include "core/linalg.h"

namespace harvest::core {

FeatureVector::FeatureVector(std::vector<double> values)
    : values_(std::move(values)) {}

FeatureVector::FeatureVector(std::initializer_list<double> values)
    : values_(values) {}

FeatureVector FeatureVector::with_bias() const {
  std::vector<double> v;
  v.reserve(values_.size() + 1);
  v.push_back(1.0);
  v.insert(v.end(), values_.begin(), values_.end());
  return FeatureVector(std::move(v));
}

double FeatureVector::dot(std::span<const double> weights) const {
  return core::dot(values_, weights);
}

}  // namespace harvest::core

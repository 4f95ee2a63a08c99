// Dense feature vectors. Contexts scavenged from system logs are
// feature-engineered into these before reaching the learners (step 1 of the
// harvesting methodology).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace harvest::core {

/// A dense real-valued context. Cheap to copy for the dimensionalities used
/// here; the simulators construct millions of these per run.
class FeatureVector {
 public:
  FeatureVector() = default;
  explicit FeatureVector(std::vector<double> values);
  FeatureVector(std::initializer_list<double> values);

  std::size_t size() const { return values_.size(); }
  double operator[](std::size_t i) const { return values_[i]; }
  double& operator[](std::size_t i) { return values_[i]; }
  std::span<const double> values() const { return values_; }

  /// Returns a copy with a leading constant-1 bias feature.
  FeatureVector with_bias() const;

  double dot(std::span<const double> weights) const;

 private:
  std::vector<double> values_;
};

}  // namespace harvest::core

// Immutable policy snapshots for the online decision service.
//
// A PolicySnapshot is the deployable unit the serving layer publishes: the
// flattened per-action linear weights of a trained CB policy (bias first,
// one contiguous row per action), the exploration spec (epsilon-greedy
// floor), and the context arity — everything `decide(context)` needs, laid
// out so the hot path touches one flat array and allocates nothing.
//
// Snapshots are immutable after construction and published to deciders via
// an atomic pointer swap (see service.h); epsilon-greedy exploration keeps
// every action's propensity >= epsilon/|A|, so the decision stream the
// service logs is harvestable by construction (§2's exploration-scavenging
// condition holds for every snapshot the trainer publishes).
//
// Integrity: every snapshot carries a checksum over (id, geometry, weight
// bit patterns) computed at construction and a liveness canary cleared by
// the destructor. `verify_integrity()` also checks the scorer's lane copy of
// the weights, which is what decide() reads, against the checksummed rows;
// it lets the swap torture tests assert that a concurrently acquired
// snapshot is never torn and never freed while a reader holds it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/linalg.h"
#include "core/types.h"
#include "util/rng.h"

namespace harvest::core {
class RidgeRewardModel;  // reward_model.h; snapshots copy its coefficients
}

namespace harvest::serve {

/// What decide() returns: the chosen action, the probability with which it
/// was chosen (the logged propensity), and the id of the snapshot that made
/// the call — the provenance the harvest loop needs to segment its logs.
struct Decision {
  core::ActionId action = 0;
  double propensity = 1.0;
  std::uint64_t snapshot_id = 0;
};

/// How a snapshot randomizes. kEpsGreedy is the classic uniform mix over
/// the greedy action; kPlanned executes a design::LoggingPlan — the context
/// is mapped to its stratum (the greedy action of the snapshot's weights)
/// and the action is drawn from that stratum's planned distribution, so the
/// logged propensities are exactly the plan's probabilities.
enum class SnapshotKind : std::uint8_t { kEpsGreedy = 0, kPlanned = 1 };

// Cache-line aligned, so the snapshot owns whole cache lines: every decide()
// on every decider thread reads its fields, while the thread that built it
// goes on writing the heap around it. When unrelated deletions moved the
// heap, serve-live's decide p90 in roundbench/ read ~480 ns instead of
// ~370 ns until the snapshot was aligned.
class alignas(64) PolicySnapshot {
 public:
  /// `weights` is num_actions rows of (dim+1) doubles, bias first —
  /// action a scores weights[a*(dim+1)] + weights[a*(dim+1)+1..] · x.
  /// `epsilon` in [0, 1] is the uniform-exploration mass mixed over the
  /// greedy choice (1 = uniform random, 0 = deterministic greedy).
  /// Throws std::invalid_argument on inconsistent geometry.
  PolicySnapshot(std::uint64_t id, std::size_t num_actions, std::size_t dim,
                 std::vector<double> weights, double epsilon);

  /// Planned-kind snapshot: `plan` is num_actions strata rows of
  /// num_actions probabilities (the design::LoggingPlan distributions,
  /// row-major); decide() draws from row greedy(context). Throws
  /// std::invalid_argument on bad geometry or a row that is not a
  /// probability distribution over (0, 1] summing to 1 (1e-9 tolerance).
  PolicySnapshot(std::uint64_t id, std::size_t num_actions, std::size_t dim,
                 std::vector<double> weights, std::vector<double> plan);
  ~PolicySnapshot();

  PolicySnapshot(const PolicySnapshot&) = delete;
  PolicySnapshot& operator=(const PolicySnapshot&) = delete;

  std::uint64_t id() const { return id_; }
  std::size_t num_actions() const { return num_actions_; }
  std::size_t dim() const { return dim_; }
  double epsilon() const { return epsilon_; }
  std::span<const double> weights() const { return weights_; }
  SnapshotKind kind() const { return kind_; }
  /// Planned distributions (empty for kEpsGreedy): row s holds pi(·|stratum
  /// s), so plan()[s * num_actions + a] is the propensity of action a there.
  std::span<const double> plan() const { return plan_; }

  /// argmax_a (w_a · [1, x]) by the core::LinearScorer built at
  /// construction: ties go to the lower action id and a NaN score never
  /// wins. Throws std::invalid_argument unless context.size() == dim().
  /// Zero-allocation.
  core::ActionId greedy(std::span<const double> context) const;

  /// Draw from the snapshot's conditional distribution. kEpsGreedy: with
  /// probability epsilon a uniform action, otherwise the greedy one (one
  /// rng draw when epsilon > 0 plus one more when exploring). kPlanned:
  /// inverse-CDF draw from the stratum's planned row (exactly one rng
  /// draw). The returned propensity is exactly pi(a|x). Zero-allocation.
  Decision decide(std::span<const double> context, util::Rng& rng) const;

  /// pi(a|x) for any action (cold path: tests, chi-squared checks). Throws
  /// std::out_of_range if a >= num_actions().
  double probability(std::span<const double> context, core::ActionId a) const;

  /// Exact byte serialization (little-endian id/geometry/epsilon + weight
  /// bit patterns; planned snapshots use a distinct magic and append the
  /// plan's bit patterns — eps-greedy bytes are unchanged from v1, so
  /// persisted stores stay readable). Two snapshots serialize identically
  /// iff they would make identical decisions — the determinism suite
  /// compares these bytes across trainer thread counts.
  std::string serialize() const;

  /// Inverse of serialize(): reconstructs a snapshot from its exact byte
  /// form, validating the payload magic, geometry, epsilon range, and
  /// weight-array length before the object exists — a loaded snapshot that
  /// passes is indistinguishable from the one that was saved
  /// (deserialize(serialize()) round-trips bit-identically, NaN and -0.0
  /// weights included). Throws std::invalid_argument on any malformation;
  /// never constructs a partially valid snapshot.
  static std::unique_ptr<const PolicySnapshot> deserialize(
      std::string_view bytes);

  /// True while the construction-time checksum still matches the live
  /// canary and the weight bytes, and the scorer's lanes still hold those
  /// weights. A torn concurrent read or a use after reclamation fails this
  /// (torture-test hook; cheap enough to call on every acquisition).
  bool verify_integrity() const;

  /// Process-wide count of constructed-but-not-destroyed snapshots. The
  /// stress suite asserts reclamation returns this to baseline.
  static std::uint64_t alive_count();

  // ---- builders ---------------------------------------------------------
  /// From explicit per-action weight rows (each dim+1, bias first), laid
  /// end to end by core::flatten_rows, as core::LinearPolicy lays its own.
  static std::unique_ptr<const PolicySnapshot> from_weights(
      std::uint64_t id, const std::vector<std::vector<double>>& weights,
      double epsilon);
  /// Copies a fitted ridge model's coefficient block, which is already in
  /// this layout (core::RidgeRewardModel::coefficients()) — how the
  /// SnapshotTrainer turns a retrain into a deployable snapshot. Throws
  /// std::invalid_argument if the model's dim is not `dim`.
  static std::unique_ptr<const PolicySnapshot> from_model(
      std::uint64_t id, const core::RidgeRewardModel& model, std::size_t dim,
      double epsilon);
  /// All-zero weights with epsilon 1: uniform randomization, the canonical
  /// pre-optimization logging policy whose randomness the loop harvests.
  static std::unique_ptr<const PolicySnapshot> uniform(
      std::uint64_t id, std::size_t num_actions, std::size_t dim);
  /// Planned-kind snapshot executing a logging plan's distributions over
  /// its reference weights (see design/plan.h for the producing side).
  static std::unique_ptr<const PolicySnapshot> planned(
      std::uint64_t id, std::size_t num_actions, std::size_t dim,
      std::vector<double> reference_weights, std::vector<double> plan);

 private:
  std::uint64_t checksum() const;

  std::uint64_t id_;
  std::uint32_t num_actions_;
  std::uint32_t dim_;
  double epsilon_;
  SnapshotKind kind_ = SnapshotKind::kEpsGreedy;
  std::vector<double> weights_;  ///< num_actions * (dim+1), bias first
  core::LinearScorer scorer_;    ///< weights_ in lanes; what greedy() reads
  std::vector<double> plan_;     ///< kPlanned: num_actions^2 row-major probs
  std::uint64_t checksum_ = 0;
  std::uint64_t canary_ = 0;
};

}  // namespace harvest::serve

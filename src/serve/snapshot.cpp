#include "serve/snapshot.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/linalg.h"
#include "core/reward_model.h"

namespace harvest::serve {

namespace {

constexpr std::uint64_t kCanaryLive = 0x5345525645414C56ULL;  // "SERVEALV"
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::atomic<std::uint64_t> g_alive{0};

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint32_t read_u32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t read_u64(std::string_view bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

/// serialize() layout: "SNAP" + id:u64 + num_actions:u32 + dim:u32 +
/// epsilon:f64 bits, then num_actions*(dim+1) weight bit patterns. Planned
/// snapshots use magic "SNP2" and append num_actions^2 plan bit patterns
/// after the weights; the shared header keeps loaders simple and the v1
/// eps-greedy byte stream untouched.
constexpr std::size_t kPayloadHeaderBytes = 4 + 8 + 4 + 4 + 8;

/// Extra checksum salt mixed in for planned snapshots so an eps-greedy and
/// a planned snapshot with coincidentally equal weight bytes can never
/// share a checksum ("PLAN").
constexpr std::uint64_t kPlanChecksumTag = 0x504C414EULL;

}  // namespace

PolicySnapshot::PolicySnapshot(std::uint64_t id, std::size_t num_actions,
                               std::size_t dim, std::vector<double> weights,
                               double epsilon)
    : id_(id),
      num_actions_(static_cast<std::uint32_t>(num_actions)),
      dim_(static_cast<std::uint32_t>(dim)),
      epsilon_(epsilon),
      weights_(std::move(weights)) {
  if (num_actions == 0) {
    throw std::invalid_argument("PolicySnapshot: num_actions must be > 0");
  }
  if (weights_.size() != num_actions * (dim + 1)) {
    throw std::invalid_argument(
        "PolicySnapshot: weights must be num_actions * (dim+1) values");
  }
  if (!(epsilon >= 0.0 && epsilon <= 1.0)) {
    throw std::invalid_argument("PolicySnapshot: epsilon must be in [0, 1]");
  }
  scorer_ = core::LinearScorer(weights_, num_actions);
  checksum_ = checksum();
  canary_ = kCanaryLive;
  g_alive.fetch_add(1, std::memory_order_relaxed);
}

// Delegates the geometry checks and the liveness accounting; once the
// delegated constructor returns, a throw below runs the destructor, so the
// alive count stays balanced.
PolicySnapshot::PolicySnapshot(std::uint64_t id, std::size_t num_actions,
                               std::size_t dim, std::vector<double> weights,
                               std::vector<double> plan)
    : PolicySnapshot(id, num_actions, dim, std::move(weights), 0.0) {
  kind_ = SnapshotKind::kPlanned;
  plan_ = std::move(plan);
  if (plan_.size() != num_actions * num_actions) {
    throw std::invalid_argument(
        "PolicySnapshot: plan must be num_actions^2 values");
  }
  for (std::size_t s = 0; s < num_actions; ++s) {
    double sum = 0;
    for (std::size_t a = 0; a < num_actions; ++a) {
      const double q = plan_[s * num_actions + a];
      if (!(q > 0.0 && q <= 1.0)) {  // !(...) also rejects NaN
        throw std::invalid_argument(
            "PolicySnapshot: plan probability outside (0, 1]");
      }
      sum += q;
    }
    if (std::abs(sum - 1.0) > 1e-9) {
      throw std::invalid_argument(
          "PolicySnapshot: plan stratum does not sum to 1");
    }
  }
  checksum_ = checksum();
}

PolicySnapshot::~PolicySnapshot() {
  canary_ = 0;
  g_alive.fetch_sub(1, std::memory_order_relaxed);
}

std::uint64_t PolicySnapshot::checksum() const {
  std::uint64_t h = kFnvOffset;
  h = fnv_mix(h, id_);
  h = fnv_mix(h, (static_cast<std::uint64_t>(num_actions_) << 32) | dim_);
  h = fnv_mix(h, std::bit_cast<std::uint64_t>(epsilon_));
  for (double w : weights_) {
    h = fnv_mix(h, std::bit_cast<std::uint64_t>(w));
  }
  if (kind_ == SnapshotKind::kPlanned) {
    // Folded only for planned snapshots so eps-greedy checksums are
    // byte-for-byte what they were before plans existed.
    h = fnv_mix(h, kPlanChecksumTag);
    for (double q : plan_) {
      h = fnv_mix(h, std::bit_cast<std::uint64_t>(q));
    }
  }
  return h;
}

bool PolicySnapshot::verify_integrity() const {
  return canary_ == kCanaryLive && checksum_ == checksum() &&
         scorer_.matches(weights_);
}

std::uint64_t PolicySnapshot::alive_count() {
  return g_alive.load(std::memory_order_relaxed);
}

core::ActionId PolicySnapshot::greedy(std::span<const double> context) const {
  return static_cast<core::ActionId>(scorer_.argmax(context));
}

// Cache-line aligned, like the scoring kernels it calls. When the lane
// kernels were added, roundbench/'s loop-narrow read decide() 5-10% and its
// feedback path ~10% slower until this function and
// RidgeRewardModel::observe were aligned; with every function and loop of
// both builds aligned (-falign-functions=64 -falign-loops=32) it read the
// same as before, so the loss was code placement, not the kernels.
__attribute__((aligned(64))) Decision PolicySnapshot::decide(
    std::span<const double> context, util::Rng& rng) const {
  const core::ActionId g = greedy(context);
  if (kind_ == SnapshotKind::kPlanned) {
    // Inverse-CDF draw from the stratum's planned row: one uniform draw,
    // propensity read straight from the plan. The row sums to 1 (validated
    // at construction), so the loop always lands; the final assignment
    // guards rounding at u ~ 1.
    const double* row = plan_.data() + static_cast<std::size_t>(g) * num_actions_;
    const double u = rng.uniform();
    double cum = 0;
    core::ActionId a = static_cast<core::ActionId>(num_actions_ - 1);
    for (std::uint32_t i = 0; i < num_actions_; ++i) {
      cum += row[i];
      if (u < cum) {
        a = static_cast<core::ActionId>(i);
        break;
      }
    }
    return Decision{a, row[a], id_};
  }
  core::ActionId a = g;
  if (epsilon_ > 0.0 && rng.uniform() < epsilon_) {
    a = static_cast<core::ActionId>(rng.uniform_index(num_actions_));
  }
  const double p =
      epsilon_ / static_cast<double>(num_actions_) + (a == g ? 1.0 - epsilon_ : 0.0);
  return Decision{a, p, id_};
}

double PolicySnapshot::probability(std::span<const double> context,
                                   core::ActionId a) const {
  if (a >= num_actions_) {
    throw std::out_of_range("PolicySnapshot::probability");
  }
  const core::ActionId g = greedy(context);
  if (kind_ == SnapshotKind::kPlanned) {
    return plan_[static_cast<std::size_t>(g) * num_actions_ + a];
  }
  return epsilon_ / static_cast<double>(num_actions_) +
         (a == g ? 1.0 - epsilon_ : 0.0);
}

std::string PolicySnapshot::serialize() const {
  const bool planned = kind_ == SnapshotKind::kPlanned;
  std::string out;
  out.reserve(kPayloadHeaderBytes + (weights_.size() + plan_.size()) * 8);
  out.append(planned ? "SNP2" : "SNAP");
  append_u64(out, id_);
  append_u32(out, num_actions_);
  append_u32(out, dim_);
  append_u64(out, std::bit_cast<std::uint64_t>(epsilon_));
  for (double w : weights_) {
    append_u64(out, std::bit_cast<std::uint64_t>(w));
  }
  for (double q : plan_) {
    append_u64(out, std::bit_cast<std::uint64_t>(q));
  }
  return out;
}

std::unique_ptr<const PolicySnapshot> PolicySnapshot::deserialize(
    std::string_view bytes) {
  if (bytes.size() < kPayloadHeaderBytes) {
    throw std::invalid_argument("PolicySnapshot: truncated payload");
  }
  const std::string_view magic = bytes.substr(0, 4);
  const bool planned = magic == "SNP2";
  if (magic != "SNAP" && !planned) {
    throw std::invalid_argument("PolicySnapshot: bad payload magic");
  }
  const std::uint64_t id = read_u64(bytes, 4);
  const std::uint32_t num_actions = read_u32(bytes, 12);
  const std::uint32_t dim = read_u32(bytes, 16);
  const double epsilon = std::bit_cast<double>(read_u64(bytes, 20));
  if (num_actions == 0) {
    throw std::invalid_argument("PolicySnapshot: payload has zero actions");
  }
  // Overflow-safe expected size: geometry fields are u32, so the products
  // fit in u64 with room to spare.
  const std::uint64_t count =
      static_cast<std::uint64_t>(num_actions) * (static_cast<std::uint64_t>(dim) + 1);
  const std::uint64_t plan_count =
      planned ? static_cast<std::uint64_t>(num_actions) * num_actions : 0;
  if (bytes.size() != kPayloadHeaderBytes + (count + plan_count) * 8) {
    throw std::invalid_argument(
        "PolicySnapshot: payload length does not match its geometry");
  }
  std::vector<double> weights;
  weights.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    weights.push_back(std::bit_cast<double>(
        read_u64(bytes, kPayloadHeaderBytes + i * 8)));
  }
  if (planned) {
    // A planned payload carries no exploration epsilon; a nonzero value
    // means the bytes were not produced by serialize().
    if (epsilon != 0.0) {
      throw std::invalid_argument(
          "PolicySnapshot: planned payload with nonzero epsilon");
    }
    std::vector<double> plan;
    plan.reserve(plan_count);
    const std::size_t base = kPayloadHeaderBytes + count * 8;
    for (std::uint64_t i = 0; i < plan_count; ++i) {
      plan.push_back(std::bit_cast<double>(read_u64(bytes, base + i * 8)));
    }
    // The planned constructor re-validates every row, so a returned
    // snapshot is always fully live.
    return std::make_unique<const PolicySnapshot>(
        id, num_actions, dim, std::move(weights), std::move(plan));
  }
  // The constructor re-validates epsilon (rejecting NaN and out-of-range)
  // and recomputes the checksum/canary, so a returned snapshot is always
  // fully live.
  return std::make_unique<const PolicySnapshot>(id, num_actions, dim,
                                                std::move(weights), epsilon);
}

std::unique_ptr<const PolicySnapshot> PolicySnapshot::from_weights(
    std::uint64_t id, const std::vector<std::vector<double>>& weights,
    double epsilon) {
  std::vector<double> flat = core::flatten_rows(weights);
  return std::make_unique<const PolicySnapshot>(
      id, weights.size(), weights.front().size() - 1, std::move(flat), epsilon);
}

std::unique_ptr<const PolicySnapshot> PolicySnapshot::from_model(
    std::uint64_t id, const core::RidgeRewardModel& model, std::size_t dim,
    double epsilon) {
  const std::span<const double> coefficients = model.coefficients();
  if (coefficients.size() != model.num_actions() * (dim + 1)) {
    throw std::invalid_argument(
        "PolicySnapshot: model dim does not match snapshot dim");
  }
  return std::make_unique<const PolicySnapshot>(
      id, model.num_actions(), dim,
      std::vector<double>(coefficients.begin(), coefficients.end()), epsilon);
}

std::unique_ptr<const PolicySnapshot> PolicySnapshot::uniform(
    std::uint64_t id, std::size_t num_actions, std::size_t dim) {
  return std::make_unique<const PolicySnapshot>(
      id, num_actions, dim, std::vector<double>(num_actions * (dim + 1), 0.0),
      1.0);
}

std::unique_ptr<const PolicySnapshot> PolicySnapshot::planned(
    std::uint64_t id, std::size_t num_actions, std::size_t dim,
    std::vector<double> reference_weights, std::vector<double> plan) {
  return std::make_unique<const PolicySnapshot>(
      id, num_actions, dim, std::move(reference_weights), std::move(plan));
}

}  // namespace harvest::serve

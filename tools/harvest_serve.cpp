// Closed-loop serving driver: the paper's harvest loop running online.
//
//   serve (DecisionService, eps-greedy over the current PolicySnapshot)
//     -> log  (per-decider SPSC rings -> store::DatasetWriter, HLOG)
//     -> scavenge (logs::scavenge over the round's dataset)
//     -> retrain (SnapshotTrainer: importance-weighted ridge)
//     -> publish (atomic snapshot swap; deciders never stall)
//     -> serve the next round ...
//
// Round 0 serves the uniform snapshot (the pre-optimization randomized
// heuristic whose randomness the loop harvests); every later round serves
// the snapshot retrained from the previous round's own logs. The simulated
// environment draws contexts uniformly and pays a per-action linear reward,
// so the mean observed reward should climb across rounds — `--check-
// improvement` turns that into an exit code, which is how ci.sh smoke-tests
// the loop end to end.
//
// Flags:
//   --rounds N             serving rounds after round 0        (default 3)
//   --decisions N          decisions per round, all threads    (default 20000)
//   --threads N            decider threads                     (default 2)
//   --actions K --dim D    action count / context arity        (3 / 4)
//   --epsilon E            exploration mass of retrained snaps (0.2)
//   --seed S               root seed                           (42)
//   --workdir DIR          where round datasets land           (serve_loop)
//   --snapshot-dir DIR     persist every published snapshot (crash-safe
//                          temp+rename; snapshot-<id>.hsnap + CURRENT)
//   --resume               warm-start from --snapshot-dir's CURRENT instead
//                          of uniform round 0; corrupt files are
//                          quarantined with a fallback, never fatal
//   --check-improvement    exit 1 unless final mean reward > round 0's
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "closed_loop.h"
#include "logs/scavenger.h"
#include "serve/persist.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/trainer.h"
#include "store/dataset.h"
#include "util/flags.h"

using namespace harvest;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto rounds = static_cast<std::size_t>(flags.get_int("rounds", 3));
  const auto decisions =
      static_cast<std::size_t>(flags.get_int("decisions", 20000));
  const auto threads = static_cast<std::size_t>(flags.get_int("threads", 2));
  const auto num_actions =
      static_cast<std::size_t>(flags.get_int("actions", 3));
  const auto dim = static_cast<std::size_t>(flags.get_int("dim", 4));
  const double epsilon = flags.get_double("epsilon", 0.2);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const std::string workdir = flags.get_string("workdir", "serve_loop");
  const std::string snapshot_dir = flags.get_string("snapshot-dir", "");
  const bool resume = flags.get_bool("resume", false);
  const bool check_improvement = flags.get_bool("check-improvement", false);

  if (threads == 0 || decisions == 0 || num_actions == 0 ||
      dim > serve::kMaxContextDim) {
    std::fprintf(stderr, "harvest_serve: bad geometry\n");
    return 2;
  }
  if (resume && snapshot_dir.empty()) {
    std::fprintf(stderr, "harvest_serve: --resume requires --snapshot-dir\n");
    return 2;
  }

  const tools::Environment env =
      tools::Environment::make(num_actions, dim, seed);

  const std::size_t per_thread = (decisions + threads - 1) / threads;
  std::size_t ring = 2;
  while (ring < per_thread + 1) ring <<= 1;

  std::unique_ptr<serve::SnapshotStore> store;
  if (!snapshot_dir.empty()) {
    store = std::make_unique<serve::SnapshotStore>(
        serve::SnapshotStore::Options{.dir = snapshot_dir});
  }

  const serve::DecisionService::Options service_options{
      .num_actions = num_actions,
      .dim = dim,
      .log_capacity = ring,
      .seed = seed};
  std::unique_ptr<serve::DecisionService> service_owner;
  if (resume) {
    // Warm restart: a killed-and-restarted loop continues from the last
    // published policy instead of re-paying uniform exploration. Damaged
    // files were quarantined by the store (never fatal); an empty or fully
    // corrupt store already printed its fallback warning.
    serve::ResumeResult resumed = serve::resume_service(service_options,
                                                        *store);
    if (resumed.resumed) {
      std::printf("resumed from snapshot id=%llu%s\n",
                  static_cast<unsigned long long>(resumed.snapshot_id),
                  resumed.quarantined > 0 ? " (after quarantine fallback)"
                                          : "");
    }
    service_owner = std::move(resumed.service);
  } else {
    service_owner = std::make_unique<serve::DecisionService>(
        service_options, serve::PolicySnapshot::uniform(1, num_actions, dim));
  }
  serve::DecisionService& service = *service_owner;
  std::vector<serve::Decider*> deciders;
  for (std::size_t t = 0; t < threads; ++t) {
    deciders.push_back(&service.add_decider());
  }
  serve::SnapshotTrainer trainer(
      service, {.epsilon = epsilon, .min_rows = 32, .reward_range = {0, 1}});

  const store::Schema schema = tools::make_schema(num_actions, dim);
  const logs::ScavengeSpec spec = logs::spec_from_schema(schema);
  std::filesystem::create_directories(workdir);

  std::vector<double> round_means;
  for (std::size_t round = 0; round <= rounds; ++round) {
    // ---- serve one round, log it to HLOG ----------------------------------
    const double mean = tools::serve_round(deciders, env, dim, per_thread,
                                           seed ^ (round + 1));
    round_means.push_back(mean);
    // A resumed run re-serves round numbers a killed predecessor may have
    // half-written; log_round starts each round's dataset from a clean slate.
    const std::string round_dir =
        workdir + "/round-" + std::to_string(round);
    const serve::ServeDrainStats stats =
        tools::log_round(service, round_dir, schema);
    if (stats.dropped_total != 0) {
      std::fprintf(stderr, "harvest_serve: %llu records dropped (ring too "
                           "small for the round)\n",
                   static_cast<unsigned long long>(stats.dropped_total));
      return 1;
    }

    std::printf("round %zu: snapshot=%llu mean_reward=%.4f logged=%zu\n",
                round, static_cast<unsigned long long>(service.current_id()),
                mean, stats.drained);

    if (round == rounds) break;

    // ---- scavenge the round's own logs and retrain ------------------------
    const store::Dataset dataset = store::Dataset::open(round_dir);
    const logs::ScavengeResult harvested = logs::scavenge(dataset, spec);
    if (harvested.data.empty()) {
      std::fprintf(stderr, "harvest_serve: scavenge returned no tuples\n");
      return 1;
    }
    // The service mints the snapshot id under its publish lock (race-free
    // even with concurrent publishers); persist the published bytes so a
    // kill at any point leaves a resumable store.
    std::string snapshot_bytes;
    const std::uint64_t published_id =
        service.publish_with([&](std::uint64_t id) {
          auto snapshot = trainer.train_on(harvested.data, id);
          if (store != nullptr) snapshot_bytes = snapshot->serialize();
          return snapshot;
        });
    if (store != nullptr) store->save_bytes(published_id, snapshot_bytes);
    service.try_reclaim();
  }

  service.reclaim_all();
  std::printf("rounds=%zu first_mean=%.4f last_mean=%.4f swaps=%llu "
              "reclaimed=%llu\n",
              rounds, round_means.front(), round_means.back(),
              static_cast<unsigned long long>(service.swaps()),
              static_cast<unsigned long long>(service.reclaimed()));

  if (check_improvement && round_means.back() <= round_means.front()) {
    std::fprintf(stderr,
                 "harvest_serve: no improvement (%.4f -> %.4f)\n",
                 round_means.front(), round_means.back());
    return 1;
  }
  return 0;
}

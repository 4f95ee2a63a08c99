// Umbrella header: the full public API of the harvesting library.
//
//   #include "harvest/harvest.h"
//
// pulls in the contextual-bandit core (policies, estimators, trainers,
// bounds, propensity inference), the log-scavenging pipeline, and the three
// scenario substrates (load balancing, caching, machine health).
#pragma once

// Core CB framework (§2, §4).
#include "core/bounds.h"
#include "core/dataset.h"
#include "core/estimators/direct.h"
#include "core/estimators/ips.h"
#include "core/estimators/sequence.h"
#include "core/estimators/switch.h"
#include "core/trajectory.h"
#include "core/policies/basic.h"
#include "core/policies/greedy.h"
#include "core/policy_class.h"
#include "core/propensity.h"
#include "core/safe_improvement.h"
#include "core/reward_model.h"
#include "core/train/linucb.h"
#include "core/train/trainer.h"

// Log scavenging (§3, step 1).
#include "logs/log_store.h"
#include "logs/scavenger.h"

// Deterministic fault injection for chaos-testing the ingest path.
#include "fault/fault_spec.h"
#include "fault/injector.h"

// HLOG binary columnar store (compacted corpora, mmap scans, block CRCs).
#include "store/store.h"

// End-to-end methodology (§3, steps 1-3).
#include "harvest/loop.h"
#include "harvest/pipeline.h"

// Deterministic parallel execution (thread pool, sharded loops/RNG).
#include "par/par.h"

// Observability: labeled metrics, span tracing, OPE-health diagnostics.
#include "obs/obs.h"

// Formatting helpers used by examples and benches.
#include "util/string_util.h"
#include "util/table.h"

// Scenario substrates (Table 1).
#include "cache/cache_sim.h"
#include "cache/evictors.h"
#include "cache/slot_policy.h"
#include "health/fleet.h"
#include "health/scavenge.h"
#include "lb/frontdoor.h"
#include "lb/lb_sim.h"
#include "lb/routers.h"

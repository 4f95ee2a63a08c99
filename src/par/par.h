// Umbrella header for the deterministic parallel execution subsystem.
//
// Threading model in one paragraph: a fixed-size one-queue ThreadPool
// executes statically-planned shards (ShardPlan) whose layout is independent
// of the thread count; per-shard randomness comes from ShardedRng streams
// keyed by shard index; per-shard accumulators merge in shard order. The
// result: every computation built on par:: is bit-identical from
// --threads 1 to --threads N. See README "Threading model & determinism".
#pragma once

#include "par/parallel.h"
#include "par/sharded_rng.h"
#include "par/thread_pool.h"

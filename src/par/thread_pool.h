// Fixed-size thread pool — the execution substrate for the deterministic
// parallel layer (par/parallel.h). One FIFO queue under one mutex and one
// condition variable; std::thread only, no external dependencies.
//
// Design notes:
//  - parallel_for is the pool's submitter, and it balances load itself: it
//    submits identical helper tasks that claim shards from one atomic
//    cursor. One shared queue is all the scheduling the pool needs.
//  - The pool NEVER influences results: everything scheduled through
//    par::parallel_for / parallel_reduce writes to pre-assigned shard slots
//    and merges in shard order, so outputs are bit-identical no matter how
//    many threads execute the shards (see parallel.h).
//  - ~ThreadPool drains: a worker exits only once the queue is empty, so
//    every task submitted before destruction runs to completion.
//
// Exception contract: a submitted task must not throw (an escaping
// exception terminates, as with std::thread). parallel_for captures the
// first exception a shard threw and rethrows it on the calling thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace harvest::par {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Appends a task to the queue and wakes one worker. Safe to call from
  /// any thread, workers included.
  void submit(std::function<void()> task);

  /// True when the calling thread is a worker of *any* ThreadPool. Parallel
  /// constructs use this to run nested parallelism inline instead of
  /// re-entering the pool (prevents deadlock and queue blow-up).
  static bool on_worker_thread();

  /// Tasks submitted but not yet started (for the par_queue_depth gauge).
  std::size_t pending() const;

 private:
  void worker_loop(std::size_t index);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  bool stop_ = false;                        // guarded by mu_

  std::vector<std::thread> workers_;  // last: the workers use the above
};

// ---------------------------------------------------------------------------
// Process-wide default pool.
//
// `--threads N` (benches/tools) maps to set_default_threads(N): N of total
// concurrency including the submitting thread, so the pool holds N-1
// workers. N <= 1 (or never calling this) means no pool: every par::
// construct runs sequentially on the calling thread. Results are identical
// either way — only wall-clock changes.
// ---------------------------------------------------------------------------

/// (Re)configures the process-wide pool. Not safe to call while parallel
/// work is in flight; call once at startup (flag parsing) or between runs.
void set_default_threads(std::size_t total_threads);

/// The configured pool, or nullptr when running sequentially.
ThreadPool* default_pool();

}  // namespace harvest::par

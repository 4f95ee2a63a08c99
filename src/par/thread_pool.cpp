#include "par/thread_pool.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/recorder.h"

namespace harvest::par {

namespace {
// Worker identity for on_worker_thread(). A thread belongs to at most one
// pool for its lifetime, so a plain thread_local is enough.
thread_local bool tls_on_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    throw std::invalid_argument("ThreadPool: num_threads must be >= 1");
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() { return tls_on_worker; }

std::size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_on_worker = true;
  obs::Recorder& rec = obs::Recorder::global();
  rec.set_thread_name("pool.worker-" + std::to_string(index));
  static const std::uint32_t kTaskName = rec.intern("par.task");
  static const std::uint32_t kParkName = rec.intern("par.park");
  for (;;) {
    std::function<void()> task;
    bool have_task = false;
    std::uint64_t park_start = 0;
    bool parked = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (queue_.empty() && !stop_) {
        park_start = rec.now_ns();
        parked = true;
        cv_.wait(lock, [this] { return !queue_.empty() || stop_; });
      }
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
        have_task = true;
      }
    }
    if (parked && rec.enabled()) {
      rec.emit_span(kParkName, park_start, rec.now_ns() - park_start);
    }
    if (!have_task) break;  // stopping and drained: safe to exit
    obs::RecSpan span(rec, kTaskName);
    task();
  }
}

// ---------------------------------------------------------------------------
// Default pool
// ---------------------------------------------------------------------------

namespace {
std::unique_ptr<ThreadPool>& default_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
}  // namespace

void set_default_threads(std::size_t total_threads) {
  auto& slot = default_pool_slot();
  slot.reset();  // join the old pool before replacing it
  if (total_threads > 1) {
    slot = std::make_unique<ThreadPool>(total_threads - 1);
  }
}

ThreadPool* default_pool() { return default_pool_slot().get(); }

}  // namespace harvest::par

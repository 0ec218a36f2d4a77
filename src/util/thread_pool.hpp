// Work-stealing thread pool for embarrassingly parallel sweeps.
//
// The explorer, the property-test grid and the benchmark sweeps all evaluate
// many independent (configuration → measurement) points; this pool runs them
// concurrently while keeping results deterministic: `parallel_for_index`
// writes into caller-indexed slots and, if several tasks throw, rethrows the
// exception of the *lowest* index — exactly the failure a serial loop would
// have reported first.
//
// Design: one deque per worker. A worker pops its own queue LIFO (cache-warm
// tail) and steals FIFO from the head of a sibling's queue when empty.
// Submissions from outside the pool are distributed round-robin; submissions
// from inside a worker go to that worker's own queue. Workers are
// std::jthread, so destruction drains all queued work, requests stop and
// joins.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mcrtl {

class ThreadPool {
 public:
  /// Spawn `num_threads` workers. 0 workers = a valid pool whose
  /// parallel_for_* helpers run serially inline (the `jobs = 1` fallback
  /// spelled without any thread machinery).
  explicit ThreadPool(unsigned num_threads = default_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue one task. Tasks must not submit to a pool being destroyed.
  void submit(std::function<void()> task);

  /// hardware_concurrency, never 0.
  static unsigned default_concurrency();

  /// CLI/config convention: jobs <= 0 means "auto" (default_concurrency);
  /// explicit requests are clamped to default_concurrency — the pool's
  /// workloads are CPU-bound, so extra workers beyond the cores only add
  /// context-switch overhead.
  static unsigned resolve_jobs(int jobs);

  /// Worker index of the calling thread (any pool), or -1 off-pool. Lets
  /// observers (obs::Span) attribute work to per-worker lanes without a
  /// pool reference.
  static int current_worker_index();

  /// Run fn(0) .. fn(n-1) across the pool and block until all complete.
  /// Order of execution is unspecified; determinism comes from indexing.
  /// If any invocation throws, the exception thrown by the lowest index is
  /// rethrown here after every task has finished (no task is abandoned
  /// mid-flight, so partial results are never silently dropped).
  template <typename Fn>
  void parallel_for_index(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    // Serial fallbacks: no workers, a single item, or a nested call from
    // inside one of this pool's own tasks (blocking a worker on work only
    // it could run would deadlock a size-1 pool).
    if (workers_.empty() || n == 1 || on_worker_thread()) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    struct Join {
      std::atomic<std::size_t> remaining;
      std::mutex m;
      std::condition_variable cv;
      std::exception_ptr error;
      std::size_t error_index;
    };
    auto join = std::make_shared<Join>();
    join->remaining.store(n, std::memory_order_relaxed);
    join->error_index = n;
    for (std::size_t i = 0; i < n; ++i) {
      // fn is captured by reference: the caller blocks below until every
      // task has run, so the reference outlives all uses.
      submit([join, &fn, i] {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lk(join->m);
          if (i < join->error_index) {
            join->error_index = i;
            join->error = std::current_exception();
          }
        }
        if (join->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard<std::mutex> lk(join->m);
          join->cv.notify_all();
        }
      });
    }
    std::unique_lock<std::mutex> lk(join->m);
    join->cv.wait(lk, [&] {
      return join->remaining.load(std::memory_order_acquire) == 0;
    });
    if (join->error) std::rethrow_exception(join->error);
  }

  /// parallel_for_index over a random-access container: fn(items[i]).
  template <typename Container, typename Fn>
  void parallel_for_each(Container&& items, Fn&& fn) {
    auto first = std::begin(items);
    const auto n =
        static_cast<std::size_t>(std::distance(first, std::end(items)));
    parallel_for_index(n, [&](std::size_t i) { fn(first[i]); });
  }

 private:
  struct Worker {
    std::mutex m;
    std::deque<std::function<void()>> queue;
  };

  void worker_loop(unsigned self, std::stop_token st);
  bool try_pop(unsigned self, std::function<void()>& task);
  bool try_steal(unsigned self, std::function<void()>& task);
  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::jthread> workers_;
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> next_queue_{0};
  std::mutex wake_m_;
  std::condition_variable wake_cv_;
};

}  // namespace mcrtl

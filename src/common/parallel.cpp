#include "src/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

namespace tml {

namespace {

/// Set while the current thread executes a pool task: re-entrant run()
/// calls degrade to inline execution instead of deadlocking on the single
/// job slot.
thread_local bool t_in_pool_task = false;

struct InTaskGuard {
  InTaskGuard() { t_in_pool_task = true; }
  ~InTaskGuard() { t_in_pool_task = false; }
};

std::size_t parse_env_threads() {
  const char* value = std::getenv("TML_THREADS");
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(value, &end, 10);
  if (end == value || *end != '\0' || parsed == 0 || parsed > 1024) return 0;
  return static_cast<std::size_t>(parsed);
}

std::atomic<std::size_t> g_default_override{0};

}  // namespace

std::size_t hardware_thread_count() {
  // Read once: glibc answers hardware_concurrency() by reading
  // /sys/devices/system/cpu/online, three syscalls that every threads = 0
  // sweep would otherwise pay.
  static const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return hw;
}

std::size_t default_thread_count() {
  const std::size_t forced = g_default_override.load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  static const std::size_t env = parse_env_threads();
  return env != 0 ? env : hardware_thread_count();
}

void set_default_thread_count(std::size_t threads) {
  g_default_override.store(threads, std::memory_order_relaxed);
}

std::size_t resolve_thread_count(std::size_t requested) {
  return requested != 0 ? requested : default_thread_count();
}

struct ThreadPool::Impl {
  std::vector<std::thread> threads;
  std::mutex mutex;
  std::condition_variable work_cv;  // workers wait for tickets
  std::condition_variable done_cv;  // run() waits for active workers
  bool stop = false;

  // Current job (valid while tickets > 0 or active > 0).
  const std::function<void(std::size_t)>* job = nullptr;
  std::size_t job_tasks = 0;
  std::size_t tickets = 0;  // worker participation slots left
  std::size_t active = 0;   // workers currently inside the job
  std::atomic<std::size_t> next_task{0};
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors;

  // Detached tasks (ThreadPool::submit). Drained by the same workers when
  // no batch-job tickets are outstanding; dropped on destruction.
  std::deque<std::function<void()>> submitted;

  /// Claims tasks from the shared counter until exhausted. Exceptions are
  /// recorded (with their task index) instead of unwinding across threads.
  void claim_tasks(const std::function<void(std::size_t)>& fn,
                   std::size_t num_tasks) {
    InTaskGuard guard;
    for (;;) {
      const std::size_t i = next_task.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_tasks) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        errors.emplace_back(i, std::current_exception());
      }
    }
  }

  void worker_loop() {
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      std::size_t num_tasks = 0;
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock,
                     [&] { return stop || tickets > 0 || !submitted.empty(); });
        if (stop) return;
        if (tickets > 0) {
          // Batch jobs first: run() blocks its caller, submitted tasks are
          // detached and can tolerate the extra queueing delay.
          --tickets;
          ++active;
          fn = job;
          num_tasks = job_tasks;
        } else {
          task = std::move(submitted.front());
          submitted.pop_front();
        }
      }
      if (fn != nullptr) {
        claim_tasks(*fn, num_tasks);
        const std::lock_guard<std::mutex> lock(mutex);
        if (--active == 0) done_cv.notify_all();
      } else {
        const InTaskGuard guard;
        try {
          task();
        } catch (...) {
          // submit() contract: tasks own their error handling.
        }
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t workers) : impl_(new Impl) {
  impl_->threads.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    impl_->threads.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->threads) t.join();
}

std::size_t ThreadPool::workers() const { return impl_->threads.size(); }

void ThreadPool::run(std::size_t num_tasks, std::size_t parallelism,
                     const std::function<void(std::size_t)>& fn) {
  if (num_tasks == 0) return;
  if (t_in_pool_task || impl_->threads.empty() || parallelism <= 1 ||
      num_tasks == 1) {
    // Inline in index order; exceptions propagate directly.
    for (std::size_t i = 0; i < num_tasks; ++i) fn(i);
    return;
  }

  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->job = &fn;
    impl_->job_tasks = num_tasks;
    impl_->next_task.store(0, std::memory_order_relaxed);
    impl_->errors.clear();
    impl_->tickets =
        std::min({parallelism - 1, impl_->threads.size(), num_tasks - 1});
  }
  impl_->work_cv.notify_all();

  impl_->claim_tasks(fn, num_tasks);

  std::exception_ptr first_error;
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->tickets = 0;  // no further joiners once the counter is drained
    impl_->done_cv.wait(lock, [&] { return impl_->active == 0; });
    impl_->job = nullptr;
    if (!impl_->errors.empty()) {
      auto smallest = impl_->errors.begin();
      for (auto it = impl_->errors.begin(); it != impl_->errors.end(); ++it) {
        if (it->first < smallest->first) smallest = it;
      }
      first_error = smallest->second;
      impl_->errors.clear();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::submit(std::function<void()> task) {
  if (!task) return;
  if (impl_->threads.empty()) {
    // Zero-worker pool: run inline, under the same re-entrancy guard a
    // worker would provide.
    const InTaskGuard guard;
    try {
      task();
    } catch (...) {
    }
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->submitted.push_back(std::move(task));
  }
  impl_->work_cv.notify_one();
}

std::size_t ThreadPool::pending() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->submitted.size();
}

ThreadPool& ThreadPool::global() {
  // Sized generously relative to the machine (floor of 8) so explicit
  // `threads = N` requests exercise real worker threads even on small
  // hosts; idle workers sleep on the condition variable.
  static ThreadPool pool(
      std::min<std::size_t>(64, std::max({hardware_thread_count(),
                                          default_thread_count(),
                                          std::size_t{8}})) -
      1);
  return pool;
}

namespace detail {

void run_chunks(std::size_t num_chunks, std::size_t grain, std::size_t threads,
                const std::function<void(std::size_t)>& chunk_fn) {
  if (num_chunks == 0) return;
  const std::size_t resolved = resolve_thread_count(threads);
  const std::size_t min_chunks =
      grain == kDefaultGrain ? kMinParallelChunks : 2;
  if (resolved <= 1 || num_chunks < min_chunks) {
    for (std::size_t c = 0; c < num_chunks; ++c) chunk_fn(c);
    return;
  }
  ThreadPool::global().run(num_chunks, resolved, chunk_fn);
}

}  // namespace detail

}  // namespace tml

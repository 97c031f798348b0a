#include "dist/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace adj::dist {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(size_t(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !submitted_.empty(); });
    if (!submitted_.empty()) {
      std::function<void()> task = std::move(submitted_.front());
      submitted_.pop_front();
      ++submitted_active_;
      lock.unlock();
      task();
      lock.lock();
      if (--submitted_active_ == 0 && submitted_.empty()) {
        done_cv_.notify_all();
      }
      continue;
    }
    // Exit only once the submitted queue has drained: a submitted task
    // is never dropped, even when stop raced with Submit.
    if (stop_) return;
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    submitted_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] {
    return submitted_.empty() && submitted_active_ == 0;
  });
}

namespace {

/// One RunTasks call, shared by its caller and the helper jobs it
/// submitted. A helper may dequeue its job after the caller has
/// returned and `tasks` is gone: it then finds every task claimed and
/// must never read `tasks`, which is why the count lives here.
struct Batch {
  const std::vector<std::function<void()>>* tasks = nullptr;
  size_t size = 0;
  std::atomic<size_t> next{0};  // next unclaimed task index
  std::mutex mu;
  std::condition_variable done_cv;
  size_t done = 0;  // finished tasks; guarded by mu

  /// Claims and runs tasks until none is left unclaimed. A claimed
  /// index < size proves the caller is still waiting, so `tasks` is
  /// alive while it runs.
  void Work() {
    for (size_t i; (i = next.fetch_add(1)) < size;) {
      (*tasks)[i]();
      std::lock_guard<std::mutex> lock(mu);
      if (++done == size) done_cv.notify_all();
    }
  }
};

/// The process-wide helper pool: hardware_concurrency() − 1 threads
/// (the caller of RunTasks is the last core), or none on a single-core
/// host. Never destroyed, so a helper still draining a stale job at
/// exit never touches a dead pool.
ThreadPool* Helpers() {
  static ThreadPool* const pool = []() -> ThreadPool* {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? new ThreadPool(int(hw) - 1) : nullptr;
  }();
  return pool;
}

}  // namespace

void RunTasks(int threads, const std::vector<std::function<void()>>& tasks) {
  ThreadPool* helpers = threads == 1 ? nullptr : Helpers();
  size_t width = helpers == nullptr ? 1 : size_t(helpers->num_threads()) + 1;
  if (threads > 1) width = std::min(width, size_t(threads));
  width = std::min(width, tasks.size());
  if (width <= 1) {
    for (const std::function<void()>& task : tasks) task();
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->tasks = &tasks;
  batch->size = tasks.size();
  for (size_t h = 1; h < width; ++h) {
    helpers->Submit([batch] { batch->Work(); });
  }
  batch->Work();
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->done_cv.wait(lock, [&] { return batch->done == batch->size; });
}

}  // namespace adj::dist

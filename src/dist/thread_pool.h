#ifndef ADJ_DIST_THREAD_POOL_H_
#define ADJ_DIST_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace adj::dist {

/// Fixed-size streaming worker pool: Submit() enqueues one task and
/// returns immediately; some worker runs it as soon as it is free.
/// serve::Server admits each accepted request as one submitted task,
/// and RunTasks' process-wide helper pool is one of these. WaitIdle()
/// blocks until all submitted tasks have drained, and the destructor
/// drains any still-pending submitted tasks before joining (a
/// submitted task is never dropped).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return int(workers_.size()); }

  /// Enqueues `task` to run exactly once on some worker and returns
  /// immediately. There is no internal bound on the submitted queue —
  /// callers that need admission control bound it themselves
  /// (serve::AdmissionQueue). Must not race with the pool's
  /// destruction.
  void Submit(std::function<void()> task);

  /// Blocks until the submitted queue is empty and no submitted task
  /// is in flight. Tasks submitted concurrently with the wait may or
  /// may not be covered by it.
  void WaitIdle();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<std::function<void()>> submitted_;  // guarded by mu_
  size_t submitted_active_ = 0;  // submitted tasks currently executing
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs every task of `tasks` exactly once and blocks until all have
/// finished — a fork-join over one process-wide helper pool.
///
/// - The helper pool is created on first use with
///   hardware_concurrency() − 1 threads and lives for the rest of the
///   process, so a batch never pays for thread creation.
/// - The calling thread claims tasks too. Concurrent batches from many
///   threads and batches nested inside a task therefore always make
///   progress; no batch waits for a helper to become free.
/// - At most `threads` threads (the caller included) work on the
///   batch, clamped to the helper pool's width + 1 and to the task
///   count. threads <= 0 asks for every core. threads == 1 runs the
///   tasks inline, sequentially, in submission order.
void RunTasks(int threads, const std::vector<std::function<void()>>& tasks);

}  // namespace adj::dist

#endif  // ADJ_DIST_THREAD_POOL_H_

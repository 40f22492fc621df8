// Fixed-size thread pool and deterministic fan-out/join primitives for
// the batch optimization engine (docs/RUNTIME.md).
//
// Design constraints, in order:
//   1. Determinism.  Nothing here hands out completion order: callers
//      fan out thunks that write results into index-addressed slots and
//      join at a barrier, so outputs are identical at any thread count.
//      There is no work stealing between groups — a task runs either on
//      a pool worker or on the thread waiting for its group, never
//      migrates, and sees a happens-before edge to the joiner.
//   2. Deadlock-free nesting.  TaskGroup::Wait *helps*: the waiting
//      thread drains its own group's pending tasks instead of blocking,
//      so a pool worker may itself fan out a nested group onto the same
//      pool and always makes progress even when every worker is busy.
//      No production caller nests today.  The helping is also why the
//      batch engine runs up to jobs+1 nets at once: the waiting caller
//      runs tasks next to the pool's `jobs` workers (ROADMAP "Knobs that
//      mean what they say").
//   3. Exception capture.  The first exception a group task throws is
//      rethrown from Wait(); Async() delivers exceptions through its
//      std::future.  A throwing task never takes down a worker thread.
#ifndef MSN_RUNTIME_THREAD_POOL_H
#define MSN_RUNTIME_THREAD_POOL_H

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace msn::runtime {

/// Fixed set of worker threads draining a FIFO queue of thunks.
/// Destruction waits for already-running thunks and discards queued ones
/// (safe for TaskGroup hints, see below; don't Submit fire-and-forget
/// work you cannot afford to lose right before destruction).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t NumThreads() const { return threads_.size(); }

  /// Enqueues a thunk for some worker.  Exceptions escaping `fn` are
  /// swallowed (workers must survive); use Async or TaskGroup for work
  /// whose failure matters.
  void Submit(std::function<void()> fn);

  /// Packaged-task convenience: runs `fn` on the pool, exceptions and
  /// result delivered through the returned future.
  template <typename Fn>
  auto Async(Fn fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    Submit([task] { (*task)(); });
    return future;
  }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// One fan-out/join scope: Run() registers tasks, Wait() returns once
/// all of them completed, rethrowing the first captured exception.
/// Pool workers only *help* with a group (each Run posts one drain hint
/// to the pool); the waiting thread drains whatever the pool has not
/// picked up, so Wait() always terminates — even on a saturated pool or
/// with a null pool (then Wait runs everything inline, in Run order).
/// The pool must outlive the group.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  /// Waits for stragglers (exceptions are dropped here; call Wait()
  /// yourself to observe them).
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Run(std::function<void()> fn);

  /// Deadline-aware variant for request/response engines (the service
  /// layer's per-request deadlines): if the task has not *started* by
  /// `deadline`, `on_expired` runs in its place — on whichever thread
  /// would have run `fn`, still inside the group (Wait() covers it).
  /// The deadline bounds admission only: a task that starts in time is
  /// never aborted by this layer, so expiry is deterministic for a
  /// given dequeue time.  Mid-flight interruption is the cooperative
  /// cancellation layer's job (src/common/cancel.h — the service
  /// threads the same deadline into MsriOptions::cancel, so a started
  /// DP still abandons itself shortly after expiry).
  void Run(std::function<void()> fn,
           std::chrono::steady_clock::time_point deadline,
           std::function<void()> on_expired);

  void Wait();

 private:
  /// Shared with pool-submitted drain hints, which may fire after the
  /// group object is gone (the caller drained the queue first).
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> pending;
    std::size_t running = 0;
    std::exception_ptr first_error;
  };
  static void DrainOne(const std::shared_ptr<State>& state);

  ThreadPool* pool_;
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace msn::runtime

#endif  // MSN_RUNTIME_THREAD_POOL_H

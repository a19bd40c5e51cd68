// Morsel-driven parallel runtime (the Runtime component of Figure 1).
//
// One process-wide TaskScheduler owns a set of persistent worker threads;
// both inter-query parallelism (the harness driver submits one task per
// query stream) and intra-query parallelism (operators split their input
// into small "morsels" dispatched through ParallelFor) share this pool, so
// thread creation never happens on an operator hot path and the two axes of
// parallelism arbitrate over the same cores.
//
// Scheduling structure, in the style of HyPer's morsel-driven execution:
//   * per-worker deques — a task is pushed onto one worker's deque
//     (round-robin for external submissions); the owning worker pops LIFO
//     for locality, idle workers steal FIFO from the others;
//   * ParallelFor — splits [begin, end) into morsel_size chunks claimed
//     from a shared atomic cursor, so fast workers naturally take more
//     morsels (no static partitioning, no remainder skew);
//   * TaskGroup — fork/join: Wait() first executes the group's not yet
//     started tasks inline (the caller participates instead of blocking),
//     then sleeps until in-flight tasks finish. This also makes nested
//     ParallelFor deadlock-free: a waiter can always drain its own work.
//
// Hot-path scratch lives with its user, not here: the BFS behind
// multi-hop Expand keeps a thread_local visited bitmap and queue
// (executor.cc), cleared by the call that set it.
#ifndef GES_RUNTIME_SCHEDULER_H_
#define GES_RUNTIME_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/query_context.h"

namespace ges {

// std::thread::hardware_concurrency() clamped to >= 1 (it returns 0 when
// the core count cannot be determined).
unsigned HardwareThreads();

namespace runtime_internal {

// Shared fork/join state of one TaskGroup.
struct GroupState {
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = 0;              // submitted but not yet finished
  std::exception_ptr error;        // first exception thrown by a task
};

}  // namespace runtime_internal

class TaskScheduler {
 public:
  // `num_workers` <= 0 means HardwareThreads(). The pool can only grow
  // (EnsureWorkers); workers persist until Shutdown()/destruction.
  explicit TaskScheduler(int num_workers = 0);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  // The process-wide scheduler (created on first use, never destroyed).
  static TaskScheduler& Global();

  int num_workers() const {
    return num_workers_.load(std::memory_order_acquire);
  }

  // Grows the pool to at least `n` workers (used by the driver when a
  // configuration asks for more query streams than cores — deliberate
  // oversubscription, e.g. the Figure 13 sweep past the core count).
  void EnsureWorkers(int n);

  // Stops the pool: queued tasks are drained (executed), workers join.
  // Tasks submitted after shutdown run inline on the submitting thread, so
  // TaskGroup::Wait never hangs. Idempotent.
  void Shutdown();

  // Fire-and-forget background task, no group and no join: lands at the
  // back of one worker's deque and is stolen FIFO behind queued morsels,
  // so maintenance work (background compaction, DESIGN.md §16) yields to
  // query work already in the pool. Runs inline when the pool is stopped.
  void Submit(std::function<void()> fn);

  // Morsel-driven parallel loop over [begin, end): the range is claimed in
  // `morsel_size` chunks from a shared cursor and `body(chunk_begin,
  // chunk_end)` is invoked once per chunk, concurrently on up to
  // `max_workers` threads (the caller participates and counts toward the
  // bound; <= 1 runs sequentially). Chunk boundaries are identical for
  // every max_workers value, so callers that accumulate per-morsel state
  // indexed by chunk id get thread-count-independent (deterministic)
  // results. The first exception thrown by any morsel is rethrown here.
  //
  // `context`, when non-null, makes the loop cancellation-aware: every
  // participant polls it before claiming the next morsel and throws
  // QueryInterrupted on cancel/deadline, so a parallel region winds down
  // within one morsel per worker. In-flight morsels are never interrupted
  // mid-body (bodies add finer-grained checks where a morsel is heavy).
  void ParallelFor(size_t begin, size_t end, size_t morsel_size,
                   int max_workers,
                   const std::function<void(size_t, size_t)>& body,
                   const QueryContext* context = nullptr);

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    std::shared_ptr<runtime_internal::GroupState> group;  // may be null
  };

  // One worker: a mutex-guarded deque plus the thread draining it.
  struct Worker {
    std::mutex mu;
    std::deque<Task> queue;
    std::thread thread;
  };

  // Enqueues onto some worker's deque (round-robin); runs inline if the
  // pool is stopped.
  void Enqueue(Task task);
  // Pops a task: own deque from the back, else steals from another
  // worker's front. `self` is the calling worker index (-1 if external).
  bool TryPop(int self, Task* out);
  // Removes one queued (not started) task belonging to `group`.
  bool TryPopGroupTask(const runtime_internal::GroupState* group, Task* out);
  void WorkerLoop(int id);

  // Executes a task and settles its group accounting.
  static void Execute(Task& task);

  static constexpr int kMaxWorkers = 512;

  std::vector<std::unique_ptr<Worker>> slots_;  // fixed size kMaxWorkers
  std::atomic<int> num_workers_{0};
  std::atomic<uint64_t> next_victim_{0};  // round-robin enqueue cursor
  std::atomic<size_t> queued_{0};
  std::atomic<bool> stop_{false};
  std::mutex idle_mu_;              // guards sleeping and pool growth
  std::condition_variable idle_cv_;
};

// Fork/join task group over a TaskScheduler. Not thread-safe: Run/Wait are
// intended to be called from the owning thread; Wait() rethrows the first
// exception raised by any task.
class TaskGroup {
 public:
  explicit TaskGroup(TaskScheduler* scheduler)
      : scheduler_(scheduler),
        state_(std::make_shared<runtime_internal::GroupState>()) {}

  // Submits `fn` to the scheduler as part of this group.
  void Run(std::function<void()> fn);

  // Blocks until every task submitted via Run has finished. The caller
  // first executes the group's queued-but-unstarted tasks inline.
  void Wait();

 private:
  TaskScheduler* scheduler_;
  std::shared_ptr<runtime_internal::GroupState> state_;
};

}  // namespace ges

#endif  // GES_RUNTIME_SCHEDULER_H_

#include "runtime/scheduler.h"

#include <algorithm>
#include <cassert>

namespace ges {

unsigned HardwareThreads() {
  // hardware_concurrency() returns 0 when the count is unknown.
  return std::max(1u, std::thread::hardware_concurrency());
}

TaskScheduler::TaskScheduler(int num_workers) : slots_(kMaxWorkers) {
  if (num_workers <= 0) num_workers = static_cast<int>(HardwareThreads());
  EnsureWorkers(num_workers);
}

TaskScheduler::~TaskScheduler() { Shutdown(); }

TaskScheduler& TaskScheduler::Global() {
  // Leaked: the pool must outlive every static that might still submit
  // work during teardown.
  static TaskScheduler* global = new TaskScheduler();
  return *global;
}

void TaskScheduler::EnsureWorkers(int n) {
  n = std::min(n, kMaxWorkers);
  std::lock_guard<std::mutex> lk(idle_mu_);
  if (stop_.load(std::memory_order_acquire)) return;
  int cur = num_workers_.load(std::memory_order_acquire);
  if (n <= cur) return;
  for (int i = cur; i < n; ++i) slots_[i] = std::make_unique<Worker>();
  num_workers_.store(n, std::memory_order_release);
  for (int i = cur; i < n; ++i) {
    slots_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

void TaskScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    stop_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();
  int n = num_workers();
  for (int i = 0; i < n; ++i) {
    if (slots_[i]->thread.joinable()) slots_[i]->thread.join();
  }
  // Tasks enqueued concurrently with the stop flag may have been pushed
  // after the workers drained; run them here so no group waits forever.
  Task task;
  while (TryPop(-1, &task)) Execute(task);
}

void TaskScheduler::Submit(std::function<void()> fn) {
  Enqueue(Task{std::move(fn), nullptr});
}

void TaskScheduler::Enqueue(Task task) {
  int n = num_workers();
  if (n == 0 || stop_.load(std::memory_order_acquire)) {
    Execute(task);
    return;
  }
  uint64_t victim = next_victim_.fetch_add(1, std::memory_order_relaxed);
  Worker& w = *slots_[victim % static_cast<uint64_t>(n)];
  {
    std::lock_guard<std::mutex> lk(w.mu);
    w.queue.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  // Empty critical section: serializes with a worker that evaluated the
  // sleep predicate just before the increment (missed-wakeup guard).
  { std::lock_guard<std::mutex> lk(idle_mu_); }
  idle_cv_.notify_one();
}

bool TaskScheduler::TryPop(int self, Task* out) {
  int n = num_workers();
  if (self >= 0 && self < n) {
    Worker& w = *slots_[self];
    std::lock_guard<std::mutex> lk(w.mu);
    if (!w.queue.empty()) {
      *out = std::move(w.queue.back());  // LIFO: own tail is cache-warm
      w.queue.pop_back();
      queued_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  for (int k = 0; k < n; ++k) {
    int idx = self >= 0 ? (self + 1 + k) % n : k;
    if (idx == self) continue;
    Worker& w = *slots_[idx];
    std::lock_guard<std::mutex> lk(w.mu);
    if (!w.queue.empty()) {
      *out = std::move(w.queue.front());  // FIFO steal: oldest work first
      w.queue.pop_front();
      queued_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  return false;
}

bool TaskScheduler::TryPopGroupTask(const runtime_internal::GroupState* group,
                                    Task* out) {
  int n = num_workers();
  for (int i = 0; i < n; ++i) {
    Worker& w = *slots_[i];
    std::lock_guard<std::mutex> lk(w.mu);
    for (auto it = w.queue.begin(); it != w.queue.end(); ++it) {
      if (it->group.get() == group) {
        *out = std::move(*it);
        w.queue.erase(it);
        queued_.fetch_sub(1, std::memory_order_release);
        return true;
      }
    }
  }
  return false;
}

void TaskScheduler::WorkerLoop(int id) {
  for (;;) {
    Task task;
    if (TryPop(id, &task)) {
      Execute(task);
      continue;
    }
    std::unique_lock<std::mutex> lk(idle_mu_);
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
    idle_cv_.wait(lk, [this] {
      return queued_.load(std::memory_order_acquire) > 0 ||
             stop_.load(std::memory_order_acquire);
    });
  }
}

void TaskScheduler::Execute(Task& task) {
  std::shared_ptr<runtime_internal::GroupState> group = std::move(task.group);
  if (group == nullptr) {
    task.fn();
    return;
  }
  try {
    task.fn();
  } catch (...) {
    std::lock_guard<std::mutex> lk(group->mu);
    if (!group->error) group->error = std::current_exception();
  }
  std::lock_guard<std::mutex> lk(group->mu);
  if (--group->pending == 0) group->cv.notify_all();
}

void TaskScheduler::ParallelFor(
    size_t begin, size_t end, size_t morsel_size, int max_workers,
    const std::function<void(size_t, size_t)>& body,
    const QueryContext* context) {
  if (end <= begin) return;
  if (morsel_size == 0) morsel_size = 1;
  size_t num_morsels = (end - begin + morsel_size - 1) / morsel_size;
  size_t bound = max_workers <= 0 ? 1 : static_cast<size_t>(max_workers);
  size_t parallelism = std::min(
      {bound, num_morsels, static_cast<size_t>(num_workers()) + 1});
  if (parallelism <= 1) {
    // Sequential path, same chunk boundaries as the parallel one.
    for (size_t b = begin; b < end; b += morsel_size) {
      ThrowIfInterrupted(context);
      body(b, std::min(end, b + morsel_size));
    }
    return;
  }

  std::atomic<size_t> cursor{begin};
  auto claim = [&cursor, &body, morsel_size, end, context] {
    for (;;) {
      ThrowIfInterrupted(context);
      size_t b = cursor.fetch_add(morsel_size, std::memory_order_relaxed);
      if (b >= end) return;
      body(b, std::min(end, b + morsel_size));
    }
  };

  TaskGroup group(this);
  for (size_t i = 1; i < parallelism; ++i) group.Run(claim);
  std::exception_ptr caller_error;
  try {
    claim();  // the caller participates
  } catch (...) {
    caller_error = std::current_exception();
  }
  group.Wait();  // rethrows the first helper exception
  if (caller_error) std::rethrow_exception(caller_error);
}

void TaskGroup::Run(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(state_->mu);
    ++state_->pending;
  }
  scheduler_->Enqueue(TaskScheduler::Task{std::move(fn), state_});
}

void TaskGroup::Wait() {
  // Participate: execute this group's queued-but-unstarted tasks inline.
  // This is what makes nested fork/join deadlock-free — a waiter whose
  // helpers never got a worker drains them itself.
  TaskScheduler::Task task;
  while (scheduler_->TryPopGroupTask(state_.get(), &task)) {
    TaskScheduler::Execute(task);
  }
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->cv.wait(lk, [this] { return state_->pending == 0; });
  std::exception_ptr error = state_->error;
  state_->error = nullptr;
  lk.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace ges

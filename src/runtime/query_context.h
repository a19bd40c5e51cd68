// Per-query execution context: deadline + cooperative cancellation.
//
// A QueryContext is owned by whoever admitted the query (the service layer,
// a bench, a test) and handed to the engine via ExecOptions::context. The
// engine never blocks on it; operators poll Check() at morsel boundaries
// (Expand source rows, vectorized-filter morsels, de-factoring morsels) and
// between pipeline operators, so a cancelled or timed-out query releases
// its workers within one morsel of work instead of running to completion.
//
// Interruption is delivered by throwing QueryInterrupted from a checkpoint;
// the TaskScheduler already propagates the first exception of a parallel
// region to the caller, and Executor::Run converts it into a QueryResult
// with `interrupted` set — callers outside the engine never see the throw.
#ifndef GES_RUNTIME_QUERY_CONTEXT_H_
#define GES_RUNTIME_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/memory_budget.h"

namespace ges {

enum class InterruptReason : uint8_t {
  kNone = 0,
  kCancelled,          // explicit Cancel() (client CANCEL frame, disconnect)
  kDeadlineExceeded,   // steady-clock deadline passed
  kMemoryExceeded,     // per-query MemoryBudget limit crossed
};

const char* InterruptReasonName(InterruptReason r);

class QueryContext {
 public:
  QueryContext() = default;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // Requests cooperative cancellation. Thread-safe, idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  // Sets the deadline `seconds` from now (steady clock). Thread-safe; a
  // non-positive value expires immediately.
  void SetDeadline(double seconds) {
    deadline_ns_.store(
        NowNanos() + static_cast<int64_t>(seconds * 1e9),
        std::memory_order_release);
  }
  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_acquire) != 0;
  }

  // The checkpoint poll: two relaxed/acquire loads, plus a clock read only
  // when a deadline is armed. Precedence when several apply: cancel wins
  // over memory, memory over deadline (a killed query should report the
  // operator's intent; a hog that also timed out should report why it was
  // a hog).
  InterruptReason Check() const {
    if (cancelled_.load(std::memory_order_acquire)) {
      return InterruptReason::kCancelled;
    }
    if (budget_ != nullptr && budget_->exceeded()) {
      return InterruptReason::kMemoryExceeded;
    }
    int64_t dl = deadline_ns_.load(std::memory_order_acquire);
    if (dl != 0 && NowNanos() >= dl) {
      return InterruptReason::kDeadlineExceeded;
    }
    return InterruptReason::kNone;
  }

  // Steady-clock deadline in NowNanos() units; 0 = none. The watchdog uses
  // this to find queries past deadline + grace.
  int64_t deadline_nanos() const {
    return deadline_ns_.load(std::memory_order_acquire);
  }

  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Attaches the query's snapshot registration (a type-erased
  // storage SnapshotHandle — runtime stays independent of the storage
  // layer) so the MVCC GC watermark cannot pass the query's snapshot while
  // any morsel worker might still read it. Released when the context is
  // destroyed, i.e. strictly after the last checkpointed read. Set once,
  // before execution starts; not thread-safe against concurrent readers of
  // the pin itself (none exist — only the destructor touches it).
  void HoldSnapshotPin(std::shared_ptr<void> pin) {
    snapshot_pin_ = std::move(pin);
  }
  bool holds_snapshot_pin() const { return snapshot_pin_ != nullptr; }

  // Attaches the query's memory budget (resource governor, DESIGN.md §15).
  // Set once before execution starts, like the snapshot pin; the engine's
  // charge sites and Check() read it concurrently afterwards, which is safe
  // because the pointer itself never changes again. The budget must
  // outlive the context (the service keeps it alive until the response is
  // sent).
  void AttachBudget(std::shared_ptr<MemoryBudget> budget) {
    budget_ = std::move(budget);
  }
  MemoryBudget* budget() const { return budget_.get(); }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{0};  // 0 = no deadline
  std::shared_ptr<void> snapshot_pin_;
  std::shared_ptr<MemoryBudget> budget_;
};

// Thrown from cancellation checkpoints; converted to QueryResult::interrupted
// by Executor::Run. Deliberately not a std::exception subtype: nothing but
// the engine's own catch sites should handle it.
struct QueryInterrupted {
  InterruptReason reason;
};

// The checkpoint. `ctx == nullptr` (no service context, e.g. direct engine
// use by tests/benches) compiles to a single branch.
inline void ThrowIfInterrupted(const QueryContext* ctx) {
  if (ctx == nullptr) return;
  InterruptReason r = ctx->Check();
  if (r != InterruptReason::kNone) throw QueryInterrupted{r};
}

inline const char* InterruptReasonName(InterruptReason r) {
  switch (r) {
    case InterruptReason::kNone:
      return "none";
    case InterruptReason::kCancelled:
      return "cancelled";
    case InterruptReason::kDeadlineExceeded:
      return "deadline_exceeded";
    case InterruptReason::kMemoryExceeded:
      return "memory_exceeded";
  }
  return "?";
}

// Charge-site helpers: record `bytes` of engine intermediate state against
// the query's budget, if any. Both compile to a couple of branches when no
// budget is attached (tests, benches, direct engine use).
inline void ChargeMemory(const QueryContext* ctx, size_t bytes) {
  if (ctx != nullptr && ctx->budget() != nullptr) ctx->budget()->Charge(bytes);
}

}  // namespace ges

#endif  // GES_RUNTIME_QUERY_CONTEXT_H_

// Resource governor accounting primitives (DESIGN.md §15).
//
// A MemoryBudget is the per-query half of the governor: the engine charges
// it at its allocation choke points (operator-state growth, flatten output,
// expansion scratch, WCOJ probe buffers) and the budget trips a sticky
// `exceeded` flag once the per-query limit is crossed. Charging
// NEVER throws and never blocks — detection happens at the engine's
// existing cooperative checkpoints (ThrowIfInterrupted), so an over-budget
// query unwinds through exactly the same path as a cancelled or expired
// one and releases everything it holds (operator state, snapshot pin).
//
// Every charge is mirrored into a process-wide GlobalMemoryGauge shared by
// all in-flight queries; the service reads it to drive watermark shedding
// (soft watermark: shed long queries at admission; hard watermark: shed
// everything but in-flight shorts) and exports its peak as
// governor_peak_global_bytes.
//
// Thread safety: Charge/Release are called concurrently from morsel
// workers; everything is relaxed atomics. The counters are an RSS *proxy*
// (engine intermediate state, not malloc telemetry) — the point is that
// they move monotonically with the real allocations at the choke points,
// so a limit on them bounds the real thing.
#ifndef GES_COMMON_MEMORY_BUDGET_H_
#define GES_COMMON_MEMORY_BUDGET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace ges {

// Process-wide bytes gauge. One instance lives in the Server and outlives
// every query budget that points at it.
class GlobalMemoryGauge {
 public:
  void Add(size_t bytes) {
    size_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    size_t prev = peak_.load(std::memory_order_relaxed);
    while (prev < now &&
           !peak_.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
  }
  void Sub(size_t bytes) { used_.fetch_sub(bytes, std::memory_order_relaxed); }

  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
};

// Per-query memory budget. Created by the service when the query is
// admitted and attached to its QueryContext; destroyed when the response
// has been sent (the destructor returns whatever is still charged to the
// global gauge, so an exception unwind can never leak gauge bytes).
class MemoryBudget {
 public:
  // limit_bytes == 0 means unlimited: the budget still tracks usage and
  // feeds the global gauge, it just never trips.
  explicit MemoryBudget(size_t limit_bytes, GlobalMemoryGauge* global = nullptr)
      : limit_(limit_bytes), global_(global) {}
  ~MemoryBudget() {
    if (global_ != nullptr) global_->Sub(used_.load(std::memory_order_relaxed));
  }

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  // Records `bytes` of new intermediate state. Sets the sticky exceeded
  // flag when the total crosses the limit; never throws (the query keeps
  // running until its next cooperative checkpoint observes the flag).
  void Charge(size_t bytes) {
    if (bytes == 0) return;
    size_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    size_t prev = peak_.load(std::memory_order_relaxed);
    while (prev < now &&
           !peak_.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
    if (global_ != nullptr) global_->Add(bytes);
    if (limit_ != 0 && now > limit_) {
      exceeded_.store(true, std::memory_order_relaxed);
    }
  }

  // Returns `bytes` previously charged (state shrank or was handed off to
  // an accounting site that re-charges it). The exceeded flag stays set:
  // once a query has crossed its limit it dies at the next checkpoint even
  // if a release briefly dips it back under.
  void Release(size_t bytes) {
    if (bytes == 0) return;
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    if (global_ != nullptr) global_->Sub(bytes);
  }

  bool exceeded() const { return exceeded_.load(std::memory_order_relaxed); }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  size_t limit() const { return limit_; }

 private:
  const size_t limit_;
  GlobalMemoryGauge* const global_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<bool> exceeded_{false};
};

// Delta-accounting helper for one owner's view of a gauge that moves both
// ways (e.g. an operator pipeline whose state bytes grow and shrink op to
// op). Not thread-safe — one instance per owning site; concurrent sites
// each keep their own tracker against the same budget.
class BudgetTracker {
 public:
  explicit BudgetTracker(MemoryBudget* budget) : budget_(budget) {}

  // Re-points the tracked total at `now_bytes`, charging or releasing the
  // difference.
  void Update(size_t now_bytes) {
    if (budget_ == nullptr) return;
    if (now_bytes > charged_) {
      budget_->Charge(now_bytes - charged_);
    } else {
      budget_->Release(charged_ - now_bytes);
    }
    charged_ = now_bytes;
  }

  size_t charged() const { return charged_; }

 private:
  MemoryBudget* budget_;
  size_t charged_ = 0;
};

}  // namespace ges

#endif  // GES_COMMON_MEMORY_BUDGET_H_

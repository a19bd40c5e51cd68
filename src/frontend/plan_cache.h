// Shared LRU cache of prepared-plan templates (DESIGN.md §14).
//
// Keyed by the normalized query text (frontend/parser.h NormalizeQuery):
// two sessions issuing `WHERE id(p) = 1` and `WHERE id(p) = 7` normalize to
// the same `$0` template and share one cached, already-optimized Plan.
// Entries record the catalog stats epoch at build time; a Lookup against a
// newer epoch misses (the caller re-plans and Insert replaces the entry),
// so schema changes and statistics refreshes invalidate stale templates
// without any cross-thread callback machinery.
//
// Concurrency: lookups take a shared lock and bump a per-entry atomic
// recency stamp, so the hot hit path never serializes readers. Inserts
// take the exclusive lock and evict the least-recently-stamped entry when
// full (approximate LRU — exact enough for a plan cache, and it keeps the
// read path lock-free of list surgery).
#ifndef GES_FRONTEND_PLAN_CACHE_H_
#define GES_FRONTEND_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "executor/plan.h"
#include "executor/schema.h"

namespace ges {

// An immutable compiled template shared across sessions. Under the fused
// exec mode `plan` has been through OptimizePlan already (Plan::optimized,
// so executors run it as stored); execution binds positional parameters
// via BindPlanParams, whose copy keeps that mark.
struct PreparedPlan {
  std::string normalized;  // cache key (canonical text with $k slots)
  int param_count = 0;
  // Literals lifted during auto-parameterization, in slot order. Executing
  // with zero bindings falls back to these (the original query's values).
  std::vector<Value> default_params;
  Plan plan;
  // Column statistics captured with the template; feeds
  // ExecOptions::column_stats at execution time.
  std::unordered_map<std::string, ColumnStat> column_stats;
  // catalog().stats_epoch() when the template was built.
  uint64_t stats_epoch = 0;
};

class PlanCache {
 public:
  // capacity == 0 disables caching (every Lookup misses, Insert drops).
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Returns the cached template for `normalized` built at `stats_epoch`,
  // or nullptr (counted as a miss) when absent or built under an older
  // epoch. A stale entry stays until the re-planned Insert replaces it.
  std::shared_ptr<const PreparedPlan> Lookup(const std::string& normalized,
                                             uint64_t stats_epoch);

  // Inserts (or replaces) the entry for plan->normalized, evicting the
  // least-recently-used entry when at capacity.
  void Insert(std::shared_ptr<const PreparedPlan> plan);

  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::shared_ptr<const PreparedPlan> plan;
    std::atomic<uint64_t> last_used{0};
  };

  const size_t capacity_;
  mutable std::shared_mutex mu_;
  // unique_ptr values: Entry holds an atomic and must not move on rehash.
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
  std::atomic<uint64_t> tick_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace ges

#endif  // GES_FRONTEND_PLAN_CACHE_H_

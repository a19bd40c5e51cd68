// Admission control in front of the shared execution resources.
//
// The paper's Figure 2 problem: one long analytical query (IC5/IC9-class)
// admitted naively can occupy every worker and push short-read tail
// latency off a cliff. The service therefore funnels every query through a
// *bounded* AdmissionQueue:
//
//   * QueryCostModel classifies queries short/long from an EWMA of the
//     latencies actually observed per query name (seeded by priors so the
//     first IC5 of the day is already treated as long);
//   * kPrioritized dequeues short queries first and caps the number of
//     concurrently running long queries below the worker count, so at
//     least one worker is always available to drain shorts;
//   * when the queue is full, TrySubmit fails and the caller answers
//     RESOURCE_EXHAUSTED — backpressure is explicit, the queue never grows
//     without bound.
//
// The queue owns a small pool of query worker threads (inter-query
// parallelism); each query may additionally fan out morsels onto the
// process-wide TaskScheduler (intra-query parallelism), exactly like the
// harness driver does.
#ifndef GES_SERVICE_ADMISSION_H_
#define GES_SERVICE_ADMISSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace ges::service {

enum class AdmissionPolicy : uint8_t {
  kFifo = 0,         // strict arrival order, no class distinction
  kPrioritized = 1,  // short-first + long-running cap
};

const char* AdmissionPolicyName(AdmissionPolicy p);

// Per-query-name latency EWMA driving the short/long split. Thread-safe.
class QueryCostModel {
 public:
  explicit QueryCostModel(double short_threshold_ms = 5.0,
                          double alpha = 0.25)
      : short_threshold_ms_(short_threshold_ms), alpha_(alpha) {}

  // Estimated latency for `name`. Unseen names get a prior: IC* and
  // STRESS* start long (the complex-read class the paper profiles),
  // everything else starts short.
  double EstimateMillis(const std::string& name) const;
  bool IsShort(const std::string& name) const {
    return EstimateMillis(name) < short_threshold_ms_;
  }

  // Folds an observed latency into the estimate.
  void Observe(const std::string& name, double millis);

  double short_threshold_ms() const { return short_threshold_ms_; }

 private:
  double Prior(const std::string& name) const;

  double short_threshold_ms_;
  double alpha_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, double> ewma_ms_;
};

struct AdmissionStats {
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> rejected{0};   // queue full
  // Per-class split of `rejected` (short-read vs long-analytic), so an
  // operator can tell "the queue is drowning in longs" from "shorts are
  // being refused too" at a glance (Server::StatsReport prints them).
  std::atomic<uint64_t> rejected_short{0};
  std::atomic<uint64_t> rejected_long{0};
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> executed_long{0};
  // Peak queue depth observed (diagnostics for capacity tuning).
  std::atomic<uint64_t> peak_queued{0};
};

// A unit of admitted work. `run` executes the query AND delivers its
// response; the queue only schedules and times it.
struct QueryJob {
  std::string name;            // cost-model key, e.g. "IC5"
  std::function<void()> run;
};

class AdmissionQueue {
 public:
  AdmissionQueue(AdmissionPolicy policy, size_t capacity, int num_workers,
                 QueryCostModel* cost_model);
  ~AdmissionQueue();

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  // Enqueues `job` unless the queue is at capacity or intake is closed.
  // Returns false without running the job in either case (the caller sends
  // the RESOURCE_EXHAUSTED / SHUTTING_DOWN response).
  bool TrySubmit(QueryJob job);

  // Stops accepting new work (drain phase 1). Queued jobs still run.
  void CloseIntake();

  // Blocks until the queue is empty and no job is running, or the grace
  // period elapses. Returns true if idle was reached.
  bool WaitIdle(double grace_seconds);

  // CloseIntake + join workers. Queued jobs that never ran are dropped;
  // callers that need them answered must drain first. Idempotent.
  void Shutdown();

  size_t queued() const;
  const AdmissionStats& stats() const { return stats_; }

 private:
  struct Item {
    uint64_t seq;
    bool is_short;
    QueryJob job;
  };

  // Pops per policy; requires mu_ held. Returns false if nothing eligible.
  bool PopLocked(Item* out);
  void WorkerLoop();

  AdmissionPolicy policy_;
  size_t capacity_;
  int max_long_running_;
  QueryCostModel* cost_model_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for eligible items
  std::condition_variable idle_cv_;  // WaitIdle waits for quiescence
  std::deque<Item> short_q_;
  std::deque<Item> long_q_;
  uint64_t next_seq_ = 0;
  int running_ = 0;
  int running_long_ = 0;
  bool intake_closed_ = false;
  bool stop_ = false;

  std::vector<std::thread> workers_;
  AdmissionStats stats_;
};

}  // namespace ges::service

#endif  // GES_SERVICE_ADMISSION_H_

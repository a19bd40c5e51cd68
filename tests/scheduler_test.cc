// TaskScheduler unit tests: morsel coverage, nesting, exception
// propagation and shutdown semantics.
#include "runtime/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ges {
namespace {

TEST(HardwareThreadsTest, AtLeastOne) { EXPECT_GE(HardwareThreads(), 1u); }

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  TaskScheduler& sched = TaskScheduler::Global();
  constexpr size_t kN = 10007;  // prime: exercises the remainder morsel
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  sched.ParallelFor(0, kN, 64, 4, [&](size_t lo, size_t hi) {
    ASSERT_LT(lo, hi);
    ASSERT_LE(hi, kN);
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  TaskScheduler& sched = TaskScheduler::Global();
  int calls = 0;
  sched.ParallelFor(5, 5, 16, 4, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A range smaller than one morsel is a single chunk.
  std::atomic<int> chunks{0};
  std::atomic<size_t> covered{0};
  sched.ParallelFor(10, 13, 16, 4, [&](size_t lo, size_t hi) {
    chunks.fetch_add(1);
    covered.fetch_add(hi - lo);
    EXPECT_EQ(lo, 10u);
    EXPECT_EQ(hi, 13u);
  });
  EXPECT_EQ(chunks.load(), 1);
  EXPECT_EQ(covered.load(), 3u);
}

TEST(ParallelForTest, ChunkBoundariesIndependentOfWorkerBound) {
  // The determinism contract: identical chunking for every max_workers.
  TaskScheduler& sched = TaskScheduler::Global();
  auto chunks_at = [&](int max_workers) {
    std::mutex mu;
    std::set<std::pair<size_t, size_t>> chunks;
    sched.ParallelFor(3, 1000, 37, max_workers, [&](size_t lo, size_t hi) {
      std::lock_guard<std::mutex> lk(mu);
      chunks.emplace(lo, hi);
    });
    return chunks;
  };
  auto seq = chunks_at(1);
  EXPECT_EQ(seq, chunks_at(2));
  EXPECT_EQ(seq, chunks_at(8));
}

TEST(ParallelForTest, NestedParallelForCompletes) {
  TaskScheduler& sched = TaskScheduler::Global();
  constexpr size_t kOuter = 40;
  constexpr size_t kInner = 200;
  std::atomic<size_t> total{0};
  sched.ParallelFor(0, kOuter, 4, 4, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      sched.ParallelFor(0, kInner, 16, 4, [&](size_t jlo, size_t jhi) {
        total.fetch_add(jhi - jlo);
      });
    }
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ParallelForTest, ExceptionPropagatesAndSchedulerSurvives) {
  TaskScheduler& sched = TaskScheduler::Global();
  EXPECT_THROW(sched.ParallelFor(0, 1000, 8, 4,
                                 [&](size_t lo, size_t) {
                                   if (lo >= 504) {
                                     throw std::runtime_error("morsel boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must remain fully usable afterwards.
  std::atomic<size_t> covered{0};
  sched.ParallelFor(0, 512, 8, 4,
                    [&](size_t lo, size_t hi) { covered.fetch_add(hi - lo); });
  EXPECT_EQ(covered.load(), 512u);
}

TEST(TaskGroupTest, RunsEveryTask) {
  TaskScheduler& sched = TaskScheduler::Global();
  std::atomic<int> done{0};
  TaskGroup group(&sched);
  for (int i = 0; i < 64; ++i) {
    group.Run([&] { done.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(done.load(), 64);
}

TEST(TaskGroupTest, WaitRethrowsFirstException) {
  TaskScheduler& sched = TaskScheduler::Global();
  TaskGroup group(&sched);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    group.Run([&, i] {
      ran.fetch_add(1);
      if (i == 7) throw std::logic_error("task boom");
    });
  }
  EXPECT_THROW(group.Wait(), std::logic_error);
  EXPECT_EQ(ran.load(), 16);  // one failure does not cancel siblings
}

TEST(ShutdownTest, DrainsQueuedWork) {
  // A private pool, so shutting it down leaves the global one alone.
  TaskScheduler sched(2);
  std::atomic<int> done{0};
  TaskGroup group(&sched);
  for (int i = 0; i < 128; ++i) {
    group.Run([&] { done.fetch_add(1); });
  }
  sched.Shutdown();  // must execute whatever was still queued
  group.Wait();
  EXPECT_EQ(done.load(), 128);
}

TEST(ShutdownTest, PostShutdownSubmitRunsInline) {
  TaskScheduler sched(2);
  sched.Shutdown();
  std::atomic<int> done{0};
  TaskGroup group(&sched);
  group.Run([&] { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 1);  // executed inline during Run
  group.Wait();
  std::atomic<size_t> covered{0};
  sched.ParallelFor(0, 100, 10, 4,
                    [&](size_t lo, size_t hi) { covered.fetch_add(hi - lo); });
  EXPECT_EQ(covered.load(), 100u);
}

}  // namespace
}  // namespace ges

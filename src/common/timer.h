// Monotonic wall-clock timing helpers for operator profiling and benches.
#ifndef GES_COMMON_TIMER_H_
#define GES_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace ges {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ges

#endif  // GES_COMMON_TIMER_H_

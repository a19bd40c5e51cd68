// Span recording for the traced benchmark run.
//
// The benchmark records spans from its own code around each call into a
// layer's public function (Client::Run, NormalizeQuery, Executor::Run,
// Graph::Neighbors, ...). The server's own per-response timings
// (server_millis and the parse/plan/bind/exec phases) become child spans
// of the client span that received them; they carry durations only, since
// the wire reports no server-side start times. A span's self time is its
// duration minus the time its direct children cover. Children of one span
// never overlap, so that coverage is the sum of their durations.
#ifndef GES_PERFBENCH_TRACE_H_
#define GES_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ges::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t request = 0;  // shared by every span of one request
  uint32_t parent = 0;   // index in the same buffer, or SpanBuffer::kRoot
  const char* name = "";
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

// Spans of one thread. Not thread-safe; each recording thread owns one.
class SpanBuffer {
 public:
  static constexpr uint32_t kRoot = UINT32_MAX;

  SpanBuffer() { spans_.reserve(1 << 16); }

  uint32_t Add(uint64_t request, uint32_t parent, const char* name,
               int64_t start_ns, int64_t dur_ns) {
    spans_.push_back(Span{request, parent, name, start_ns, dur_ns});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  // Records [start_ns, now) and returns the span's index.
  uint32_t Close(uint64_t request, uint32_t parent, const char* name,
                 int64_t start_ns) {
    return Add(request, parent, name, start_ns, NowNs() - start_ns);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Per span name: each span's duration and self time (milliseconds).
struct LayerTime {
  std::vector<double> dur_ms;
  std::vector<double> self_ms;
};

std::map<std::string, LayerTime> AggregateSpans(
    const std::vector<const SpanBuffer*>& buffers);

}  // namespace ges::perfbench

#endif  // GES_PERFBENCH_TRACE_H_

#include "trace.h"

namespace ges::perfbench {

std::map<std::string, LayerTime> AggregateSpans(
    const std::vector<const SpanBuffer*>& buffers) {
  std::map<std::string, LayerTime> out;
  for (const SpanBuffer* buf : buffers) {
    const std::vector<Span>& spans = buf->spans();
    std::vector<int64_t> covered(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent != SpanBuffer::kRoot) covered[s.parent] += s.dur_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      LayerTime& t = out[spans[i].name];
      t.dur_ms.push_back(spans[i].dur_ns / 1e6);
      t.self_ms.push_back((spans[i].dur_ns - covered[i]) / 1e6);
    }
  }
  return out;
}

}  // namespace ges::perfbench

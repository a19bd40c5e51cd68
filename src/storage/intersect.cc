#include "storage/intersect.h"

#include <algorithm>

namespace ges {

uint32_t GallopLowerBound(const VertexId* a, uint32_t n, uint32_t begin,
                          VertexId key, IntersectOpStats* stats) {
  if (begin >= n || a[begin] >= key) return begin;
  // Exponential phase: double the stride until we overshoot.
  uint32_t lo = begin;
  uint32_t bound = 1;
  while (lo + bound < n && a[lo + bound] < key) {
    lo += bound;
    bound <<= 1;
    if (stats != nullptr) ++stats->gallops;
  }
  uint32_t hi = std::min<uint64_t>(uint64_t{lo} + bound, n);
  // Binary phase inside (lo, hi].
  uint32_t result = static_cast<uint32_t>(
      std::lower_bound(a + lo + 1, a + hi, key) - a);
  if (stats != nullptr && result > begin + 1) {
    stats->skipped += result - begin - 1;
  }
  return result;
}

bool SpanContains(const AdjSpan& span, VertexId w, IntersectOpStats* stats) {
  if (stats != nullptr) ++stats->probes;
  uint32_t pos = GallopLowerBound(span.ids, span.size, 0, w, stats);
  return pos < span.size && span.ids[pos] == w;
}

void IntersectProber::Bind(const std::vector<AdjSpan>& lists,
                           const std::vector<uint32_t>& column_of,
                           size_t num_columns) {
  lists_.clear();
  num_columns_ = num_columns;
  column_hit_.assign(num_columns, 0);
  for (size_t i = 0; i < lists.size(); ++i) {
    if (lists[i].size == 0) continue;
    lists_.push_back(List{lists[i].ids, lists[i].size, 0, column_of[i]});
    column_hit_[column_of[i]] = 1;
  }
  any_column_empty_ = false;
  for (size_t c = 0; c < num_columns; ++c) {
    if (!column_hit_[c]) any_column_empty_ = true;
  }
  // Short-lists-first: cheapest rejections run before expensive ones.
  std::sort(lists_.begin(), lists_.end(),
            [](const List& a, const List& b) { return a.size < b.size; });
}

void IntersectProber::BeginDriverList() {
  for (List& l : lists_) l.cursor = 0;
}

bool IntersectProber::Matches(VertexId w, IntersectOpStats* stats) {
  // AND over probe columns, OR over each column's lists. column_hit_
  // tracks which columns matched this candidate.
  std::fill(column_hit_.begin(), column_hit_.end(), 0);
  size_t matched = 0;
  for (List& l : lists_) {
    if (column_hit_[l.column]) continue;  // column already satisfied
    if (stats != nullptr) ++stats->probes;
    l.cursor = GallopLowerBound(l.ids, l.size, l.cursor, w, stats);
    if (l.cursor < l.size && l.ids[l.cursor] == w) {
      column_hit_[l.column] = 1;
      if (++matched == num_columns_) return true;
    }
  }
  return matched == num_columns_;
}

}  // namespace ges

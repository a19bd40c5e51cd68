#include "storage/adjacency.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace ges {

void AdjacencyTable::StageEdge(uint32_t src, VertexId dst, int64_t stamp) {
  staged_src_.push_back(src);
  staged_dst_.push_back(dst);
  if (has_stamp_) staged_stamp_.push_back(stamp);
}

void AdjacencyTable::Finalize(size_t num_sources) {
  assert(csr_owner_ == nullptr);
  // Row starts are u32: a table holds at most 4G - 1 edges. Fail loudly
  // rather than let the offsets wrap and corrupt every later lookup.
  if (staged_src_.size() > std::numeric_limits<uint32_t>::max()) {
    std::fprintf(stderr,
                 "AdjacencyTable::Finalize: %zu edges exceed the u32 CSR "
                 "offset range\n",
                 staged_src_.size());
    std::abort();
  }
  auto csr = std::make_shared<Csr>();
  std::vector<uint32_t>& offsets = csr->offsets;
  // Phase 1: degree count, shifted by one so the prefix sum below turns
  // offsets into CSR row starts in place.
  offsets.assign(num_sources + 1, 0);
  for (uint32_t s : staged_src_) {
    assert(s < num_sources);
    ++offsets[s + 1];
  }
  size_t sources = 0;
  for (size_t o = 0; o < num_sources; ++o) {
    if (offsets[o + 1] > 0) ++sources;
    offsets[o + 1] += offsets[o];
  }
  const size_t total = offsets[num_sources];
  csr->ids.resize(total);
  if (has_stamp_) csr->stamps.resize(total);
  // Phase 2: fill (stable within each vertex: keeps datagen order).
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t e = 0; e < staged_src_.size(); ++e) {
    uint32_t pos = cursor[staged_src_[e]]++;
    csr->ids[pos] = staged_dst_[e];
    if (has_stamp_) csr->stamps[pos] = staged_stamp_[e];
  }
  // Phase 3: sort each vertex's list by neighbor id (stable, so parallel
  // edges keep their staging order). Sorted lists are the storage invariant
  // the intersection/galloping primitives rely on (storage/intersect.h).
  std::vector<uint32_t> perm;
  std::vector<VertexId> tmp_ids;
  std::vector<int64_t> tmp_stamps;
  for (size_t o = 0; o < num_sources; ++o) {
    const uint32_t d = offsets[o + 1] - offsets[o];
    VertexId* ids = csr->ids.data() + offsets[o];
    if (d < 2 || std::is_sorted(ids, ids + d)) continue;
    perm.resize(d);
    for (uint32_t i = 0; i < d; ++i) perm[i] = i;
    std::stable_sort(perm.begin(), perm.end(),
                     [&](uint32_t a, uint32_t b) { return ids[a] < ids[b]; });
    tmp_ids.assign(ids, ids + d);
    for (uint32_t i = 0; i < d; ++i) ids[i] = tmp_ids[perm[i]];
    if (has_stamp_) {
      int64_t* stamps = csr->stamps.data() + offsets[o];
      tmp_stamps.assign(stamps, stamps + d);
      for (uint32_t i = 0; i < d; ++i) stamps[i] = tmp_stamps[perm[i]];
    }
  }
  num_sources_.store(sources, std::memory_order_relaxed);
  num_edges_.store(total, std::memory_order_relaxed);
  staged_src_ = std::vector<uint32_t>();
  staged_dst_ = std::vector<VertexId>();
  staged_stamp_ = std::vector<int64_t>();
  csr_owner_ = csr;
  csr_.store(csr.get(), std::memory_order_release);
}

size_t AdjacencyTable::MemoryBytes() const {
  // Capacity, not size: the staging buffers (which used to be invisible, so
  // bulk loads under-reported by the whole edge list) and any slack in the
  // packed arrays.
  size_t bytes = staged_src_.capacity() * sizeof(uint32_t) +
                 staged_dst_.capacity() * sizeof(VertexId) +
                 staged_stamp_.capacity() * sizeof(int64_t);
  // Through the reader-side pointer: the governor polls this lock-free
  // while a compaction swap may be detaching the CSR.
  if (const Csr* csr = this->csr()) {
    bytes += csr->offsets.capacity() * sizeof(uint32_t) +
             csr->ids.capacity() * sizeof(VertexId) +
             csr->stamps.capacity() * sizeof(int64_t);
  }
  return bytes;
}

std::shared_ptr<const void> AdjacencyTable::DetachStorage(
    size_t num_edges, size_t num_sources) {
  csr_.store(nullptr, std::memory_order_release);
  num_edges_.store(num_edges, std::memory_order_relaxed);
  num_sources_.store(num_sources, std::memory_order_relaxed);
  return std::move(csr_owner_);
}

}  // namespace ges

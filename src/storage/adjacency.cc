#include "storage/adjacency.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace ges {

namespace {

// The decode side of WireBuf::PutVarint / PutZigZag, unchecked: the level's
// own bytes are trusted, and this loop runs on every cold read of a
// compacted relation.
inline uint64_t GetVarint(const uint8_t*& p) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    uint8_t b = *p++;
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

inline int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace

AdjacencyTable::Csr::Builder::Builder(bool has_stamp) {
  csr_->varint_ = true;
  csr_->has_stamp_ = has_stamp;
  csr_->offsets_.push_back(0);
}

void AdjacencyTable::Csr::Builder::Add(const VertexId* ids,
                                       const int64_t* stamps, uint32_t n) {
  csr_->degrees_.push_back(n);
  if (n > 0) {
    // Delta-varint the sorted id list: first id absolute, then the
    // non-negative gaps (zero for parallel edges).
    blob_.PutVarint(ids[0]);
    for (uint32_t i = 1; i < n; ++i) {
      assert(ids[i] >= ids[i - 1]);
      blob_.PutVarint(ids[i] - ids[i - 1]);
    }
    if (csr_->has_stamp_) {
      // Null suppression: a single mode byte replaces an all-zero stamp
      // column (datasets loaded without edge properties through a
      // has_stamp relation pay one byte per vertex, not eight per edge).
      const bool all_zero =
          std::all_of(stamps, stamps + n, [](int64_t s) { return s == 0; });
      blob_.PutU8(all_zero ? 0 : 1);
      if (!all_zero) {
        blob_.PutZigZag(stamps[0]);
        for (uint32_t i = 1; i < n; ++i) {
          blob_.PutZigZag(stamps[i] - stamps[i - 1]);
        }
      }
    }
    csr_->num_edges_ += n;
    ++csr_->num_sources_;
  }
  // Byte offsets are u32: fail loudly rather than let them wrap and
  // corrupt every later lookup.
  const size_t bytes = blob_.data().size();
  if (bytes > std::numeric_limits<uint32_t>::max()) {
    std::fprintf(stderr,
                 "AdjacencyTable::Csr::Builder: %zu encoded bytes exceed the "
                 "u32 offset range\n",
                 bytes);
    std::abort();
  }
  csr_->offsets_.push_back(static_cast<uint32_t>(bytes));
}

void AdjacencyTable::Csr::Builder::AddTail(VertexId v, const VertexId* ids,
                                           const int64_t* stamps,
                                           uint32_t n) {
  if (n == 0) return;
  assert(csr_->tail_.empty() || csr_->tail_.back() < v);
  csr_->tail_.push_back(v);
  Add(ids, stamps, n);
}

std::unique_ptr<const AdjacencyTable::Csr>
AdjacencyTable::Csr::Builder::Build() {
  Csr& csr = *csr_;
  csr.blob_ = blob_.Take();
  csr.blob_.shrink_to_fit();
  csr.offsets_.shrink_to_fit();
  csr.degrees_.shrink_to_fit();
  csr.tail_.shrink_to_fit();
  const std::vector<VertexId>& tail = csr.tail_;
  if (!tail.empty()) {
    // About four tail ids per bucket: the directory costs ~1 B per tail
    // vertex.
    const uint64_t span = tail.back() - tail.front();
    while ((span >> csr.tail_shift_) > tail.size() / 4) ++csr.tail_shift_;
    const size_t buckets = (span >> csr.tail_shift_) + 1;
    csr.tail_dir_.resize(buckets + 1);
    size_t p = 0;
    for (size_t b = 0; b <= buckets; ++b) {
      const VertexId start = tail.front() + (VertexId{b} << csr.tail_shift_);
      while (p < tail.size() && tail[p] < start) ++p;
      csr.tail_dir_[b] = static_cast<uint32_t>(p);
    }
  }
  return std::move(csr_);
}

AdjSpan AdjacencyTable::Csr::Decode(uint32_t slot, AdjScratch* scratch) const {
  const uint32_t n = DegreeAt(slot);
  if (n == 0) return AdjSpan{};
  if (scratch == nullptr) {
    // Every production read path threads an AdjScratch; reaching a decode
    // without one means a call site was missed.
    std::fprintf(stderr,
                 "AdjacencyTable::Csr::Decode: null scratch on compacted "
                 "relation (slot %u)\n",
                 slot);
    std::abort();
  }
  const uint8_t* p =
      reinterpret_cast<const uint8_t*>(blob_.data()) + offsets_[slot];
  scratch->ids.resize(n);
  VertexId id = static_cast<VertexId>(GetVarint(p));
  scratch->ids[0] = id;
  for (uint32_t i = 1; i < n; ++i) {
    id += static_cast<VertexId>(GetVarint(p));
    scratch->ids[i] = id;
  }
  const int64_t* stamps = nullptr;
  if (has_stamp_) {
    scratch->stamps.resize(n);
    uint8_t mode = *p++;
    if (mode == 0) {
      for (uint32_t i = 0; i < n; ++i) scratch->stamps[i] = 0;
    } else {
      int64_t s = UnZigZag(GetVarint(p));
      scratch->stamps[0] = s;
      for (uint32_t i = 1; i < n; ++i) {
        s += UnZigZag(GetVarint(p));
        scratch->stamps[i] = s;
      }
    }
    stamps = scratch->stamps.data();
  }
  assert(p <= reinterpret_cast<const uint8_t*>(blob_.data()) +
                  offsets_[slot + 1]);
  return AdjSpan{scratch->ids.data(), stamps, n};
}

void AdjacencyTable::StageEdge(uint32_t src, VertexId dst, int64_t stamp) {
  staged_src_.push_back(src);
  staged_dst_.push_back(dst);
  if (has_stamp_) staged_stamp_.push_back(stamp);
}

void AdjacencyTable::Finalize(size_t num_sources) {
  assert(csr() == nullptr);
  // Row starts are u32: a table holds at most 4G - 1 edges. Fail loudly
  // rather than let the offsets wrap and corrupt every later lookup.
  if (staged_src_.size() > std::numeric_limits<uint32_t>::max()) {
    std::fprintf(stderr,
                 "AdjacencyTable::Finalize: %zu edges exceed the u32 CSR "
                 "offset range\n",
                 staged_src_.size());
    std::abort();
  }
  auto csr = std::make_unique<Csr>();
  csr->has_stamp_ = has_stamp_;
  std::vector<uint32_t>& offsets = csr->offsets_;
  // Phase 1: degree count, shifted by one so the prefix sum below turns
  // offsets into CSR row starts in place.
  offsets.assign(num_sources + 1, 0);
  for (uint32_t s : staged_src_) {
    assert(s < num_sources);
    ++offsets[s + 1];
  }
  for (size_t o = 0; o < num_sources; ++o) {
    if (offsets[o + 1] > 0) ++csr->num_sources_;
    offsets[o + 1] += offsets[o];
  }
  const size_t total = offsets[num_sources];
  csr->num_edges_ = total;
  csr->ids_.resize(total);
  if (has_stamp_) csr->stamps_.resize(total);
  // Phase 2: fill (stable within each vertex: keeps datagen order).
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t e = 0; e < staged_src_.size(); ++e) {
    uint32_t pos = cursor[staged_src_[e]]++;
    csr->ids_[pos] = staged_dst_[e];
    if (has_stamp_) csr->stamps_[pos] = staged_stamp_[e];
  }
  // Phase 3: sort each vertex's list by neighbor id (stable, so parallel
  // edges keep their staging order). Sorted lists are the storage invariant
  // the intersection/galloping primitives rely on (storage/intersect.h).
  std::vector<uint32_t> perm;
  std::vector<VertexId> tmp_ids;
  std::vector<int64_t> tmp_stamps;
  for (size_t o = 0; o < num_sources; ++o) {
    const uint32_t d = offsets[o + 1] - offsets[o];
    VertexId* ids = csr->ids_.data() + offsets[o];
    if (d < 2 || std::is_sorted(ids, ids + d)) continue;
    perm.resize(d);
    for (uint32_t i = 0; i < d; ++i) perm[i] = i;
    std::stable_sort(perm.begin(), perm.end(),
                     [&](uint32_t a, uint32_t b) { return ids[a] < ids[b]; });
    tmp_ids.assign(ids, ids + d);
    for (uint32_t i = 0; i < d; ++i) ids[i] = tmp_ids[perm[i]];
    if (has_stamp_) {
      int64_t* stamps = csr->stamps_.data() + offsets[o];
      tmp_stamps.assign(stamps, stamps + d);
      for (uint32_t i = 0; i < d; ++i) stamps[i] = tmp_stamps[perm[i]];
    }
  }
  staged_src_ = std::vector<uint32_t>();
  staged_dst_ = std::vector<VertexId>();
  staged_stamp_ = std::vector<int64_t>();
  Install(std::move(csr));
}

std::unique_ptr<const AdjacencyTable::Csr> AdjacencyTable::Install(
    std::unique_ptr<const Csr> next) {
  num_edges_.store(next->num_edges(), std::memory_order_relaxed);
  num_sources_.store(next->num_sources(), std::memory_order_relaxed);
  level_bytes_.store(next->MemoryBytes(), std::memory_order_relaxed);
  compacted_.store(next->varint(), std::memory_order_relaxed);
  csr_.store(next.get(), std::memory_order_release);
  owner_.swap(next);
  return next;
}

size_t AdjacencyTable::MemoryBytes() const {
  // Capacity, not size: the staging buffers (which used to be invisible, so
  // bulk loads under-reported by the whole edge list) and any slack in the
  // level's arrays.
  return staged_src_.capacity() * sizeof(uint32_t) +
         staged_dst_.capacity() * sizeof(VertexId) +
         staged_stamp_.capacity() * sizeof(int64_t) +
         level_bytes_.load(std::memory_order_relaxed);
}

}  // namespace ges

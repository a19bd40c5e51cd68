#include "storage/compressed_segment.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace ges {

namespace {

inline void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

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

inline uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace

void CompressedSegment::Builder::Add(const VertexId* ids,
                                     const int64_t* stamps, uint32_t n) {
  degrees_.push_back(n);
  if (n > 0) {
    // Delta-varint the sorted id list: first id absolute, then the
    // non-negative gaps (zero for parallel edges).
    PutVarint(&blob_, ids[0]);
    for (uint32_t i = 1; i < n; ++i) {
      assert(ids[i] >= ids[i - 1]);
      PutVarint(&blob_, ids[i] - ids[i - 1]);
    }
    if (has_stamp_) {
      // Null suppression: a single mode byte replaces an all-zero stamp
      // column (datasets loaded without edge properties through a
      // has_stamp relation pay one byte per vertex, not eight per edge).
      bool all_zero = true;
      for (uint32_t i = 0; i < n; ++i) {
        if (stamps[i] != 0) {
          all_zero = false;
          break;
        }
      }
      if (all_zero) {
        blob_.push_back(0);
      } else {
        blob_.push_back(1);
        PutVarint(&blob_, ZigZag(stamps[0]));
        for (uint32_t i = 1; i < n; ++i) {
          PutVarint(&blob_, ZigZag(stamps[i] - stamps[i - 1]));
        }
      }
    }
    num_edges_ += n;
    ++num_sources_;
  }
  // Byte offsets are u32: fail loudly rather than let them wrap and
  // corrupt every later lookup.
  if (blob_.size() > std::numeric_limits<uint32_t>::max()) {
    std::fprintf(stderr,
                 "CompressedSegment::Builder: %zu encoded bytes exceed the "
                 "u32 offset range\n",
                 blob_.size());
    std::abort();
  }
  offsets_.push_back(static_cast<uint32_t>(blob_.size()));
}

void CompressedSegment::Builder::AddTail(VertexId v, const VertexId* ids,
                                         const int64_t* stamps, uint32_t n) {
  if (n == 0) return;
  assert(tail_.empty() || tail_.back() < v);
  tail_.push_back(v);
  Add(ids, stamps, n);
}

std::shared_ptr<const CompressedSegment> CompressedSegment::Builder::Build(
    Version cut) {
  auto seg = std::shared_ptr<CompressedSegment>(new CompressedSegment());
  seg->has_stamp_ = has_stamp_;
  seg->cut_ = cut;
  seg->blob_ = std::move(blob_);
  seg->blob_.shrink_to_fit();
  seg->offsets_ = std::move(offsets_);
  seg->offsets_.shrink_to_fit();
  seg->degrees_ = std::move(degrees_);
  seg->degrees_.shrink_to_fit();
  seg->tail_ = std::move(tail_);
  seg->tail_.shrink_to_fit();
  const std::vector<VertexId>& tail = seg->tail_;
  if (!tail.empty()) {
    // About four tail ids per bucket: the directory costs ~1 B per tail
    // vertex.
    const uint64_t span = tail.back() - tail.front();
    while ((span >> seg->tail_shift_) > tail.size() / 4) ++seg->tail_shift_;
    const size_t buckets = (span >> seg->tail_shift_) + 1;
    seg->tail_dir_.resize(buckets + 1);
    size_t p = 0;
    for (size_t b = 0; b <= buckets; ++b) {
      const VertexId start = tail.front() + (VertexId{b} << seg->tail_shift_);
      while (p < tail.size() && tail[p] < start) ++p;
      seg->tail_dir_[b] = static_cast<uint32_t>(p);
    }
  }
  seg->num_edges_ = num_edges_;
  seg->num_sources_ = num_sources_;
  return seg;
}

AdjSpan CompressedSegment::Decode(uint32_t slot, AdjScratch* scratch) const {
  const uint32_t n = DegreeAt(slot);
  if (n == 0) return AdjSpan{};
  if (scratch == nullptr) {
    // Every production read path threads an AdjScratch; reaching a decode
    // without one means a call site was missed — fail loudly rather than
    // silently dropping edges.
    std::fprintf(stderr,
                 "CompressedSegment::Decode: null scratch on compacted "
                 "relation (slot %u)\n",
                 slot);
    std::abort();
  }
  const uint8_t* p = blob_.data() + offsets_[slot];
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
  assert(p <= blob_.data() + offsets_[slot + 1]);
  return AdjSpan{scratch->ids.data(), stamps, n};
}

}  // namespace ges

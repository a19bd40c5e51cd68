// Bump-pointer memory pool used by the copy-on-write version manager.
//
// The paper (Section 5, "Concurrency Control") pairs the copy-on-write
// strategy with a memory pool so that frequent snapshot allocation does not
// hit the OS allocator. Arena hands out aligned chunks from large slabs and
// releases everything at once.
#ifndef GES_COMMON_ARENA_H_
#define GES_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/memory_budget.h"

namespace ges {

class Arena {
 public:
  // `slab_bytes` is the granularity of allocations requested from the OS.
  explicit Arena(size_t slab_bytes = 1 << 20);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `bytes` of storage aligned to `align` (power of two). Never
  // returns nullptr; allocation failure aborts.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t));

  template <typename T>
  T* AllocateArray(size_t n) {
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  // Releases all slabs. Invalidates every pointer previously returned.
  void Reset();

  size_t bytes_allocated() const { return bytes_allocated_; }
  size_t bytes_reserved() const { return bytes_reserved_; }

  // Attaches a per-query MemoryBudget charged on slab growth (resource
  // governor, DESIGN.md §15). Only growth after the attach is charged;
  // Reset(), destruction, or SetBudget(nullptr) return the charged bytes.
  // The budget must stay alive until one of those happens — so only
  // query-scoped arenas may be attached, never the long-lived per-worker
  // scratch arenas the scheduler reuses across queries.
  void SetBudget(MemoryBudget* budget);

 private:
  void AddSlab(size_t min_bytes);

  const size_t slab_bytes_;
  std::vector<std::unique_ptr<uint8_t[]>> slabs_;
  uint8_t* cursor_ = nullptr;
  uint8_t* limit_ = nullptr;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
  MemoryBudget* budget_ = nullptr;
  size_t budget_charged_ = 0;
};

// Minimal STL-compatible allocator over an Arena: allocation bumps the
// arena cursor, deallocation is a no-op (the arena frees in bulk on
// Reset). Used for per-worker scratch containers on operator hot paths —
// repeated clear()/refill cycles then never touch the global allocator.
// Containers using it must not outlive the arena's next Reset.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) { return arena_->AllocateArray<T>(n); }
  void deallocate(T*, size_t) {}

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>& other) const {
    return arena_ != other.arena();
  }

 private:
  Arena* arena_;
};

}  // namespace ges

#endif  // GES_COMMON_ARENA_H_

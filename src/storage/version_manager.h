// Multi-Version Two-Phase Locking (MV2PL) concurrency control.
//
// Following Section 5 of the paper: write queries declare their write sets
// in advance and are coordinated with classical MV2PL; versions are kept at
// coarse vertex granularity; a write creates new copy-on-write snapshots of
// the vertices it modifies; reads are non-blocking against a version
// counter. Base storage (bulk-loaded adjacency arrays and property columns)
// is immutable after load; every post-load mutation is published as an
// immutable overlay entry stamped with its commit version, so readers never
// observe torn state.
//
// Garbage collection (DESIGN.md §11): the `prev` chains grow without bound
// under sustained updates, so readers register the snapshots they hold in a
// SnapshotRegistry via RAII SnapshotHandles. The oldest registered snapshot
// (or the current version, when none is registered) is the *watermark*:
// every chain entry older than the newest entry at-or-below the watermark
// is invisible to all live and future readers and is reclaimed by
// Prune(watermark). Readers that walk chains without holding a handle are
// only safe against concurrent pruning at the current version.
#ifndef GES_STORAGE_VERSION_MANAGER_H_
#define GES_STORAGE_VERSION_MANAGER_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "common/value.h"

namespace ges {

class SnapshotRegistry;

// RAII registration of one live reader snapshot. While a handle for version
// V exists, the GC watermark cannot pass V, so every chain entry a reader
// at V can resolve stays alive. Move-only; releasing (or destroying) the
// handle lets the watermark advance.
class SnapshotHandle {
 public:
  SnapshotHandle() = default;
  SnapshotHandle(SnapshotHandle&& other) noexcept
      : registry_(other.registry_), version_(other.version_) {
    other.registry_ = nullptr;
  }
  SnapshotHandle& operator=(SnapshotHandle&& other) noexcept {
    if (this != &other) {
      Release();
      registry_ = other.registry_;
      version_ = other.version_;
      other.registry_ = nullptr;
    }
    return *this;
  }
  ~SnapshotHandle() { Release(); }
  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;

  bool valid() const { return registry_ != nullptr; }
  Version version() const { return version_; }
  void Release();

 private:
  friend class SnapshotRegistry;
  SnapshotHandle(SnapshotRegistry* registry, Version version)
      : registry_(registry), version_(version) {}

  SnapshotRegistry* registry_ = nullptr;
  Version version_ = 0;
};

// Tracks every live reader snapshot (query contexts, pinned service
// sessions, checkpoint readers) and exposes the oldest one as the GC
// watermark. Refcounted per version: many readers may share a snapshot.
class SnapshotRegistry {
 public:
  // Registers a reader at `current`'s present value. The version is loaded
  // under the registry lock, so a concurrent watermark computation either
  // sees this pin or ran against an older current version — either way the
  // watermark never passes the pinned version.
  SnapshotHandle AcquireCurrent(const std::atomic<Version>& current);

  // Registers a reader at exactly `v`. Only safe while the caller already
  // holds protection covering `v`: another handle at version <= v, or the
  // guarantee that no Prune can run concurrently (e.g. v is the current
  // version and commits are excluded).
  SnapshotHandle AcquireAt(Version v);

  // Registers a reader at the GC watermark: min(oldest pin, current).
  // Computed under the registry mutex, so a concurrent Prune either derived
  // its watermark before this pin existed (then that watermark is <= the
  // pinned version and the chain floor at the pin survives as Prune's
  // floor) or it sees the pin. The compactor uses this to fix its merge cut
  // at a version every live and future reader is at or above.
  SnapshotHandle AcquireOldest(const std::atomic<Version>& current);

  // The watermark: the oldest registered snapshot, or `current` when no
  // reader is registered.
  Version OldestActive(Version current) const;

  size_t ActiveCount() const;

 private:
  friend class SnapshotHandle;
  void Release(Version v);

  mutable std::mutex mu_;
  std::map<Version, uint32_t> pins_;  // version -> handle count
};

// What one Prune(watermark) pass reclaimed.
struct PruneStats {
  uint64_t entries = 0;  // chain entries freed
  uint64_t bytes = 0;    // heap bytes those entries held
};

// One copy-on-write snapshot of a vertex's adjacency list within a relation.
// Immutable once published; `prev` keeps older versions alive for readers
// with older snapshots until Prune cuts the chain.
struct AdjOverlayEntry {
  Version version = 0;
  std::vector<VertexId> ids;
  std::vector<int64_t> stamps;
  std::shared_ptr<AdjOverlayEntry> prev;
};

// Iteratively tears down a detached overlay chain. Naive shared_ptr
// teardown recurses once per entry and can overflow the stack on the long
// chains a sustained update workload builds; holders of retired chains
// (the compaction retire list) must free through this.
void UnlinkDetachedChain(std::shared_ptr<AdjOverlayEntry> head);

// One bit per bulk vertex, telling readers whether an overlay may hold an
// entry for it (DESIGN.md §17). A committer sets the bit before it
// publishes the vertex's entry, under the commit mutex; the commit's
// version advance (a release) then orders the bit before every reader
// whose snapshot includes the commit. So a reader that finds the bit clear
// has no visible entry and reads base storage without the overlay's lock or
// hash probe. Sized once when base storage freezes (FinalizeBulk), never
// grown. Clear is for the compaction install only, after the level that
// absorbs the vertex's whole chain is published.
class TouchedBits {
 public:
  void Reset(size_t bits) {
    num_words_ = (bits + 63) / 64;
    words_ = std::make_unique<std::atomic<uint64_t>[]>(num_words_);
  }
  bool Test(size_t i) const {
    return (words_[i >> 6].load(std::memory_order_acquire) >> (i & 63)) & 1;
  }
  void Set(size_t i) {
    words_[i >> 6].fetch_or(uint64_t{1} << (i & 63),
                            std::memory_order_relaxed);
  }
  // Release: a reader that sees the bit clear also sees the level
  // installed before the clear.
  void Clear(size_t i) {
    words_[i >> 6].fetch_and(~(uint64_t{1} << (i & 63)),
                             std::memory_order_release);
  }
  size_t MemoryBytes() const { return num_words_ * sizeof(uint64_t); }

 private:
  std::unique_ptr<std::atomic<uint64_t>[]> words_;
  size_t num_words_ = 0;
};

// Per-relation overlay of versioned adjacency lists.
class AdjOverlay {
 public:
  ~AdjOverlay();

  // True if no vertex of this relation has ever been updated. Vertices no
  // TouchedBits cover (post-bulk ones, and vertices of another label)
  // skip the map probe on it.
  bool empty() const { return count_.load(std::memory_order_acquire) == 0; }

  // Newest entry for `v` visible at `snapshot`, or nullptr (use the
  // relation's level).
  const AdjOverlayEntry* Find(VertexId v, Version snapshot) const;

  // Publishes `entry` as the new head for `v`, linking the old head.
  void Publish(VertexId v, std::shared_ptr<AdjOverlayEntry> entry);

  // Cuts every chain at its newest entry with version <= watermark: that
  // entry is the floor every live reader (all at versions >= watermark) can
  // resolve to, so everything below it is unreachable and freed. Heads
  // whose whole tail is superseded collapse to a single entry. Safe against
  // concurrent Find: links are rewritten under the exclusive lock; the
  // freed tails are destroyed after it drops.
  PruneStats Prune(Version watermark);

  // Compaction collapse (DESIGN.md §16): removes every entry with version
  // <= cut from every chain — unlike Prune, the floors too, because the
  // level built at `cut` replaces them. Readers at snapshots >= cut (the
  // compactor pinned the watermark, so that is all of them) resolve
  // overlay entries in (cut, snapshot] or fall through to the level.
  // Removed chains are appended to `retired` instead of freed: concurrent
  // readers may be mid-walk on them until the watermark passes the install
  // version. The vertices whose whole chain went are appended to `emptied`.
  PruneStats CollapseBelow(
      Version cut, std::vector<std::shared_ptr<AdjOverlayEntry>>* retired,
      std::vector<VertexId>* emptied);

  // Live chain bytes (entries + their ids/stamps vectors + map slots).
  // O(1): maintained at Publish/Prune time.
  size_t MemoryBytes() const;

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<VertexId, std::shared_ptr<AdjOverlayEntry>> heads_;
  std::atomic<size_t> count_{0};
  std::atomic<size_t> bytes_{0};  // heap bytes of all live entries
};

// Versioned property writes for one vertex. Publish coalesces `writes` into
// ascending-PropertyId order with one (the last) write per property, so
// Find can binary-search instead of scanning.
struct PropOverlayEntry {
  Version version = 0;
  std::vector<std::pair<PropertyId, Value>> writes;
  std::shared_ptr<PropOverlayEntry> prev;
};

class PropOverlay {
 public:
  ~PropOverlay();

  bool empty() const { return count_.load(std::memory_order_acquire) == 0; }

  // Looks up `prop` of `v` in versions visible at `snapshot`. Returns true
  // and fills `*out` if an overlay write exists; false means "use base".
  bool Find(VertexId v, PropertyId prop, Version snapshot, Value* out) const;

  void Publish(VertexId v, std::shared_ptr<PropOverlayEntry> entry);

  // Same contract as AdjOverlay::Prune.
  PruneStats Prune(Version watermark);

  size_t MemoryBytes() const;

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<VertexId, std::shared_ptr<PropOverlayEntry>> heads_;
  std::atomic<size_t> count_{0};
  std::atomic<size_t> bytes_{0};
};

// A vertex created after bulk load.
struct NewVertex {
  VertexId id = kInvalidVertex;
  LabelId label = kInvalidLabel;
  Version version = 0;  // creation (commit) version
  int64_t ext_id = 0;
};

// Registry of post-load vertices, with per-label scan lists and external-id
// index overlays.
class NewVertexRegistry {
 public:
  bool empty() const { return count_.load(std::memory_order_acquire) == 0; }

  void Publish(const NewVertex& v);

  // Label of `v` if it is a committed new vertex visible at any version.
  // Returns true and fills `*out` when found.
  bool Find(VertexId v, NewVertex* out) const;

  // Appends all new vertices of `label` visible at `snapshot` to `out`.
  void CollectVisible(LabelId label, Version snapshot,
                      std::vector<VertexId>* out) const;

  bool FindByExtId(LabelId label, int64_t ext_id, Version snapshot,
                   VertexId* out) const;

  size_t CountVisible(LabelId label, Version snapshot) const;

  // Unlike the overlays, registry entries are live data (the vertices
  // exist at every snapshot >= their creation version), so nothing becomes
  // unreachable as the watermark advances. Prune instead returns the
  // growth-slack of the append-only scan lists to the allocator (vectors
  // whose doubling left >= 2x slack are shrunk to fit).
  PruneStats Prune(Version watermark);

  size_t MemoryBytes() const;

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<VertexId, NewVertex> vertices_;
  // label -> creation-ordered list (versions are nondecreasing per label).
  std::unordered_map<LabelId, std::vector<std::pair<Version, VertexId>>>
      by_label_;
  std::unordered_map<uint64_t, std::pair<Version, VertexId>> ext_index_;
  std::atomic<size_t> count_{0};
};

// The version manager: global version counter, striped per-vertex write
// locks for the 2PL half of MV2PL, and the snapshot registry that feeds
// the GC watermark.
class VersionManager {
 public:
  static constexpr size_t kNumStripes = 1024;

  // Snapshot version for a new reader. Non-blocking.
  Version CurrentVersion() const {
    return global_version_.load(std::memory_order_acquire);
  }

  // --- snapshot registry (GC watermark) ---
  // Registers a reader at the current version.
  SnapshotHandle AcquireSnapshot() {
    return snapshots_.AcquireCurrent(global_version_);
  }
  // Registers a reader at exactly `v`; see SnapshotRegistry::AcquireAt for
  // the protection precondition.
  SnapshotHandle AcquireSnapshotAt(Version v) {
    return snapshots_.AcquireAt(v);
  }
  // Registers a reader at the GC watermark (the compaction cut); see
  // SnapshotRegistry::AcquireOldest.
  SnapshotHandle AcquireOldestSnapshot() {
    return snapshots_.AcquireOldest(global_version_);
  }
  // Prune watermark: oldest registered snapshot, or the current version.
  Version OldestActiveSnapshot() const {
    return snapshots_.OldestActive(CurrentVersion());
  }
  const SnapshotRegistry& snapshots() const { return snapshots_; }

  // --- 2PL growing phase: lock a write set. Stripe indices are sorted and
  // deduplicated so concurrent writers cannot deadlock. ---
  std::vector<size_t> LockWriteSet(const std::vector<VertexId>& write_set);
  void UnlockStripes(const std::vector<size_t>& stripes);

  // --- commit protocol ---
  // Serializes the publish phase so the global version only advances after
  // every overlay entry of the committing transaction is visible.
  std::mutex& commit_mutex() { return commit_mu_; }
  Version NextVersionLocked() {
    return global_version_.load(std::memory_order_relaxed) + 1;
  }
  void AdvanceVersionLocked(Version v) {
    global_version_.store(v, std::memory_order_release);
  }

 private:
  std::atomic<Version> global_version_{0};
  std::mutex commit_mu_;
  std::array<std::mutex, kNumStripes> stripe_locks_;
  SnapshotRegistry snapshots_;
};

}  // namespace ges

#endif  // GES_STORAGE_VERSION_MANAGER_H_

#include "storage/version_manager.h"

#include <algorithm>

namespace ges {

namespace {

uint64_t ExtKey(LabelId label, int64_t ext_id) {
  return (uint64_t{label} << 48) ^ static_cast<uint64_t>(ext_id);
}

size_t ValueHeapBytes(const Value& v) {
  return v.type() == ValueType::kString ? v.AsString().capacity() : 0;
}

// Heap footprint of one published entry (the entry node itself plus its
// vector/string payloads). Entries are immutable after publish, so this is
// stable between Publish and Prune and the overlays can keep an O(1) byte
// gauge instead of walking chains.
size_t EntryBytes(const AdjOverlayEntry& e) {
  return sizeof(AdjOverlayEntry) + e.ids.capacity() * sizeof(VertexId) +
         e.stamps.capacity() * sizeof(int64_t);
}

size_t EntryBytes(const PropOverlayEntry& e) {
  size_t bytes = sizeof(PropOverlayEntry) +
                 e.writes.capacity() * sizeof(std::pair<PropertyId, Value>);
  for (const auto& [pid, value] : e.writes) bytes += ValueHeapBytes(value);
  return bytes;
}

// Frees a detached chain tail iteratively. The naive shared_ptr teardown
// recurses once per entry and overflows the stack on the chains a sustained
// update workload builds (millions of entries on one hot vertex).
template <typename Entry>
void UnlinkChain(std::shared_ptr<Entry> tail) {
  while (tail != nullptr) {
    std::shared_ptr<Entry> next = std::move(tail->prev);
    tail = std::move(next);
  }
}

// Cuts one chain at its newest entry <= watermark. Returns the detached
// tail (to be destroyed outside the overlay lock) and accumulates what it
// held into `stats`.
template <typename Entry>
std::shared_ptr<Entry> CutChain(const std::shared_ptr<Entry>& head,
                                Version watermark, PruneStats* stats) {
  Entry* floor = head.get();
  while (floor != nullptr && floor->version > watermark) {
    floor = floor->prev.get();
  }
  if (floor == nullptr || floor->prev == nullptr) return nullptr;
  for (const Entry* dead = floor->prev.get(); dead != nullptr;
       dead = dead->prev.get()) {
    ++stats->entries;
    stats->bytes += EntryBytes(*dead);
  }
  return std::move(floor->prev);  // leaves floor->prev == nullptr
}

}  // namespace

// --- SnapshotRegistry ----------------------------------------------------

void SnapshotHandle::Release() {
  if (registry_ != nullptr) {
    registry_->Release(version_);
    registry_ = nullptr;
  }
}

SnapshotHandle SnapshotRegistry::AcquireCurrent(
    const std::atomic<Version>& current) {
  std::lock_guard<std::mutex> lock(mu_);
  // Loaded under the lock: a concurrent OldestActive either sees this pin
  // or computed its watermark from an older (<=) current version.
  Version v = current.load(std::memory_order_acquire);
  ++pins_[v];
  return SnapshotHandle(this, v);
}

SnapshotHandle SnapshotRegistry::AcquireAt(Version v) {
  std::lock_guard<std::mutex> lock(mu_);
  ++pins_[v];
  return SnapshotHandle(this, v);
}

SnapshotHandle SnapshotRegistry::AcquireOldest(
    const std::atomic<Version>& current) {
  std::lock_guard<std::mutex> lock(mu_);
  Version v = current.load(std::memory_order_acquire);
  if (!pins_.empty()) v = std::min(v, pins_.begin()->first);
  ++pins_[v];
  return SnapshotHandle(this, v);
}

void SnapshotRegistry::Release(Version v) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(v);
  if (it == pins_.end()) return;  // defensive; handles release exactly once
  if (--it->second == 0) pins_.erase(it);
}

Version SnapshotRegistry::OldestActive(Version current) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pins_.empty() ? current : std::min(current, pins_.begin()->first);
}

size_t SnapshotRegistry::ActiveCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [version, count] : pins_) n += count;
  return n;
}

// --- AdjOverlay ----------------------------------------------------------

AdjOverlay::~AdjOverlay() {
  // Detach every chain before the map destructor runs so teardown is
  // iterative regardless of chain length.
  for (auto& [v, head] : heads_) UnlinkChain(std::move(head));
}

const AdjOverlayEntry* AdjOverlay::Find(VertexId v, Version snapshot) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = heads_.find(v);
  if (it == heads_.end()) return nullptr;
  const AdjOverlayEntry* e = it->second.get();
  while (e != nullptr && e->version > snapshot) e = e->prev.get();
  return e;
}

void AdjOverlay::Publish(VertexId v, std::shared_ptr<AdjOverlayEntry> entry) {
  size_t entry_bytes = EntryBytes(*entry);
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = heads_.find(v);
  if (it != heads_.end()) {
    entry->prev = it->second;
    it->second = std::move(entry);
  } else {
    entry_bytes += sizeof(void*) * 4;  // rough map-slot overhead
    heads_.emplace(v, std::move(entry));
  }
  count_.fetch_add(1, std::memory_order_release);
  bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
}

PruneStats AdjOverlay::Prune(Version watermark) {
  PruneStats stats;
  if (empty()) return stats;
  std::vector<std::shared_ptr<AdjOverlayEntry>> cut;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    for (auto& [v, head] : heads_) {
      std::shared_ptr<AdjOverlayEntry> tail =
          CutChain(head, watermark, &stats);
      if (tail != nullptr) cut.push_back(std::move(tail));
    }
    count_.fetch_sub(stats.entries, std::memory_order_release);
    bytes_.fetch_sub(stats.bytes, std::memory_order_relaxed);
  }
  // Destruction happens after the lock drops: readers are never stalled on
  // a large free, and the detached tails are exclusively owned here.
  for (auto& tail : cut) UnlinkChain(std::move(tail));
  return stats;
}

size_t AdjOverlay::MemoryBytes() const {
  return bytes_.load(std::memory_order_relaxed);
}

void UnlinkDetachedChain(std::shared_ptr<AdjOverlayEntry> head) {
  UnlinkChain(std::move(head));
}

PruneStats AdjOverlay::CollapseBelow(
    Version cut, std::vector<std::shared_ptr<AdjOverlayEntry>>* retired,
    std::vector<VertexId>* emptied) {
  PruneStats stats;
  if (empty()) return stats;
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto it = heads_.begin(); it != heads_.end();) {
    // Everything <= cut leaves the chain; the level built at `cut`
    // serves those reads from now on.
    if (it->second->version <= cut) {
      // Whole chain collapses; the map slot goes with it.
      for (const AdjOverlayEntry* e = it->second.get(); e != nullptr;
           e = e->prev.get()) {
        ++stats.entries;
        stats.bytes += EntryBytes(*e);
      }
      stats.bytes += sizeof(void*) * 4;  // map-slot overhead from Publish
      emptied->push_back(it->first);
      retired->push_back(std::move(it->second));
      it = heads_.erase(it);
      continue;
    }
    AdjOverlayEntry* e = it->second.get();
    while (e->prev != nullptr && e->prev->version > cut) e = e->prev.get();
    if (e->prev != nullptr) {
      for (const AdjOverlayEntry* dead = e->prev.get(); dead != nullptr;
           dead = dead->prev.get()) {
        ++stats.entries;
        stats.bytes += EntryBytes(*dead);
      }
      retired->push_back(std::move(e->prev));  // leaves e->prev == nullptr
    }
    ++it;
  }
  count_.fetch_sub(stats.entries, std::memory_order_release);
  bytes_.fetch_sub(stats.bytes, std::memory_order_relaxed);
  return stats;
}

// --- PropOverlay ---------------------------------------------------------

PropOverlay::~PropOverlay() {
  for (auto& [v, head] : heads_) UnlinkChain(std::move(head));
}

bool PropOverlay::Find(VertexId v, PropertyId prop, Version snapshot,
                       Value* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = heads_.find(v);
  if (it == heads_.end()) return false;
  for (const PropOverlayEntry* e = it->second.get(); e != nullptr;
       e = e->prev.get()) {
    if (e->version > snapshot) continue;
    // `writes` was coalesced at publish: sorted by PropertyId, one write
    // per property.
    auto w = std::lower_bound(
        e->writes.begin(), e->writes.end(), prop,
        [](const auto& entry, PropertyId p) { return entry.first < p; });
    if (w != e->writes.end() && w->first == prop) {
      *out = w->second;
      return true;
    }
  }
  return false;
}

void PropOverlay::Publish(VertexId v, std::shared_ptr<PropOverlayEntry> entry) {
  // Coalesce once at publish so every Find can binary-search: stable-sort
  // by property (preserving program order of duplicates), keep the last
  // write per property.
  auto& writes = entry->writes;
  std::stable_sort(writes.begin(), writes.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  size_t out = 0;
  for (size_t i = 0; i < writes.size(); ++i) {
    if (i + 1 < writes.size() && writes[i + 1].first == writes[i].first) {
      continue;  // superseded by a later write of the same property
    }
    if (out != i) writes[out] = std::move(writes[i]);
    ++out;
  }
  writes.resize(out);

  size_t entry_bytes = EntryBytes(*entry);
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = heads_.find(v);
  if (it != heads_.end()) {
    entry->prev = it->second;
    it->second = std::move(entry);
  } else {
    entry_bytes += sizeof(void*) * 4;
    heads_.emplace(v, std::move(entry));
  }
  count_.fetch_add(1, std::memory_order_release);
  bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
}

PruneStats PropOverlay::Prune(Version watermark) {
  PruneStats stats;
  if (empty()) return stats;
  std::vector<std::shared_ptr<PropOverlayEntry>> cut;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    for (auto& [v, head] : heads_) {
      std::shared_ptr<PropOverlayEntry> tail =
          CutChain(head, watermark, &stats);
      if (tail != nullptr) cut.push_back(std::move(tail));
    }
    count_.fetch_sub(stats.entries, std::memory_order_release);
    bytes_.fetch_sub(stats.bytes, std::memory_order_relaxed);
  }
  for (auto& tail : cut) UnlinkChain(std::move(tail));
  return stats;
}

size_t PropOverlay::MemoryBytes() const {
  return bytes_.load(std::memory_order_relaxed);
}

// --- NewVertexRegistry ---------------------------------------------------

void NewVertexRegistry::Publish(const NewVertex& v) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  vertices_[v.id] = v;
  by_label_[v.label].emplace_back(v.version, v.id);
  ext_index_[ExtKey(v.label, v.ext_id)] = {v.version, v.id};
  count_.fetch_add(1, std::memory_order_release);
}

bool NewVertexRegistry::Find(VertexId v, NewVertex* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = vertices_.find(v);
  if (it == vertices_.end()) return false;
  *out = it->second;
  return true;
}

void NewVertexRegistry::CollectVisible(LabelId label, Version snapshot,
                                       std::vector<VertexId>* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_label_.find(label);
  if (it == by_label_.end()) return;
  for (const auto& [version, id] : it->second) {
    if (version > snapshot) break;  // versions are nondecreasing per label
    out->push_back(id);
  }
}

size_t NewVertexRegistry::CountVisible(LabelId label, Version snapshot) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_label_.find(label);
  if (it == by_label_.end()) return 0;
  size_t n = 0;
  for (const auto& [version, id] : it->second) {
    if (version > snapshot) break;
    ++n;
  }
  return n;
}

bool NewVertexRegistry::FindByExtId(LabelId label, int64_t ext_id,
                                    Version snapshot, VertexId* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = ext_index_.find(ExtKey(label, ext_id));
  if (it == ext_index_.end() || it->second.first > snapshot) return false;
  *out = it->second.second;
  return true;
}

PruneStats NewVertexRegistry::Prune(Version /*watermark*/) {
  PruneStats stats;
  if (empty()) return stats;
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& [label, list] : by_label_) {
    if (list.capacity() >= list.size() * 2 && list.capacity() > 16) {
      stats.bytes +=
          (list.capacity() - list.size()) * sizeof(list.front());
      list.shrink_to_fit();
    }
  }
  return stats;
}

size_t NewVertexRegistry::MemoryBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Map-slot overhead approximated the same way as the overlays.
  size_t bytes =
      vertices_.size() * (sizeof(NewVertex) + sizeof(void*) * 4) +
      ext_index_.size() *
          (sizeof(std::pair<Version, VertexId>) + sizeof(void*) * 4);
  for (const auto& [label, list] : by_label_) {
    bytes += sizeof(void*) * 4 + list.capacity() * sizeof(list.front());
  }
  return bytes;
}

// --- VersionManager ------------------------------------------------------

std::vector<size_t> VersionManager::LockWriteSet(
    const std::vector<VertexId>& write_set) {
  std::vector<size_t> stripes;
  stripes.reserve(write_set.size());
  for (VertexId v : write_set) stripes.push_back(v % kNumStripes);
  std::sort(stripes.begin(), stripes.end());
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
  for (size_t s : stripes) stripe_locks_[s].lock();
  return stripes;
}

void VersionManager::UnlockStripes(const std::vector<size_t>& stripes) {
  // Unlock in reverse acquisition order.
  for (auto it = stripes.rbegin(); it != stripes.rend(); ++it) {
    stripe_locks_[*it].unlock();
  }
}

}  // namespace ges

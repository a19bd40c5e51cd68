// The LPG graph store: catalog + adjacency tables + columnar properties +
// MV2PL versioning, behind a unified storage access interface.
//
// Lifecycle: (1) declare schema via catalog() and RegisterRelation(); (2)
// bulk load with AddVertexBulk / SetPropertyBulk / AddEdgeBulk; (3)
// FinalizeBulk() packs adjacency arrays; (4) serve snapshot reads and MV2PL
// write transactions concurrently. Base storage is immutable after
// FinalizeBulk(); all later mutations are copy-on-write overlay versions.
#ifndef GES_STORAGE_GRAPH_H_
#define GES_STORAGE_GRAPH_H_

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/string_dict.h"
#include "common/types.h"
#include "common/value.h"
#include "storage/adjacency.h"
#include "storage/catalog.h"
#include "storage/property_store.h"
#include "storage/version_manager.h"
#include "storage/wal.h"

namespace ges {

class WriteTxn;

// Configuration for a durable graph directory (snapshot.ges + wal.log).
struct DurabilityOptions {
  WalOptions wal;
  // Auto-checkpoint threshold: MaybeCheckpoint() rotates once the WAL
  // exceeds this many bytes.
  uint64_t checkpoint_wal_bytes = 64ull << 20;
  // Override for fault injection; nullptr = FileSystem::Default().
  FileSystem* fs = nullptr;
};

// What Graph::Open found while recovering (for logs and tests).
struct RecoveryInfo {
  Version snapshot_version = 0;   // version stored in the snapshot
  uint64_t replayed_txns = 0;     // committed WAL txns applied
  uint64_t skipped_txns = 0;      // already covered by the snapshot
  uint64_t dangling_records = 0;  // records of an unfinished trailing txn
  uint64_t truncated_bytes = 0;   // torn-tail bytes cut from the WAL
};

// One Graph::PruneVersions() pass: the watermark it ran at and what it
// reclaimed across every overlay structure.
struct GcStats {
  Version watermark = 0;
  uint64_t entries_pruned = 0;
  uint64_t bytes_reclaimed = 0;
};

// Knobs for one Graph::CompactRelations() pass (DESIGN.md §16).
struct CompactionOptions {
  // A relation is compacted when its reclaimable share — its overlay
  // chain bytes — is at least this fraction of its total footprint.
  double trigger_frag_pct = 0.30;
  // Ignore the trigger and compact every non-empty relation (tests,
  // GESSNAP4 load, `force` service admin path).
  bool force = false;
  // When non-empty, only these relations are considered (GESSNAP4 load
  // re-compacts exactly the relations the snapshot manifest lists).
  std::vector<RelationId> only;
};

// What one Graph::CompactRelations() pass did.
struct CompactionStats {
  Version cut = 0;                  // merge cut (the GC watermark)
  uint32_t relations_compacted = 0; // varint levels built and installed
  uint64_t entries_collapsed = 0;   // overlay entries merged away
  uint64_t edges_encoded = 0;       // edges in the new levels
  uint64_t bytes_before = 0;        // footprint of compacted relations
  uint64_t bytes_after = 0;         // same relations post-install (live)
  uint64_t bytes_retired = 0;       // parked until the watermark passes
};

// Everything a new replication subscriber needs to catch up to the primary
// before live WAL frames take over (DESIGN.md §13). Collected atomically
// with the subscriber registration, so snapshot + txns + live feed cover
// every commit exactly once.
struct ReplicationBacklog {
  bool need_snapshot = false;
  std::string snapshot_bytes;   // GESSNAP image when need_snapshot
  Version snapshot_version = 0; // version the snapshot captures
  std::vector<WalTxn> txns;     // committed txns after snapshot/from
  Version live_from = 0;        // live feed covers versions > this
};

// Observer of every commit, invoked under the commit mutex immediately
// after the commit's version is published — callback order is exactly
// commit order. `records` is the transaction's full WAL record list
// (kBeginTx first, kCommitTx last). Must not block and must not call back
// into the graph's write path.
using CommitListener =
    std::function<void(Version, const std::vector<WalRecord>&)>;

class Graph {
 public:
  Graph() = default;
  ~Graph();
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  // --- durability (implemented in durability.cc; DESIGN.md §10) ---
  // True if `dir` holds a snapshot a previous process checkpointed.
  static bool SnapshotExists(const std::string& dir,
                             FileSystem* fs = nullptr);

  // Replaces the durable state of `dir` with the snapshot `image` (the
  // serialized bytes a replica receives at bootstrap): creates `dir`,
  // installs the image atomically like a checkpoint and removes the WAL
  // it supersedes. Graph::Open then recovers the image.
  static Status InstallSnapshot(const std::string& dir,
                                const std::string& image,
                                FileSystem* fs = nullptr);

  // Opens a durable graph directory: loads the latest valid snapshot,
  // replays committed WAL transactions newer than it, truncates any torn
  // tail, and attaches a WAL writer so subsequent commits are logged.
  static Status Open(const std::string& dir, const DurabilityOptions& opts,
                     std::unique_ptr<Graph>* out,
                     RecoveryInfo* info = nullptr);

  // Makes an existing (finalized) in-memory graph durable: creates `dir`,
  // writes an initial checkpoint, and starts a fresh WAL.
  Status EnableDurability(const std::string& dir,
                          const DurabilityOptions& opts);

  // Writes a new snapshot atomically (tmp + fsync + rename + dir fsync)
  // and empties the WAL. Serializes with concurrent commits via the commit
  // mutex and with other checkpoints via its own lock.
  Status Checkpoint();

  // Checkpoints only if the WAL outgrew the configured threshold and no
  // other thread is already checkpointing. Returns OK when nothing to do.
  Status MaybeCheckpoint();
  bool ShouldCheckpoint() const;

  bool durable() const { return wal_ != nullptr; }
  uint64_t WalBytes() const { return wal_ ? wal_->SizeBytes() : 0; }
  const std::string& data_dir() const { return data_dir_; }

  // A WAL append/fsync failure (disk full, EIO) latches the graph
  // read-only: reads keep working, further commits fail fast.
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }
  std::string read_only_reason() const;

  // Restores the global version counter after loading a snapshot that
  // recorded it. Recovery-time only (no concurrent readers or writers).
  void RestoreVersionForRecovery(Version v) {
    version_manager_.AdvanceVersionLocked(v);
  }

  // --- replication (primary side; implemented in durability.cc) ---
  // Installs/clears the commit feed. When a listener is set, every commit
  // builds its WAL records even on a non-durable graph. One listener slot:
  // the log shipper fans out to its subscribers.
  void SetCommitListener(CommitListener listener);
  void ClearCommitListener() { SetCommitListener(nullptr); }

  // Collects the catch-up state for a subscriber that has applied
  // everything up to `from` (0 = nothing), and atomically registers it
  // with the live feed: `on_subscribed` runs under the commit mutex with
  // the current version V, after which the commit listener sees every
  // commit > V while `out` covers everything <= V newer than `from` —
  // no gap, no duplicate. Durable graphs serve the last checkpoint file
  // plus the WAL tail; non-durable graphs serialize a fresh in-memory
  // snapshot (bench/test topologies).
  Status CollectReplicationBacklog(Version from, ReplicationBacklog* out,
                                   const std::function<void(Version)>&
                                       on_subscribed);

  // --- replication (replica side) ---
  // Applies one shipped transaction through the normal write path (so a
  // durable replica logs it to its own WAL and commit versions replicate
  // identically). Rejects version gaps: `tx.commit_version` must be
  // exactly CurrentVersion() + 1.
  Status ApplyReplicatedTxn(const WalTxn& tx);

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  // --- schema / relations (single-threaded, before bulk load) ---
  // Declares edges `src -[edge]-> dst`, creating both the OUT table (keyed
  // by src vertices) and the IN table (keyed by dst vertices). `has_stamp`
  // declares one int64 edge property (e.g. creationDate).
  void RegisterRelation(LabelId src, LabelId edge, LabelId dst,
                        bool has_stamp = false);

  // Resolves the adjacency table for expanding from a `vertex_label` vertex
  // along `edge_label` edges in `dir`, reaching `neighbor_label` vertices.
  RelationId FindRelation(LabelId vertex_label, LabelId edge_label,
                          LabelId neighbor_label, Direction dir) const;

  // All registered relations in registration order (OUT direction only;
  // IN tables are implied).
  struct RelationInfo {
    RelationKey key;
    bool has_stamp;
  };
  std::vector<RelationInfo> Relations() const;

  // Dense RelationId iteration (both directions), used by the statistics
  // builder and the cost model.
  size_t NumRelations() const { return tables_.size(); }
  const RelationKey& RelationKeyOf(RelationId rel) const {
    return tables_[rel].table->key();
  }

  // Rebuilds the catalog-owned GraphStats snapshot (graph_stats.cc) at the
  // current version: degree histograms per relation, NDV/min-max per base
  // property column, vertex counts per label. Returns false when the graph
  // version is unchanged since the last build (no install, no epoch bump).
  // Sampling-bounded; called from the service reaper thread.
  bool RebuildStats();

  // --- bulk load ---
  VertexId AddVertexBulk(LabelId label, int64_t ext_id);
  void SetPropertyBulk(VertexId v, PropertyId prop, const Value& val);
  // Bulk-load fast path for string properties: interns directly into the
  // graph dictionary without boxing a Value.
  void SetPropertyBulkString(VertexId v, PropertyId prop, std::string_view s);
  // Stages an edge into both directions' tables; labels are inferred from
  // the endpoint vertices. The relation must have been registered.
  void AddEdgeBulk(LabelId edge_label, VertexId src, VertexId dst,
                   int64_t stamp = 0);
  void FinalizeBulk();
  bool finalized() const { return finalized_; }

  // --- snapshot reads (non-blocking) ---
  Version CurrentVersion() const { return version_manager_.CurrentVersion(); }

  // --- MVCC garbage collection (DESIGN.md §11) ---
  // Registers a reader at the current version; while the handle lives,
  // PruneVersions() never reclaims a chain entry that reader can resolve.
  // Readers that race PruneVersions() without a handle are only safe at
  // the current version.
  SnapshotHandle PinSnapshot() { return version_manager_.AcquireSnapshot(); }
  // Registers a reader at exactly `v`. Only safe while the caller already
  // holds a handle at version <= v (protected handover), or concurrent
  // pruning is otherwise excluded.
  SnapshotHandle PinSnapshotAt(Version v) {
    return version_manager_.AcquireSnapshotAt(v);
  }
  // The prune watermark: oldest pinned snapshot, or the current version.
  Version OldestActiveSnapshot() const {
    return version_manager_.OldestActiveSnapshot();
  }
  size_t ActiveSnapshots() const {
    return version_manager_.snapshots().ActiveCount();
  }

  // Cuts every overlay version chain at the watermark and frees the
  // unreachable tails. Cheap when nothing is reclaimable; safe against
  // concurrent reads (at pinned or current versions) and commits. Also
  // drains the compaction retire list once the watermark passes a swap.
  GcStats PruneVersions();

  // --- background delta-merge compaction (DESIGN.md §16) ---
  // Merges each chosen relation's level + overlay entries at the GC
  // watermark into a fresh immutable varint level and installs it through
  // the table's pointer under the checkpoint + commit mutexes (the
  // replication backlog's atomic-cut order). Pinned readers stay
  // byte-identical: the cut is at or below every pin, and the replaced
  // level and collapsed chains are parked on the retire list until the
  // watermark passes the install version. One pass at a time; safe
  // against concurrent commits, reads, GC, and checkpoints.
  CompactionStats CompactRelations(const CompactionOptions& opts);

  // Frees retire-list batches whose install version the watermark has
  // passed (no reader can still hold spans into them). Returns bytes
  // freed. Called from PruneVersions; callable directly.
  size_t ReclaimRetired();
  // Recovery-time drain (no concurrent readers exist): frees everything
  // parked regardless of the watermark. Used after a GESSNAP4 load
  // rebuilds compacted levels on a freshly recovered graph.
  size_t ForceReclaimRetiredForRecovery() {
    return ReclaimRetiredBelow(std::numeric_limits<Version>::max());
  }

  // True once `rel`'s level is varint-encoded (a compaction installed it).
  // The factorized executor's lazy-expand path keys off this: decoded
  // spans are scratch-backed and cannot be stored across operator
  // boundaries.
  bool RelationCompacted(RelationId rel) const {
    return tables_[rel].table->compacted();
  }
  size_t CompactedSegments() const {
    size_t n = 0;
    for (const TableEntry& t : tables_) n += t.table->compacted() ? 1 : 0;
    return n;
  }
  // Bytes parked on the retire list (freed-pending-watermark).
  size_t RetiredBytes() const {
    return retired_bytes_.load(std::memory_order_relaxed);
  }

  // Lifetime compaction totals (service stats).
  uint64_t compaction_runs_total() const {
    return compaction_runs_total_.load(std::memory_order_relaxed);
  }
  uint64_t compaction_segments_total() const {
    return compaction_segments_total_.load(std::memory_order_relaxed);
  }
  uint64_t compaction_bytes_reclaimed_total() const {
    return compaction_bytes_reclaimed_total_.load(std::memory_order_relaxed);
  }
  // Set by a compaction swap; consumed by RebuildStats so the reaper's
  // next refresh re-samples degree distributions even though the graph
  // version did not move.
  bool stats_dirty() const {
    return stats_dirty_.load(std::memory_order_acquire);
  }

  // Lifetime totals across PruneVersions() calls (service stats).
  uint64_t versions_pruned_total() const {
    return versions_pruned_total_.load(std::memory_order_relaxed);
  }
  uint64_t gc_bytes_reclaimed_total() const {
    return gc_bytes_reclaimed_total_.load(std::memory_order_relaxed);
  }

  // Live bytes held by MVCC overlay state: adjacency/property version
  // chains plus the new-vertex registry. The GC byte trigger reads this.
  size_t OverlayBytes() const;

  // Adjacency of `v` in relation `rel` as of `snapshot`: its overlay entry,
  // else its list in the relation's level (Resolve). Either yields a sorted
  // span. A varint (compacted) level decodes into `scratch`, so the span is
  // only valid until the scratch is reused; call sites that can observe a
  // compacted relation must pass one (a decode with a null scratch aborts
  // loudly — never-compacted graphs, e.g. most unit-test fixtures, are
  // unaffected).
  AdjSpan Neighbors(RelationId rel, VertexId v, Version snapshot,
                    AdjScratch* scratch = nullptr) const {
    const ListRef r = Resolve(tables_[rel], v, snapshot);
    if (r.entry != nullptr) {
      return AdjSpan{r.entry->ids.data(),
                     r.entry->stamps.empty() ? nullptr
                                             : r.entry->stamps.data(),
                     static_cast<uint32_t>(r.entry->ids.size())};
    }
    return r.level != nullptr ? r.level->NeighborsAt(r.slot, scratch)
                              : AdjSpan{};
  }

  // The table traversing the same edges from the destination side:
  // (src, e, dst, OUT) <-> (dst, e, src, IN). Always present —
  // RegisterRelation creates both directions.
  RelationId ReverseRelation(RelationId rel) const {
    const RelationKey& k = tables_[rel].table->key();
    RelationKey rk{k.dst_label, k.edge_label, k.src_label,
                   k.direction == Direction::kOut ? Direction::kIn
                                                  : Direction::kOut};
    auto it = table_index_.find(rk);
    return it == table_index_.end() ? kInvalidRelation : it->second;
  }

  // Mean out-degree over vertices with out-edges, from the installed
  // level's edge totals. Drives the optimizer's intersection cost model;
  // the (small) overlay delta is deliberately ignored.
  double AvgDegree(RelationId rel) const {
    const AdjacencyTable& t = *tables_[rel].table;
    if (t.num_sources() == 0) return 0.0;
    return static_cast<double>(t.num_edges()) /
           static_cast<double>(t.num_sources());
  }

  // The size of Neighbors(rel, v, snapshot), without decoding.
  uint32_t Degree(RelationId rel, VertexId v, Version snapshot) const {
    const ListRef r = Resolve(tables_[rel], v, snapshot);
    if (r.entry != nullptr) return static_cast<uint32_t>(r.entry->ids.size());
    return r.level != nullptr ? r.level->DegreeAt(r.slot) : 0;
  }

  // `prop` of `v` at `snapshot`. A bulk vertex no commit has written reads
  // its base column without touching the property overlay.
  Value GetProperty(VertexId v, PropertyId prop, Version snapshot) const;
  // The base column of `prop` for bulk vertices of `label`, or nullptr if
  // the label has no such column.
  const ValueVector* BasePropertyColumn(LabelId label, PropertyId prop) const;

  // Batched property gather: appends `prop` of ids[0..n) to `out` (which
  // must already have the property's type). `sel`, when non-null, is a byte
  // mask; deselected rows append the zero placeholder (0 / 0.0 / "") so
  // `out` stays positionally aligned with `ids`. A bulk vertex no commit
  // has written is a typed column copy — no lock, no hash probe, no boxed
  // Value — with the per-label column lookup cached. Dict-encoded string
  // columns copy uint32 codes.
  void GatherProperties(const VertexId* ids, size_t n, const uint8_t* sel,
                        PropertyId prop, Version snapshot,
                        ValueVector* out) const;

  // The per-graph string dictionary backing all base string property
  // columns. Immutable after FinalizeBulk().
  const StringDict& string_dict() const { return string_dict_; }

  LabelId LabelOf(VertexId v, Version snapshot) const;
  // Dense offset of a bulk vertex within its label's property table.
  uint32_t OffsetInLabel(VertexId v) const { return slot_of_[v].offset; }

  VertexId FindByExtId(LabelId label, int64_t ext_id, Version snapshot) const;
  // External id of `v` (the inverse of FindByExtId).
  int64_t ExtIdOf(VertexId v, Version snapshot) const;

  // All vertices with `label` visible at `snapshot` (bulk + committed new).
  void ScanLabel(LabelId label, Version snapshot,
                 std::vector<VertexId>* out) const;
  size_t NumVertices(LabelId label, Version snapshot) const;
  // Bulk-loaded vertices of `label`: the range of their OffsetInLabel.
  size_t NumBulkVertices(LabelId label) const {
    return label < bulk_by_label_.size() ? bulk_by_label_[label].size() : 0;
  }
  size_t NumVerticesTotal() const {
    return next_vertex_id_.load(std::memory_order_acquire);
  }
  size_t bulk_vertex_count() const { return bulk_vertex_count_; }
  size_t NumEdgesTotal() const;

  size_t MemoryBytes() const;
  // Bytes one relation holds: its level and overlay chains. The compaction
  // trigger's denominator.
  size_t RelationMemoryBytes(RelationId rel) const;

  // --- write transactions (MV2PL) ---
  // Locks the write set (growing phase) and returns a transaction handle.
  // `write_set` must contain every existing vertex the transaction will
  // modify; vertices created by the transaction need not be listed.
  std::unique_ptr<WriteTxn> BeginWrite(std::vector<VertexId> write_set);

 private:
  friend class WriteTxn;

  // Latches read-only mode with the failure that caused it (first wins).
  void EnterReadOnly(const Status& cause);

  // Snapshot + WAL rotation with checkpoint_mu_ already held.
  Status CheckpointLocked();

  struct TableEntry {
    std::unique_ptr<AdjacencyTable> table;
    std::unique_ptr<AdjOverlay> overlay;
    // One bit per bulk vertex of the source label, at its label offset.
    TouchedBits touched;
  };

  // True if `v` is a bulk vertex of `t`'s source label: one that `t`'s
  // touched bits cover and whose level slot is its label offset.
  bool CoveredBy(const TableEntry& t, VertexId v) const {
    return v < bulk_vertex_count_ &&
           slot_of_[v].label == t.table->key().src_label;
  }

  // Where `v`'s list in `t` lives at `snapshot` — the one statement of the
  // resolution order, which Neighbors and Degree share (and through
  // Neighbors the commit seed and the compaction merge): touched bit, then
  // overlay entry, then `v`'s slot in the level. A covered vertex probes
  // the overlay only when its bit is set, so an untouched one costs one
  // word load and no lock. A bulk vertex of another label — one a
  // multi-relation Expand passes to every relation — reads empty at once:
  // WriteTxn::AddEdge/RemoveEdge pick the relation from each endpoint's own
  // label (WAL replay and the replica apply path go through them too), so
  // no commit ever gives it an entry here. A post-bulk vertex probes when
  // the overlay is not empty. The level indexes only its source label: a
  // bulk vertex sits at its label offset, a post-bulk vertex in the tail,
  // and a post-bulk one with no list in the level gets kNoSlot, which reads
  // empty. One acquire load of the level, after the bit and the overlay
  // probe: a compaction installs its level before it collapses the chains
  // the level absorbs and clears their bits, so a reader that misses a
  // collapsed entry, or sees a cleared bit, finds the new level. slot_of_
  // is frozen by FinalizeBulk, so this is lock-free up to the probe.
  struct ListRef {
    const AdjOverlayEntry* entry = nullptr;
    const AdjacencyTable::Csr* level = nullptr;
    uint32_t slot = AdjacencyTable::Csr::kNoSlot;
  };
  ListRef Resolve(const TableEntry& t, VertexId v, Version snapshot) const {
    ListRef r;
    const bool bulk = v < bulk_vertex_count_;
    if (bulk && slot_of_[v].label != t.table->key().src_label) return r;
    if (bulk ? t.touched.Test(slot_of_[v].offset) : !t.overlay->empty()) {
      r.entry = t.overlay->Find(v, snapshot);
      if (r.entry != nullptr) return r;
    }
    r.level = t.table->csr();
    if (r.level == nullptr) return r;
    r.slot = bulk ? slot_of_[v].offset : r.level->TailSlot(v);
    return r;
  }

  // One compaction install's replaced level and collapsed chains, parked
  // until the GC watermark passes `install_version` (readers pinned at or
  // below it may still hold AdjSpans into them).
  struct RetiredBatch {
    Version install_version = 0;
    size_t bytes = 0;
    std::unique_ptr<const AdjacencyTable::Csr> level;
    std::vector<std::shared_ptr<AdjOverlayEntry>> chains;
  };
  // Frees the batches `watermark` has passed; returns the bytes freed.
  size_t ReclaimRetiredBelow(Version watermark);

  static uint64_t ExtKey(LabelId label, int64_t ext_id) {
    return (uint64_t{label} << 48) ^ static_cast<uint64_t>(ext_id);
  }

  Catalog catalog_;
  std::vector<TableEntry> tables_;
  std::unordered_map<RelationKey, RelationId, RelationKeyHash> table_index_;

  // Bulk vertex metadata (immutable after FinalizeBulk). A vertex's label
  // and its dense offset within that label sit side by side: every base
  // adjacency and property read needs both, so they cost one cache line.
  struct BulkSlot {
    LabelId label;
    uint32_t offset;
  };
  std::vector<BulkSlot> slot_of_;
  std::vector<int64_t> ext_of_;
  std::vector<std::vector<VertexId>> bulk_by_label_;
  std::vector<std::unique_ptr<PropertyTable>> property_tables_;  // per label
  StringDict string_dict_;
  std::unordered_map<uint64_t, VertexId> ext_index_;
  size_t bulk_vertex_count_ = 0;
  bool finalized_ = false;

  std::atomic<VertexId> next_vertex_id_{0};

  // MVCC state.
  VersionManager version_manager_;
  PropOverlay prop_overlay_;
  // One bit per bulk vertex (by id): set before its first property write
  // publishes. Post-bulk vertices keep the prop_overlay_.empty() check.
  TouchedBits prop_touched_;
  NewVertexRegistry new_vertices_;

  // Durability state (null / empty for purely in-memory graphs).
  std::unique_ptr<WalWriter> wal_;
  DurabilityOptions dur_opts_;
  std::string data_dir_;
  // Version captured by the snapshot file currently on disk; guarded by
  // the commit mutex (writers hold it at every update site).
  Version last_checkpoint_version_ = 0;
  // Commit feed (DESIGN.md §13). The listener itself is guarded by the
  // commit mutex; the flag lets the commit path skip record-building
  // without taking any extra lock when no feed is attached.
  CommitListener commit_listener_;
  std::atomic<bool> has_commit_listener_{false};
  std::atomic<bool> read_only_{false};
  mutable std::mutex read_only_mu_;
  std::string read_only_reason_;
  std::mutex checkpoint_mu_;

  // GC bookkeeping: serializes PruneVersions passes; counters are lifetime
  // totals surfaced through the service stats.
  std::mutex gc_mu_;
  std::atomic<uint64_t> versions_pruned_total_{0};
  std::atomic<uint64_t> gc_bytes_reclaimed_total_{0};

  // Compaction bookkeeping (DESIGN.md §16): one pass at a time; the retire
  // list holds replaced storage until the watermark drains it.
  std::mutex compaction_mu_;
  mutable std::mutex retired_mu_;
  std::vector<RetiredBatch> retired_;
  std::atomic<size_t> retired_bytes_{0};
  std::atomic<uint64_t> compaction_runs_total_{0};
  std::atomic<uint64_t> compaction_segments_total_{0};
  std::atomic<uint64_t> compaction_bytes_reclaimed_total_{0};
  std::atomic<bool> stats_dirty_{false};
};

// A single MV2PL write transaction. Stage operations, then Commit() (or
// Abort()). Staged operations become visible atomically at the commit
// version. Not thread-safe; one thread drives a transaction.
class WriteTxn {
 public:
  ~WriteTxn();
  WriteTxn(const WriteTxn&) = delete;
  WriteTxn& operator=(const WriteTxn&) = delete;

  // Creates a vertex; returns its (provisional) id, usable in subsequent
  // AddEdge/SetProperty calls within this transaction.
  VertexId CreateVertex(LabelId label, int64_t ext_id,
                        std::vector<std::pair<PropertyId, Value>> props);

  Status AddEdge(LabelId edge_label, VertexId src, VertexId dst,
                 int64_t stamp = 0);
  Status RemoveEdge(LabelId edge_label, VertexId src, VertexId dst);
  void SetProperty(VertexId v, PropertyId prop, Value val);

  // Publishes all staged operations. When the graph is durable, the
  // transaction's WAL records are appended before publication and the call
  // returns only after the commit is durable per the fsync policy; a WAL
  // failure latches the graph read-only and fails the commit without
  // publishing. `*commit_version` receives the commit version on success.
  Status Commit(Version* commit_version);
  // Legacy convenience: returns the commit version, or 0 on failure (0 is
  // never a valid commit version).
  Version Commit();
  void Abort();

 private:
  friend class Graph;
  WriteTxn(Graph* graph, std::vector<VertexId> write_set);

  bool InWriteSet(VertexId v) const;

  struct EdgeOp {
    RelationId rel;
    VertexId vertex;
    VertexId neighbor;
    int64_t stamp;
    bool remove;
  };
  struct VertexOp {
    VertexId id;
    LabelId label;
    int64_t ext_id;
  };

  // Synthesizes the WAL records describing this transaction's staged
  // operations (vertices referenced by (label, ext id)).
  std::vector<WalRecord> BuildWalRecords(uint64_t txid) const;

  Graph* graph_;
  std::vector<VertexId> write_set_;
  std::vector<size_t> locked_stripes_;
  std::vector<EdgeOp> edge_ops_;
  std::vector<VertexOp> new_vertices_;
  std::vector<std::pair<VertexId, std::pair<PropertyId, Value>>> prop_ops_;
  bool done_ = false;
};

}  // namespace ges

#endif  // GES_STORAGE_GRAPH_H_

#include "storage/graph.h"

#include <algorithm>
#include <cassert>

namespace ges {

// Out of line for the WalWriter member (joins the interval flusher thread,
// when one is running, before the graph's state goes away).
Graph::~Graph() = default;

std::string Graph::read_only_reason() const {
  std::lock_guard<std::mutex> lock(read_only_mu_);
  return read_only_reason_;
}

void Graph::EnterReadOnly(const Status& cause) {
  {
    std::lock_guard<std::mutex> lock(read_only_mu_);
    if (read_only_.load(std::memory_order_relaxed)) return;
    read_only_reason_ = cause.message();
  }
  read_only_.store(true, std::memory_order_release);
}

void Graph::RegisterRelation(LabelId src, LabelId edge, LabelId dst,
                             bool has_stamp) {
  RelationKey out_key{src, edge, dst, Direction::kOut};
  RelationKey in_key{dst, edge, src, Direction::kIn};
  if (table_index_.count(out_key) != 0) return;
  for (const RelationKey& key : {out_key, in_key}) {
    RelationId id = static_cast<RelationId>(tables_.size());
    tables_.push_back(TableEntry{
        std::make_unique<AdjacencyTable>(key, has_stamp),
        std::make_unique<AdjOverlay>()});
    table_index_.emplace(key, id);
  }
}

RelationId Graph::FindRelation(LabelId vertex_label, LabelId edge_label,
                               LabelId neighbor_label, Direction dir) const {
  RelationKey key{vertex_label, edge_label, neighbor_label, dir};
  auto it = table_index_.find(key);
  return it == table_index_.end() ? kInvalidRelation : it->second;
}

VertexId Graph::AddVertexBulk(LabelId label, int64_t ext_id) {
  assert(!finalized_);
  VertexId id = next_vertex_id_.fetch_add(1, std::memory_order_relaxed);
  if (bulk_by_label_.size() <= label) bulk_by_label_.resize(label + 1);
  if (property_tables_.size() <= label) property_tables_.resize(label + 1);
  if (property_tables_[label] == nullptr) {
    std::vector<ValueType> types;
    for (const auto& [pid, t] : catalog_.LabelProperties(label)) {
      types.push_back(t);
    }
    property_tables_[label] =
        std::make_unique<PropertyTable>(types, &string_dict_);
  }
  // The dense offset within the label addresses both the property row and
  // the adjacency CSRs. It comes from the label's vertex count, not from
  // AppendRow: a table without columns has no rows to count.
  property_tables_[label]->AppendRow();
  slot_of_.push_back(
      BulkSlot{label, static_cast<uint32_t>(bulk_by_label_[label].size())});
  ext_of_.push_back(ext_id);
  bulk_by_label_[label].push_back(id);
  ext_index_[ExtKey(label, ext_id)] = id;
  return id;
}

void Graph::SetPropertyBulk(VertexId v, PropertyId prop, const Value& val) {
  assert(!finalized_);
  const BulkSlot at = slot_of_[v];
  int slot = catalog_.PropertySlot(at.label, prop);
  assert(slot >= 0);
  property_tables_[at.label]->Set(at.offset, slot, val);
}

void Graph::SetPropertyBulkString(VertexId v, PropertyId prop,
                                  std::string_view s) {
  assert(!finalized_);
  const BulkSlot at = slot_of_[v];
  int slot = catalog_.PropertySlot(at.label, prop);
  assert(slot >= 0);
  property_tables_[at.label]->SetString(at.offset, slot, s);
}

void Graph::AddEdgeBulk(LabelId edge_label, VertexId src, VertexId dst,
                        int64_t stamp) {
  assert(!finalized_);
  LabelId sl = slot_of_[src].label;
  LabelId dl = slot_of_[dst].label;
  RelationId out_rel = FindRelation(sl, edge_label, dl, Direction::kOut);
  RelationId in_rel = FindRelation(dl, edge_label, sl, Direction::kIn);
  assert(out_rel != kInvalidRelation && in_rel != kInvalidRelation);
  tables_[out_rel].table->StageEdge(slot_of_[src].offset, dst, stamp);
  tables_[in_rel].table->StageEdge(slot_of_[dst].offset, src, stamp);
}

void Graph::FinalizeBulk() {
  assert(!finalized_);
  bulk_vertex_count_ = next_vertex_id_.load(std::memory_order_relaxed);
  for (TableEntry& t : tables_) {
    const LabelId src = t.table->key().src_label;
    const size_t sources =
        src < bulk_by_label_.size() ? bulk_by_label_[src].size() : 0;
    t.table->Finalize(sources);
    t.touched.Reset(sources);
  }
  prop_touched_.Reset(bulk_vertex_count_);
  finalized_ = true;
}

Value Graph::GetProperty(VertexId v, PropertyId prop, Version snapshot) const {
  const bool bulk = v < bulk_vertex_count_;
  if (bulk ? prop_touched_.Test(v) : !prop_overlay_.empty()) {
    Value out;
    if (prop_overlay_.Find(v, prop, snapshot, &out)) return out;
  }
  if (!bulk) return Value::Null();
  const BulkSlot at = slot_of_[v];
  int slot = catalog_.PropertySlot(at.label, prop);
  if (slot < 0) return Value::Null();
  return property_tables_[at.label]->Get(at.offset, slot);
}

const ValueVector* Graph::BasePropertyColumn(LabelId label,
                                             PropertyId prop) const {
  if (label >= property_tables_.size() || property_tables_[label] == nullptr) {
    return nullptr;
  }
  int slot = catalog_.PropertySlot(label, prop);
  if (slot < 0) return nullptr;
  return &property_tables_[label]->Column(slot);
}

void Graph::GatherProperties(const VertexId* ids, size_t n, const uint8_t* sel,
                             PropertyId prop, Version snapshot,
                             ValueVector* out) const {
  // A fresh string output column adopts the graph dictionary so base-column
  // gathers are uint32 code copies (decays to owned strings only if an
  // out-of-dictionary overlay value shows up).
  if (out->type() == ValueType::kString && !out->dict_encoded() &&
      out->empty()) {
    out->InitDict(&string_dict_);
  }
  // Only a first batch is sized: a column gathered in many batches
  // (FactGetProperty gathers a lazy leaf 1024 ids at a time) then grows
  // geometrically instead of being copied on every call.
  if (out->empty()) out->Reserve(n);
  // A bulk vertex probes the overlay only when its touched bit is set; a
  // post-bulk vertex when the overlay holds anything, resolved per batch.
  const bool post_bulk_overlay = !prop_overlay_.empty();
  // Per-label (column, resolved?) cache so the catalog slot lookup happens
  // once per label instead of once per row.
  std::vector<const ValueVector*> col_cache;
  std::vector<uint8_t> col_resolved;
  for (size_t i = 0; i < n; ++i) {
    if (sel != nullptr && sel[i] == 0) {
      out->AppendZero();
      continue;
    }
    VertexId v = ids[i];
    const bool bulk = v < bulk_vertex_count_;
    if (bulk ? prop_touched_.Test(v) : post_bulk_overlay) {
      Value ov;
      if (prop_overlay_.Find(v, prop, snapshot, &ov)) {
        // Overlay strings were never interned; AppendValue decays the
        // output column to owned strings if needed.
        out->AppendValue(ov);
        continue;
      }
    }
    if (!bulk) {
      // New (post-bulk) vertices keep all properties in the overlay; a miss
      // there means null, same as GetProperty.
      out->AppendZero();
      continue;
    }
    const BulkSlot at = slot_of_[v];
    const LabelId label = at.label;
    if (label >= col_cache.size()) {
      col_cache.resize(label + 1, nullptr);
      col_resolved.resize(label + 1, 0);
    }
    if (!col_resolved[label]) {
      col_resolved[label] = 1;
      col_cache[label] = BasePropertyColumn(label, prop);
    }
    const ValueVector* col = col_cache[label];
    if (col == nullptr) {
      out->AppendZero();
      continue;
    }
    if (col->type() == out->type()) {
      out->AppendFrom(*col, at.offset);
    } else {
      out->AppendValue(col->GetValue(at.offset));
    }
  }
}

LabelId Graph::LabelOf(VertexId v, Version snapshot) const {
  if (v < bulk_vertex_count_) return slot_of_[v].label;
  NewVertex nv;
  if (new_vertices_.Find(v, &nv) && nv.version <= snapshot) return nv.label;
  return kInvalidLabel;
}

VertexId Graph::FindByExtId(LabelId label, int64_t ext_id,
                            Version snapshot) const {
  auto it = ext_index_.find(ExtKey(label, ext_id));
  if (it != ext_index_.end()) return it->second;
  if (!new_vertices_.empty()) {
    VertexId out;
    if (new_vertices_.FindByExtId(label, ext_id, snapshot, &out)) return out;
  }
  return kInvalidVertex;
}

int64_t Graph::ExtIdOf(VertexId v, Version snapshot) const {
  if (v < bulk_vertex_count_) return ext_of_[v];
  NewVertex nv;
  if (new_vertices_.Find(v, &nv) && nv.version <= snapshot) return nv.ext_id;
  return -1;
}

std::vector<Graph::RelationInfo> Graph::Relations() const {
  // Registration order (not hash order), so a snapshot saved after a load
  // lists relations exactly as the file it was loaded from did.
  std::vector<RelationInfo> out;
  for (const TableEntry& t : tables_) {
    const RelationKey& key = t.table->key();
    if (key.direction != Direction::kOut) continue;
    out.push_back(RelationInfo{key, t.table->has_stamp()});
  }
  return out;
}

void Graph::ScanLabel(LabelId label, Version snapshot,
                      std::vector<VertexId>* out) const {
  if (label < bulk_by_label_.size()) {
    const std::vector<VertexId>& bulk = bulk_by_label_[label];
    out->insert(out->end(), bulk.begin(), bulk.end());
  }
  if (!new_vertices_.empty()) {
    new_vertices_.CollectVisible(label, snapshot, out);
  }
}

size_t Graph::NumVertices(LabelId label, Version snapshot) const {
  size_t n = NumBulkVertices(label);
  if (!new_vertices_.empty()) {
    n += new_vertices_.CountVisible(label, snapshot);
  }
  return n;
}

size_t Graph::NumEdgesTotal() const {
  size_t n = 0;
  // Each logical edge is stored twice (OUT + IN); report logical edges.
  for (const TableEntry& t : tables_) n += t.table->num_edges();
  return n / 2;
}

size_t Graph::OverlayBytes() const {
  size_t bytes = prop_overlay_.MemoryBytes() + new_vertices_.MemoryBytes();
  for (const TableEntry& t : tables_) bytes += t.overlay->MemoryBytes();
  return bytes;
}

size_t Graph::MemoryBytes() const {
  size_t bytes = prop_touched_.MemoryBytes();
  for (const TableEntry& t : tables_) {
    bytes += t.table->MemoryBytes() + t.touched.MemoryBytes();
  }
  for (const auto& pt : property_tables_) {
    if (pt != nullptr) bytes += pt->MemoryBytes();
  }
  bytes += slot_of_.capacity() * sizeof(BulkSlot) +
           ext_of_.capacity() * sizeof(int64_t);
  bytes += string_dict_.MemoryBytes();
  // MVCC overlay chains and the new-vertex registry: under sustained
  // update traffic this is where the memory actually is, and the GC
  // trigger compares against this total.
  bytes += OverlayBytes();
  // Storage a compaction swap replaced but the watermark has not yet let
  // go of. Counting it keeps the gauge honest between swap and drain.
  bytes += retired_bytes_.load(std::memory_order_relaxed);
  return bytes;
}

size_t Graph::RelationMemoryBytes(RelationId rel) const {
  const TableEntry& t = tables_[rel];
  return t.table->MemoryBytes() + t.overlay->MemoryBytes();
}

GcStats Graph::PruneVersions() {
  // One pruner at a time: concurrent passes would double-count the stats
  // and fight over the same chains for no benefit.
  std::lock_guard<std::mutex> gc_lock(gc_mu_);
  GcStats stats;
  stats.watermark = OldestActiveSnapshot();
  auto absorb = [&stats](const PruneStats& p) {
    stats.entries_pruned += p.entries;
    stats.bytes_reclaimed += p.bytes;
  };
  for (TableEntry& t : tables_) absorb(t.overlay->Prune(stats.watermark));
  absorb(prop_overlay_.Prune(stats.watermark));
  absorb(new_vertices_.Prune(stats.watermark));
  versions_pruned_total_.fetch_add(stats.entries_pruned,
                                   std::memory_order_relaxed);
  gc_bytes_reclaimed_total_.fetch_add(stats.bytes_reclaimed,
                                      std::memory_order_relaxed);
  // Compaction retire list: batches the watermark has passed are free to
  // go (counted in the compaction totals, not this pass's GcStats).
  ReclaimRetired();
  return stats;
}

CompactionStats Graph::CompactRelations(const CompactionOptions& opts) {
  // One compactor at a time; concurrent passes would fight over the same
  // relations and double-park their storage.
  std::lock_guard<std::mutex> compaction_lock(compaction_mu_);
  CompactionStats stats;
  if (!finalized_) return stats;

  // Fix the merge cut at the GC watermark, pinned so it holds while the
  // merge runs. Every live and future reader is at or above the cut, so a
  // list merged at the cut is exactly what those readers resolve beneath
  // their own overlay entries; concurrent Prune passes (watermark <= cut)
  // never free a chain floor the merge still reads.
  SnapshotHandle pin = version_manager_.AcquireOldestSnapshot();
  const Version cut = pin.version();
  stats.cut = cut;

  AdjScratch scratch;
  for (RelationId rel = 0; rel < tables_.size(); ++rel) {
    TableEntry& t = tables_[rel];
    if (!opts.only.empty() &&
        std::find(opts.only.begin(), opts.only.end(), rel) ==
            opts.only.end()) {
      continue;
    }
    const size_t bytes_before = RelationMemoryBytes(rel);
    if (t.table->num_edges() == 0 && t.overlay->empty() &&
        !t.table->compacted()) {
      continue;  // nothing stored, nothing to merge
    }
    if (!opts.force) {
      // Reclaimable share: the overlay chains the merge will collapse
      // (entries above the cut survive, so this is an upper-bound estimate
      // — fine for a trigger). The level is immutable and holds no slack
      // to reclaim.
      const size_t reclaimable = t.overlay->MemoryBytes();
      if (bytes_before == 0 ||
          static_cast<double>(reclaimable) /
                  static_cast<double>(bytes_before) <
              opts.trigger_frag_pct) {
        continue;
      }
    }

    // Merge phase, lock-free: the level is immutable, and overlay entries
    // <= cut are immutable and pinned. Commits racing this loop publish at
    // versions > cut and are untouched by the collapse below; only this
    // pass installs levels. Edges of a relation hang only off its source
    // label (writes resolve the relation from the vertex's label), so the
    // new level walks just that label: its bulk vertices in offset order,
    // then the post-bulk ones visible at the cut by id. Vertices created
    // later resolve through overlays (their entries are all > cut).
    const LabelId src_label = t.table->key().src_label;
    AdjacencyTable::Csr::Builder builder(t.table->has_stamp());
    if (src_label < bulk_by_label_.size()) {
      for (VertexId v : bulk_by_label_[src_label]) {
        const AdjSpan span = Neighbors(rel, v, cut, &scratch);
        builder.Add(span.ids, span.stamps, span.size);
      }
    }
    std::vector<VertexId> tail;
    new_vertices_.CollectVisible(src_label, cut, &tail);
    std::sort(tail.begin(), tail.end());
    for (VertexId v : tail) {
      const AdjSpan span = Neighbors(rel, v, cut, &scratch);
      builder.AddTail(v, span.ids, span.stamps, span.size);
    }
    std::unique_ptr<const AdjacencyTable::Csr> level = builder.Build();
    stats.edges_encoded += level->num_edges();

    // Install phase: checkpoint mutex before commit mutex — the same atomic
    // cut CollectReplicationBacklog and Checkpoint take, so a bootstrap
    // snapshot or checkpoint never interleaves with a half-installed
    // relation.
    RetiredBatch batch;
    {
      std::lock_guard<std::mutex> ckpt_lock(checkpoint_mu_);
      std::lock_guard<std::mutex> commit_lock(
          version_manager_.commit_mutex());
      batch.install_version = CurrentVersion();
      // Install before collapsing the chains the level absorbs and
      // clearing the bits of the vertices left without one: a lock-free
      // reader that then misses an entry or sees a clear bit is ordered
      // after this store and finds the new level.
      batch.level = t.table->Install(std::move(level));
      std::vector<VertexId> emptied;
      PruneStats collapsed =
          t.overlay->CollapseBelow(cut, &batch.chains, &emptied);
      for (VertexId v : emptied) {
        if (CoveredBy(t, v)) t.touched.Clear(slot_of_[v].offset);
      }
      batch.bytes = batch.level->MemoryBytes() + collapsed.bytes;
      stats.entries_collapsed += collapsed.entries;
    }
    {
      std::lock_guard<std::mutex> retired_lock(retired_mu_);
      retired_bytes_.fetch_add(batch.bytes, std::memory_order_relaxed);
      stats.bytes_retired += batch.bytes;
      retired_.push_back(std::move(batch));
    }

    ++stats.relations_compacted;
    stats.bytes_before += bytes_before;
    stats.bytes_after += RelationMemoryBytes(rel);
  }
  pin.Release();

  if (stats.relations_compacted > 0) {
    // The physical layout (and the degree distributions the planner's
    // histograms sampled) changed without a commit: invalidate cached
    // plans and flag the stats builder to re-sample.
    catalog_.NoteStorageChanged();
    stats_dirty_.store(true, std::memory_order_release);
    compaction_segments_total_.fetch_add(stats.relations_compacted,
                                         std::memory_order_relaxed);
  }
  compaction_runs_total_.fetch_add(1, std::memory_order_relaxed);
  return stats;
}

size_t Graph::ReclaimRetired() {
  return ReclaimRetiredBelow(OldestActiveSnapshot());
}

size_t Graph::ReclaimRetiredBelow(Version watermark) {
  std::vector<RetiredBatch> free_now;
  {
    std::lock_guard<std::mutex> retired_lock(retired_mu_);
    for (size_t i = 0; i < retired_.size();) {
      // Strictly greater: readers pinned at the install version itself may
      // have resolved spans from the old storage just before the swap.
      if (watermark > retired_[i].install_version) {
        free_now.push_back(std::move(retired_[i]));
        retired_[i] = std::move(retired_.back());
        retired_.pop_back();
      } else {
        ++i;
      }
    }
  }
  size_t freed = 0;
  for (RetiredBatch& batch : free_now) {
    for (auto& chain : batch.chains) UnlinkDetachedChain(std::move(chain));
    freed += batch.bytes;
  }
  if (freed > 0) {
    retired_bytes_.fetch_sub(freed, std::memory_order_relaxed);
    compaction_bytes_reclaimed_total_.fetch_add(freed,
                                                std::memory_order_relaxed);
  }
  return freed;
}

std::unique_ptr<WriteTxn> Graph::BeginWrite(std::vector<VertexId> write_set) {
  return std::unique_ptr<WriteTxn>(new WriteTxn(this, std::move(write_set)));
}

WriteTxn::WriteTxn(Graph* graph, std::vector<VertexId> write_set)
    : graph_(graph), write_set_(std::move(write_set)) {
  locked_stripes_ = graph_->version_manager_.LockWriteSet(write_set_);
}

WriteTxn::~WriteTxn() {
  if (!done_) Abort();
}

bool WriteTxn::InWriteSet(VertexId v) const {
  for (VertexId w : write_set_) {
    if (w == v) return true;
  }
  for (const VertexOp& nv : new_vertices_) {
    if (nv.id == v) return true;
  }
  return false;
}

VertexId WriteTxn::CreateVertex(
    LabelId label, int64_t ext_id,
    std::vector<std::pair<PropertyId, Value>> props) {
  VertexId id =
      graph_->next_vertex_id_.fetch_add(1, std::memory_order_acq_rel);
  new_vertices_.push_back(VertexOp{id, label, ext_id});
  for (auto& [pid, val] : props) {
    prop_ops_.emplace_back(id, std::make_pair(pid, std::move(val)));
  }
  return id;
}

Status WriteTxn::AddEdge(LabelId edge_label, VertexId src, VertexId dst,
                         int64_t stamp) {
  if (!InWriteSet(src) || !InWriteSet(dst)) {
    return Status::InvalidArgument("edge endpoint not in declared write set");
  }
  Version snap = graph_->CurrentVersion();
  LabelId sl = graph_->LabelOf(src, snap);
  LabelId dl = graph_->LabelOf(dst, snap);
  // Endpoints created by this transaction are not yet visible; look them up
  // in the staged set.
  for (const VertexOp& nv : new_vertices_) {
    if (nv.id == src) sl = nv.label;
    if (nv.id == dst) dl = nv.label;
  }
  RelationId out_rel =
      graph_->FindRelation(sl, edge_label, dl, Direction::kOut);
  RelationId in_rel = graph_->FindRelation(dl, edge_label, sl, Direction::kIn);
  if (out_rel == kInvalidRelation || in_rel == kInvalidRelation) {
    return Status::NotFound("relation not registered");
  }
  edge_ops_.push_back(EdgeOp{out_rel, src, dst, stamp, false});
  edge_ops_.push_back(EdgeOp{in_rel, dst, src, stamp, false});
  return Status::OK();
}

Status WriteTxn::RemoveEdge(LabelId edge_label, VertexId src, VertexId dst) {
  if (!InWriteSet(src) || !InWriteSet(dst)) {
    return Status::InvalidArgument("edge endpoint not in declared write set");
  }
  Version snap = graph_->CurrentVersion();
  LabelId sl = graph_->LabelOf(src, snap);
  LabelId dl = graph_->LabelOf(dst, snap);
  RelationId out_rel =
      graph_->FindRelation(sl, edge_label, dl, Direction::kOut);
  RelationId in_rel = graph_->FindRelation(dl, edge_label, sl, Direction::kIn);
  if (out_rel == kInvalidRelation || in_rel == kInvalidRelation) {
    return Status::NotFound("relation not registered");
  }
  edge_ops_.push_back(EdgeOp{out_rel, src, dst, 0, true});
  edge_ops_.push_back(EdgeOp{in_rel, dst, src, 0, true});
  return Status::OK();
}

void WriteTxn::SetProperty(VertexId v, PropertyId prop, Value val) {
  prop_ops_.emplace_back(v, std::make_pair(prop, std::move(val)));
}

std::vector<WalRecord> WriteTxn::BuildWalRecords(uint64_t txid) const {
  std::vector<WalRecord> recs;
  recs.reserve(new_vertices_.size() + prop_ops_.size() +
               edge_ops_.size() / 2 + 2);
  WalRecord begin;
  begin.type = WalRecordType::kBeginTx;
  begin.txid = txid;
  recs.push_back(begin);

  // Vertices are identified by (label, external id): VertexIds are not
  // stable across snapshot save/load. Transaction-created vertices are
  // resolved from the staged set (they are not yet visible).
  Version snap = graph_->CurrentVersion();
  auto ident = [&](VertexId v, LabelId* label, int64_t* ext) {
    for (const VertexOp& nv : new_vertices_) {
      if (nv.id == v) {
        *label = nv.label;
        *ext = nv.ext_id;
        return;
      }
    }
    *label = graph_->LabelOf(v, snap);
    *ext = graph_->ExtIdOf(v, snap);
  };

  for (const VertexOp& nv : new_vertices_) {
    WalRecord r;
    r.type = WalRecordType::kInsertVertex;
    r.label = nv.label;
    r.ext_id = nv.ext_id;
    recs.push_back(r);
  }
  // All property writes (of new and existing vertices alike) are logged as
  // SetProperty records; CreateVertex props were staged into prop_ops_.
  for (const auto& [v, pv] : prop_ops_) {
    WalRecord r;
    r.type = WalRecordType::kSetProperty;
    ident(v, &r.label, &r.ext_id);
    r.prop = pv.first;
    r.value = pv.second;
    recs.push_back(r);
  }
  // Each logical edge op was staged as an OUT + IN pair; log the OUT half
  // only (replay re-derives both directions).
  for (const EdgeOp& op : edge_ops_) {
    const RelationKey& key = graph_->tables_[op.rel].table->key();
    if (key.direction != Direction::kOut) continue;
    WalRecord r;
    r.type = op.remove ? WalRecordType::kDeleteTombstone
                       : WalRecordType::kInsertEdge;
    r.edge_label = key.edge_label;
    ident(op.vertex, &r.src_label, &r.src_ext);
    ident(op.neighbor, &r.dst_label, &r.dst_ext);
    r.stamp = op.stamp;
    recs.push_back(r);
  }

  WalRecord commit;
  commit.type = WalRecordType::kCommitTx;
  commit.txid = txid;
  recs.push_back(commit);
  return recs;
}

Version WriteTxn::Commit() {
  Version version = 0;
  Status s = Commit(&version);
  return s.ok() ? version : 0;
}

Status WriteTxn::Commit(Version* commit_version) {
  VersionManager& vm = graph_->version_manager_;
  if (graph_->read_only()) {
    Abort();
    return Status::Error("graph is read-only: " +
                         graph_->read_only_reason());
  }
  const bool durable = graph_->wal_ != nullptr;
  Version version;
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> commit_lock(vm.commit_mutex());
    version = vm.NextVersionLocked();

    // A replication feed needs the WAL records even when the graph itself
    // is not durable (in-memory primaries in benches and tests).
    const bool feed =
        graph_->has_commit_listener_.load(std::memory_order_acquire);
    std::vector<WalRecord> wal_records;
    if (durable || feed) wal_records = BuildWalRecords(version);

    if (durable) {
      // Log before publishing anything: if the append fails (disk full,
      // EIO) the commit is rejected with no in-memory effect and the graph
      // degrades to read-only. Appending under the commit mutex keeps log
      // order identical to commit order.
      Status s = graph_->wal_->AppendTxn(wal_records, &lsn);
      if (!s.ok()) {
        graph_->EnterReadOnly(s);
        vm.UnlockStripes(locked_stripes_);
        done_ = true;
        return s;
      }
    }

    // Copy-on-write adjacency: group edge ops by (relation, vertex), copy
    // the newest list once, apply all ops, publish one new version.
    std::sort(edge_ops_.begin(), edge_ops_.end(),
              [](const EdgeOp& a, const EdgeOp& b) {
                if (a.rel != b.rel) return a.rel < b.rel;
                return a.vertex < b.vertex;
              });
    AdjScratch scratch;
    size_t i = 0;
    while (i < edge_ops_.size()) {
      size_t j = i;
      while (j < edge_ops_.size() && edge_ops_[j].rel == edge_ops_[i].rel &&
             edge_ops_[j].vertex == edge_ops_[i].vertex) {
        ++j;
      }
      const EdgeOp& first = edge_ops_[i];
      Graph::TableEntry& table = graph_->tables_[first.rel];
      const bool has_stamp = table.table->has_stamp();
      auto ver = std::make_shared<AdjOverlayEntry>();
      ver->version = version;
      // Seed with the newest existing list: under the commit mutex every
      // published entry is at or below the current version.
      const AdjSpan seed = graph_->Neighbors(first.rel, first.vertex,
                                             vm.CurrentVersion(), &scratch);
      for (uint32_t k = 0; k < seed.size; ++k) {
        ver->ids.push_back(seed.ids[k]);
        if (has_stamp) ver->stamps.push_back(seed.stamps[k]);
      }
      for (size_t k = i; k < j; ++k) {
        const EdgeOp& op = edge_ops_[k];
        if (op.remove) {
          for (size_t m = 0; m < ver->ids.size(); ++m) {
            if (ver->ids[m] == op.neighbor) {
              ver->ids.erase(ver->ids.begin() + m);
              if (has_stamp) ver->stamps.erase(ver->stamps.begin() + m);
              break;
            }
          }
        } else {
          // Insert at the sorted position: overlay entries keep the same
          // sorted-neighbor invariant as base arrays (storage/intersect.h),
          // with upper-bound placement so parallel edges stay in commit
          // order like Finalize's stable sort.
          auto it = std::upper_bound(ver->ids.begin(), ver->ids.end(),
                                     op.neighbor);
          size_t pos = static_cast<size_t>(it - ver->ids.begin());
          ver->ids.insert(it, op.neighbor);
          if (has_stamp) {
            ver->stamps.insert(ver->stamps.begin() + pos, op.stamp);
          }
        }
      }
      // The touched bit goes up before the entry is published; the version
      // advance below orders both before any reader that can see them.
      if (graph_->CoveredBy(table, first.vertex)) {
        table.touched.Set(graph_->slot_of_[first.vertex].offset);
      }
      table.overlay->Publish(first.vertex, std::move(ver));
      i = j;
    }

    // Property writes: one overlay entry per vertex. Stable so that when a
    // transaction writes the same property twice, program order survives
    // the grouping and PropOverlay::Publish's coalescing keeps the last.
    std::stable_sort(
        prop_ops_.begin(), prop_ops_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    i = 0;
    while (i < prop_ops_.size()) {
      size_t j = i;
      auto ver = std::make_shared<PropOverlayEntry>();
      ver->version = version;
      while (j < prop_ops_.size() && prop_ops_[j].first == prop_ops_[i].first) {
        ver->writes.push_back(prop_ops_[j].second);
        ++j;
      }
      if (prop_ops_[i].first < graph_->bulk_vertex_count_) {
        graph_->prop_touched_.Set(prop_ops_[i].first);
      }
      graph_->prop_overlay_.Publish(prop_ops_[i].first, std::move(ver));
      i = j;
    }

    // New vertices become visible last (their adjacency/properties are
    // already published with the same version, which is still invisible).
    for (const VertexOp& nv : new_vertices_) {
      graph_->new_vertices_.Publish(
          NewVertex{nv.id, nv.label, version, nv.ext_id});
    }

    vm.AdvanceVersionLocked(version);

    // Commit feed: still under the commit mutex, so subscribers observe
    // commits in exactly commit order with no gaps (DESIGN.md §13).
    if (feed && graph_->commit_listener_) {
      graph_->commit_listener_(version, wal_records);
    }
  }
  vm.UnlockStripes(locked_stripes_);
  done_ = true;

  if (durable) {
    // Group commit: block (policy permitting) until the log covers this
    // transaction. The fsync happens outside the commit mutex, so other
    // transactions keep committing while this one waits; one leader fsync
    // releases every waiter it covers. On failure the transaction is
    // already visible in memory but is NOT acknowledged — the graph goes
    // read-only and after a crash the commit may legitimately be absent.
    Status s = graph_->wal_->WaitDurable(lsn);
    if (!s.ok()) {
      graph_->EnterReadOnly(s);
      return s;
    }
  }
  *commit_version = version;
  return Status::OK();
}

void WriteTxn::Abort() {
  graph_->version_manager_.UnlockStripes(locked_stripes_);
  done_ = true;
}

}  // namespace ges

// Durable graph directories: crash recovery (snapshot load + WAL replay),
// checkpointing, and read-only degradation. See DESIGN.md §10.
//
// Directory layout:
//   <dir>/snapshot.ges      latest checkpoint (GESSNAP4, CRC per section)
//   <dir>/snapshot.ges.tmp  in-flight checkpoint (garbage after a crash)
//   <dir>/wal.log           transactions since the snapshot
//
// Recovery protocol (Graph::Open):
//   1. remove a leftover snapshot.ges.tmp (crash before the rename);
//   2. load snapshot.ges, restoring the global version counter to the
//      snapshot version V;
//   3. scan wal.log, stopping at the first torn/corrupt frame, and replay
//      every committed transaction with commit version > V in log order
//      (transactions <= V were already folded into the snapshot by the
//      checkpoint that crashed between its rename and WAL rotation);
//   4. truncate the torn tail, then attach a WalWriter so new commits log.
// Replay itself runs with the WAL detached, so replayed transactions are
// not re-logged; because commit versions are consecutive, replay reproduces
// the pre-crash version numbering.
#include <fstream>
#include <unordered_map>

#include "storage/graph.h"
#include "storage/serialization.h"

namespace ges {

namespace {

constexpr char kSnapshotName[] = "/snapshot.ges";
constexpr char kSnapshotTmpName[] = "/snapshot.ges.tmp";
constexpr char kWalName[] = "/wal.log";

// Makes `image` the snapshot of `dir` atomically: tmp file + fsync +
// rename + directory fsync, so a crash leaves the previous snapshot or
// this one, never a torn file.
Status InstallImage(const std::string& image, FileSystem* fs,
                    const std::string& dir) {
  std::string tmp = dir + kSnapshotTmpName;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    if (!out.flush()) return Status::Error("write failure: " + tmp);
  }
  GES_RETURN_IF_ERROR(fs->SyncFile(tmp));
  GES_RETURN_IF_ERROR(fs->Rename(tmp, dir + kSnapshotName));
  return fs->SyncDir(dir);
}

// Writes a snapshot of `graph` atomically into `dir`. The caller must hold
// the commit mutex (or otherwise exclude concurrent commits) so the
// snapshot version covers everything the WAL rotation is about to discard.
Status WriteSnapshotAtomic(const Graph& graph, FileSystem* fs,
                           const std::string& dir) {
  std::string image;
  GES_RETURN_IF_ERROR(SaveGraph(graph, &image));
  return InstallImage(image, fs, dir);
}

uint64_t IdentKey(LabelId label, int64_t ext) {
  return (uint64_t{label} << 48) ^ static_cast<uint64_t>(ext);
}

// Re-applies one committed WAL transaction through the normal write path.
Status ReplayWalTxn(Graph* graph, const WalTxn& tx) {
  Version snap = graph->CurrentVersion();
  // The write set: every existing vertex the transaction touches.
  // Transaction-created vertices are resolved from the staged set below.
  std::vector<VertexId> write_set;
  auto note = [&](LabelId label, int64_t ext) {
    VertexId v = graph->FindByExtId(label, ext, snap);
    if (v != kInvalidVertex) write_set.push_back(v);
  };
  for (const WalRecord& r : tx.records) {
    switch (r.type) {
      case WalRecordType::kSetProperty:
        note(r.label, r.ext_id);
        break;
      case WalRecordType::kInsertEdge:
      case WalRecordType::kDeleteTombstone:
        note(r.src_label, r.src_ext);
        note(r.dst_label, r.dst_ext);
        break;
      default:
        break;
    }
  }

  std::unique_ptr<WriteTxn> txn = graph->BeginWrite(std::move(write_set));
  std::unordered_map<uint64_t, VertexId> created;
  auto resolve = [&](LabelId label, int64_t ext, VertexId* out) {
    auto it = created.find(IdentKey(label, ext));
    if (it != created.end()) {
      *out = it->second;
      return true;
    }
    VertexId v = graph->FindByExtId(label, ext, snap);
    if (v == kInvalidVertex) return false;
    *out = v;
    return true;
  };
  auto unknown = [&](LabelId label, int64_t ext) {
    return Status::Error("WAL replay: transaction " + std::to_string(tx.txid) +
                         " references unknown vertex (label " +
                         std::to_string(label) + ", ext " +
                         std::to_string(ext) + ")");
  };

  for (const WalRecord& r : tx.records) {
    switch (r.type) {
      case WalRecordType::kInsertVertex:
        created[IdentKey(r.label, r.ext_id)] =
            txn->CreateVertex(r.label, r.ext_id, {});
        break;
      case WalRecordType::kSetProperty: {
        VertexId v;
        if (!resolve(r.label, r.ext_id, &v)) return unknown(r.label, r.ext_id);
        txn->SetProperty(v, r.prop, r.value);
        break;
      }
      case WalRecordType::kInsertEdge:
      case WalRecordType::kDeleteTombstone: {
        VertexId src, dst;
        if (!resolve(r.src_label, r.src_ext, &src)) {
          return unknown(r.src_label, r.src_ext);
        }
        if (!resolve(r.dst_label, r.dst_ext, &dst)) {
          return unknown(r.dst_label, r.dst_ext);
        }
        Status s = r.type == WalRecordType::kInsertEdge
                       ? txn->AddEdge(r.edge_label, src, dst, r.stamp)
                       : txn->RemoveEdge(r.edge_label, src, dst);
        if (!s.ok()) {
          return Status::Error("WAL replay: transaction " +
                               std::to_string(tx.txid) + ": " + s.message());
        }
        break;
      }
      default:
        return Status::Error("WAL replay: unexpected record type");
    }
  }
  Version version = 0;
  GES_RETURN_IF_ERROR(txn->Commit(&version));
  return Status::OK();
}

}  // namespace

bool Graph::SnapshotExists(const std::string& dir, FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  return fs->Exists(dir + kSnapshotName);
}

Status Graph::InstallSnapshot(const std::string& dir, const std::string& image,
                              FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  GES_RETURN_IF_ERROR(fs->CreateDir(dir));
  GES_RETURN_IF_ERROR(InstallImage(image, fs, dir));
  // The image supersedes any log of the directory's previous state.
  return fs->Remove(dir + kWalName);
}

Status Graph::Open(const std::string& dir, const DurabilityOptions& opts,
                   std::unique_ptr<Graph>* out, RecoveryInfo* info) {
  FileSystem* fs = opts.fs != nullptr ? opts.fs : FileSystem::Default();
  RecoveryInfo local;
  if (info == nullptr) info = &local;
  *info = RecoveryInfo{};

  // A leftover tmp file means a crash mid-checkpoint before the rename;
  // the previous snapshot is still the valid one.
  std::string tmp = dir + kSnapshotTmpName;
  if (fs->Exists(tmp)) GES_RETURN_IF_ERROR(fs->Remove(tmp));

  std::string snap_path = dir + kSnapshotName;
  if (!fs->Exists(snap_path)) {
    return Status::NotFound("no snapshot in " + dir);
  }
  auto graph = std::make_unique<Graph>();
  GES_RETURN_IF_ERROR(LoadGraphFile(snap_path, graph.get()));
  Version base = graph->CurrentVersion();
  info->snapshot_version = base;

  std::string wal_path = dir + kWalName;
  WalScanResult scan;
  GES_RETURN_IF_ERROR(ScanWal(wal_path, fs, &scan));
  for (const WalTxn& tx : scan.committed) {
    if (tx.commit_version <= base) {
      // Already folded into the snapshot (crash between a checkpoint's
      // rename and its WAL rotation); replaying would double-apply.
      ++info->skipped_txns;
      continue;
    }
    GES_RETURN_IF_ERROR(ReplayWalTxn(graph.get(), tx));
    ++info->replayed_txns;
  }
  info->dangling_records = scan.dangling_records;
  if (scan.torn_tail) {
    info->truncated_bytes = scan.file_bytes - scan.valid_bytes;
    GES_RETURN_IF_ERROR(fs->Truncate(wal_path, scan.valid_bytes));
  }

  graph->data_dir_ = dir;
  graph->dur_opts_ = opts;
  graph->last_checkpoint_version_ = base;
  GES_RETURN_IF_ERROR(WalWriter::Open(wal_path, opts.wal, fs, &graph->wal_));
  *out = std::move(graph);
  return Status::OK();
}

Status Graph::EnableDurability(const std::string& dir,
                               const DurabilityOptions& opts) {
  if (!finalized_) {
    return Status::InvalidArgument(
        "graph must be finalized before enabling durability");
  }
  if (wal_ != nullptr) {
    return Status::InvalidArgument("durability already enabled");
  }
  FileSystem* fs = opts.fs != nullptr ? opts.fs : FileSystem::Default();
  GES_RETURN_IF_ERROR(fs->CreateDir(dir));
  data_dir_ = dir;
  dur_opts_ = opts;
  {
    std::lock_guard<std::mutex> commit_lock(version_manager_.commit_mutex());
    GES_RETURN_IF_ERROR(WriteSnapshotAtomic(*this, fs, dir));
    last_checkpoint_version_ = CurrentVersion();
  }
  // Any log from a previous incarnation is superseded by the snapshot.
  GES_RETURN_IF_ERROR(fs->Remove(dir + kWalName));
  return WalWriter::Open(dir + kWalName, opts.wal, fs, &wal_);
}

Status Graph::CheckpointLocked() {
  FileSystem* fs =
      dur_opts_.fs != nullptr ? dur_opts_.fs : FileSystem::Default();
  // The commit mutex is held across snapshot + rotation: a transaction
  // committing after the snapshot version but before the rotation would
  // otherwise be dropped from the log without being in the snapshot.
  std::lock_guard<std::mutex> commit_lock(version_manager_.commit_mutex());
  // Register the checkpoint as a reader at the snapshot version so a
  // concurrent GC pass (the service reaper) can never prune a chain entry
  // the serializer is about to walk.
  SnapshotHandle ckpt_pin = version_manager_.AcquireSnapshot();
  GES_RETURN_IF_ERROR(WriteSnapshotAtomic(*this, fs, data_dir_));
  last_checkpoint_version_ = CurrentVersion();
  Status s = wal_->Rotate();
  if (!s.ok()) EnterReadOnly(s);
  return s;
}

Status Graph::Checkpoint() {
  if (wal_ == nullptr) return Status::Error("durability not enabled");
  if (read_only()) {
    return Status::Error("graph is read-only: " + read_only_reason());
  }
  std::lock_guard<std::mutex> ckpt_lock(checkpoint_mu_);
  return CheckpointLocked();
}

bool Graph::ShouldCheckpoint() const {
  return wal_ != nullptr && !read_only() &&
         wal_->SizeBytes() >= dur_opts_.checkpoint_wal_bytes;
}

Status Graph::MaybeCheckpoint() {
  if (!ShouldCheckpoint()) return Status::OK();
  std::unique_lock<std::mutex> ckpt_lock(checkpoint_mu_, std::try_to_lock);
  if (!ckpt_lock.owns_lock()) return Status::OK();  // someone else is on it
  if (!ShouldCheckpoint()) return Status::OK();
  return CheckpointLocked();
}

// --- replication (DESIGN.md §13) -----------------------------------------

void Graph::SetCommitListener(CommitListener listener) {
  // The commit mutex guards the listener slot: no commit can be mid-flight
  // while the feed is attached or detached.
  std::lock_guard<std::mutex> commit_lock(version_manager_.commit_mutex());
  commit_listener_ = std::move(listener);
  has_commit_listener_.store(static_cast<bool>(commit_listener_),
                             std::memory_order_release);
}

Status Graph::CollectReplicationBacklog(
    Version from, ReplicationBacklog* out,
    const std::function<void(Version)>& on_subscribed) {
  *out = ReplicationBacklog{};
  // checkpoint_mu_ freezes the snapshot file + WAL pair (a concurrent
  // checkpoint would rotate the WAL out from under the scan); the commit
  // mutex freezes the version counter so backlog + live feed partition the
  // commit history exactly at `live_from`.
  std::lock_guard<std::mutex> ckpt_lock(checkpoint_mu_);
  std::lock_guard<std::mutex> commit_lock(version_manager_.commit_mutex());
  Version current = CurrentVersion();
  if (wal_ != nullptr) {
    FileSystem* fs =
        dur_opts_.fs != nullptr ? dur_opts_.fs : FileSystem::Default();
    Version floor = from;
    if (from == 0 || from < last_checkpoint_version_) {
      // The WAL only reaches back to the last checkpoint, and a fresh
      // subscriber (from == 0) has no base graph at all — the bulk-loaded
      // data lives only in the snapshot. Bootstrap from the checkpoint
      // file first.
      GES_RETURN_IF_ERROR(fs->ReadFileToString(data_dir_ + kSnapshotName,
                                               &out->snapshot_bytes));
      out->need_snapshot = true;
      out->snapshot_version = last_checkpoint_version_;
      floor = last_checkpoint_version_;
    }
    WalScanResult scan;
    GES_RETURN_IF_ERROR(ScanWal(wal_->path(), fs, &scan));
    for (WalTxn& tx : scan.committed) {
      if (tx.commit_version > floor) out->txns.push_back(std::move(tx));
    }
  } else if (from == 0 || from < current) {
    // In-memory primary (bench/test topologies): serialize a fresh
    // snapshot at the current version; commits are excluded while the
    // commit mutex is held, exactly like a checkpoint.
    GES_RETURN_IF_ERROR(SaveGraph(*this, &out->snapshot_bytes));
    out->need_snapshot = true;
    out->snapshot_version = current;
  }
  out->live_from = current;
  if (on_subscribed) on_subscribed(current);
  return Status::OK();
}

Status Graph::ApplyReplicatedTxn(const WalTxn& tx) {
  Version expect = CurrentVersion() + 1;
  if (tx.commit_version != expect) {
    return Status::Error(
        "replication gap: next commit version is " + std::to_string(expect) +
        " but the shipped transaction carries " +
        std::to_string(tx.commit_version));
  }
  GES_RETURN_IF_ERROR(ReplayWalTxn(this, tx));
  if (CurrentVersion() != tx.commit_version) {
    return Status::Error("replicated transaction " + std::to_string(tx.txid) +
                         " committed at the wrong version");
  }
  return Status::OK();
}

}  // namespace ges

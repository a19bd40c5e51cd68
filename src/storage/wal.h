// Write-ahead log: the durability spine of the storage layer (DESIGN.md
// §10).
//
// On-disk layout: an 8-byte magic ("GESWAL01") followed by CRC32C-framed,
// length-prefixed records:
//
//   [u32 payload_len][u32 crc32c(payload)][payload bytes]
//   payload = [u8 WalRecordType][record fields, little-endian]
//
// A transaction is the consecutive run BeginTx .. CommitTx, appended as a
// single write under the commit mutex (so log order == commit order and
// transactions never interleave). Vertices are identified by
// (label, external id) — runtime VertexIds are not stable across
// snapshot save/load. Recovery applies only transactions whose CommitTx
// frame is intact and whose commit version is newer than the snapshot it
// starts from; a torn tail (crash mid-append) is detected by the length /
// CRC framing and truncated rather than aborting recovery.
//
// All file operations go through the FileSystem / WalFile interface so the
// fault-injection harness (fault_fs.h) can fail, short-write, or delay the
// Nth operation.
#ifndef GES_STORAGE_WAL_H_
#define GES_STORAGE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/value.h"

namespace ges {

// --- pluggable file operations -------------------------------------------

// An append-only file handle (the open WAL segment).
class WalFile {
 public:
  virtual ~WalFile() = default;
  // Appends all of `data`; partial writes are retried internally, so a
  // returned error may still have written a prefix (a torn tail).
  virtual Status Append(const void* data, size_t n) = 0;
  // Flushes written data to stable storage (fsync/fdatasync).
  virtual Status Sync() = 0;
};

// File operations the durability layer needs. The default implementation is
// plain POSIX; FaultFS (fault_fs.h) wraps one to inject failures.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  // Opens `path` for appending, creating it if missing; reports the current
  // size in `*size` so the writer can resume mid-file.
  virtual Status OpenForAppend(const std::string& path,
                               std::unique_ptr<WalFile>* out,
                               uint64_t* size) = 0;
  virtual Status ReadFileToString(const std::string& path,
                                  std::string* out) = 0;
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status Remove(const std::string& path) = 0;
  virtual Status SyncFile(const std::string& path) = 0;
  // Fsyncs the directory entry so renames/creates survive a crash.
  virtual Status SyncDir(const std::string& dir) = 0;
  virtual bool Exists(const std::string& path) = 0;
  virtual Status CreateDir(const std::string& dir) = 0;

  // The process-wide POSIX filesystem.
  static FileSystem* Default();
};

// --- log records ----------------------------------------------------------

enum class WalRecordType : uint8_t {
  kBeginTx = 1,
  kInsertVertex = 2,
  kInsertEdge = 3,
  kDeleteTombstone = 4,  // edge removal
  kSetProperty = 5,
  kCommitTx = 6,
};

// One log record. Fields are a union-by-convention keyed on `type`:
//  * kBeginTx / kCommitTx: txid (== commit version).
//  * kInsertVertex: (label, ext_id).
//  * kSetProperty: (label, ext_id) subject + prop + value.
//  * kInsertEdge / kDeleteTombstone: edge_label + (src_label, src_ext) +
//    (dst_label, dst_ext) + stamp (insert only).
struct WalRecord {
  WalRecordType type = WalRecordType::kBeginTx;
  uint64_t txid = 0;

  LabelId label = kInvalidLabel;
  int64_t ext_id = 0;

  LabelId edge_label = kInvalidLabel;
  LabelId src_label = kInvalidLabel;
  int64_t src_ext = 0;
  LabelId dst_label = kInvalidLabel;
  int64_t dst_ext = 0;
  int64_t stamp = 0;

  PropertyId prop = kInvalidProperty;
  Value value;
};

// Record payload codec (no frame). Decode returns false on malformed input.
std::string EncodeWalRecord(const WalRecord& rec);
bool DecodeWalRecord(std::string_view payload, WalRecord* rec);

// Wraps a payload in the [len][crc][payload] frame.
void AppendWalFrame(std::string* out, const std::string& payload);

// --- writer ---------------------------------------------------------------

enum class FsyncPolicy : uint8_t {
  kAlways = 0,    // group commit: ack only after fsync covers the txn
  kInterval = 1,  // background flusher every interval_ms; bounded loss
  kNever = 2,     // OS decides; no loss bound (tests/bulk loads)
};

struct WalOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kAlways;
  int fsync_interval_ms = 10;
};

const char* FsyncPolicyName(FsyncPolicy p);
// Parses "always" / "interval" / "never"; returns false on anything else.
bool ParseFsyncPolicy(const std::string& s, FsyncPolicy* out);

// Appends framed transactions to the log and makes them durable per the
// fsync policy. AppendTxn callers are already serialized by the storage
// commit mutex; WaitDurable and Rotate are thread-safe against each other
// and against the background flusher.
class WalWriter {
 public:
  // Opens (creating or resuming) the log at `path`. Recovery is expected to
  // have truncated any torn tail first; a file shorter than the magic is
  // re-created.
  static Status Open(const std::string& path, const WalOptions& options,
                     FileSystem* fs, std::unique_ptr<WalWriter>* out);
  ~WalWriter();

  // Appends every frame of one transaction as a single write and returns
  // the log sequence number (byte offset after the transaction) to pass to
  // WaitDurable. After any append error the log is latched failed and all
  // further operations return that error.
  Status AppendTxn(const std::vector<WalRecord>& records, uint64_t* lsn);

  // Blocks until bytes up to `lsn` are durable under FsyncPolicy::kAlways
  // (the first waiter issues one fsync covering every pending committer);
  // returns immediately under kInterval / kNever.
  Status WaitDurable(uint64_t lsn);

  // Empties the log back to a bare header after a successful checkpoint.
  // Pending WaitDurable callers are released first: the snapshot that
  // triggered the rotation already made their transactions durable.
  Status Rotate();

  // Current log size in bytes (header included).
  uint64_t SizeBytes() const {
    return appended_lsn_.load(std::memory_order_acquire);
  }

  // Log prefix known to be on disk (every fsync policy advances it; under
  // kInterval the background flusher does).
  uint64_t DurableLsn() {
    std::lock_guard<std::mutex> lock(sync_mu_);
    return durable_lsn_;
  }

  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, const WalOptions& options, FileSystem* fs);

  // Group commit: returns once bytes up to `lsn` are durable. The first
  // caller becomes the leader and fsyncs everything appended so far
  // outside append_mu_; later callers wait for it.
  Status SyncTo(uint64_t lsn);
  void FlusherLoop();

  const std::string path_;
  const WalOptions options_;
  FileSystem* const fs_;

  std::mutex append_mu_;  // guards file_ appends and rotation
  std::unique_ptr<WalFile> file_;
  std::atomic<uint64_t> appended_lsn_{0};

  // Group-commit state: leader/followers coordinate through sync_mu_.
  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  bool sync_in_progress_ = false;
  uint64_t durable_lsn_ = 0;

  // First I/O error, latched; all subsequent operations fail fast with it.
  std::mutex error_mu_;
  Status io_error_;

  std::thread flusher_;
  std::atomic<bool> stop_flusher_{false};
  std::mutex flusher_mu_;
  std::condition_variable flusher_cv_;
};

// --- recovery-side scan ---------------------------------------------------

// One committed (or trailing uncommitted) transaction reassembled from the
// log.
struct WalTxn {
  uint64_t txid = 0;
  uint64_t commit_version = 0;  // 0 until the CommitTx frame is seen
  bool committed = false;
  std::vector<WalRecord> records;  // body records, Begin/Commit stripped
};

struct WalScanResult {
  std::vector<WalTxn> committed;  // in log (== commit) order
  // Bytes of the valid prefix: magic + every fully-framed record. Recovery
  // truncates the file to this offset.
  uint64_t valid_bytes = 0;
  uint64_t file_bytes = 0;
  bool torn_tail = false;          // valid_bytes < file_bytes
  uint64_t dangling_records = 0;   // records of a trailing uncommitted txn
};

// Parses the log at `path`, stopping at the first bad frame (bad length,
// bad CRC, or truncation). A missing file yields an empty result. Returns
// an error only for a wrong magic or unreadable file — torn tails and
// unfinished transactions are reported in the result, not as errors.
Status ScanWal(const std::string& path, FileSystem* fs, WalScanResult* out);

}  // namespace ges

#endif  // GES_STORAGE_WAL_H_

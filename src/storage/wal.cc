#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/crc32c.h"
#include "common/wire.h"

namespace ges {

namespace {

constexpr char kWalMagic[8] = {'G', 'E', 'S', 'W', 'A', 'L', '0', '1'};
constexpr size_t kMagicSize = 8;
// Sanity bound on one record's payload; anything larger is treated as a
// torn/corrupt frame during the scan.
constexpr uint32_t kMaxPayload = 16u << 20;

std::string ErrnoMessage(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// --- POSIX filesystem ---

class PosixWalFile : public WalFile {
 public:
  explicit PosixWalFile(int fd) : fd_(fd) {}
  ~PosixWalFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const void* data, size_t n) override {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      ssize_t w = ::write(fd_, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::Error(ErrnoMessage("wal append"));
      }
      p += w;
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) {
      return Status::Error(ErrnoMessage("wal fsync"));
    }
    return Status::OK();
  }

 private:
  int fd_;
};

class PosixFileSystem : public FileSystem {
 public:
  Status OpenForAppend(const std::string& path, std::unique_ptr<WalFile>* out,
                       uint64_t* size) override {
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                    0644);
    if (fd < 0) return Status::Error(ErrnoMessage("open " + path));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::Error(ErrnoMessage("fstat " + path));
    }
    *size = static_cast<uint64_t>(st.st_size);
    out->reset(new PosixWalFile(fd));
    return Status::OK();
  }

  Status ReadFileToString(const std::string& path, std::string* out) override {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Status::Error(ErrnoMessage("open " + path));
    out->clear();
    char buf[1 << 16];
    for (;;) {
      ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Status::Error(ErrnoMessage("read " + path));
      }
      if (r == 0) break;
      out->append(buf, static_cast<size_t>(r));
    }
    ::close(fd);
    return Status::OK();
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Status::Error(ErrnoMessage("truncate " + path));
    }
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::Error(ErrnoMessage("rename " + from + " -> " + to));
    }
    return Status::OK();
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::Error(ErrnoMessage("unlink " + path));
    }
    return Status::OK();
  }

  Status SyncFile(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Status::Error(ErrnoMessage("open " + path));
    int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return Status::Error(ErrnoMessage("fsync " + path));
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return Status::Error(ErrnoMessage("open dir " + dir));
    int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return Status::Error(ErrnoMessage("fsync dir " + dir));
    return Status::OK();
  }

  bool Exists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Status CreateDir(const std::string& dir) override {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Error(ErrnoMessage("mkdir " + dir));
    }
    return Status::OK();
  }
};

}  // namespace

FileSystem* FileSystem::Default() {
  static PosixFileSystem fs;
  return &fs;
}

// --- record codec ---

std::string EncodeWalRecord(const WalRecord& rec) {
  WireBuf out;
  out.PutU8(static_cast<uint8_t>(rec.type));
  switch (rec.type) {
    case WalRecordType::kBeginTx:
    case WalRecordType::kCommitTx:
      out.PutU64(rec.txid);
      break;
    case WalRecordType::kInsertVertex:
      out.PutU16(rec.label);
      out.PutI64(rec.ext_id);
      break;
    case WalRecordType::kSetProperty:
      // Strings are always inline: the WAL outlives any dictionary state.
      out.PutU16(rec.label);
      out.PutI64(rec.ext_id);
      out.PutU16(rec.prop);
      PutValue(&out, rec.value);
      break;
    case WalRecordType::kInsertEdge:
    case WalRecordType::kDeleteTombstone:
      out.PutU16(rec.edge_label);
      out.PutU16(rec.src_label);
      out.PutI64(rec.src_ext);
      out.PutU16(rec.dst_label);
      out.PutI64(rec.dst_ext);
      if (rec.type == WalRecordType::kInsertEdge) out.PutI64(rec.stamp);
      break;
  }
  return out.Take();
}

bool DecodeWalRecord(std::string_view payload, WalRecord* rec) {
  WireReader in(payload);
  *rec = WalRecord{};
  rec->type = static_cast<WalRecordType>(in.GetU8());
  switch (rec->type) {
    case WalRecordType::kBeginTx:
    case WalRecordType::kCommitTx:
      rec->txid = in.GetU64();
      break;
    case WalRecordType::kInsertVertex:
      rec->label = in.GetU16();
      rec->ext_id = in.GetI64();
      break;
    case WalRecordType::kSetProperty:
      rec->label = in.GetU16();
      rec->ext_id = in.GetI64();
      rec->prop = in.GetU16();
      rec->value = GetValue(&in);
      break;
    case WalRecordType::kInsertEdge:
    case WalRecordType::kDeleteTombstone:
      rec->edge_label = in.GetU16();
      rec->src_label = in.GetU16();
      rec->src_ext = in.GetI64();
      rec->dst_label = in.GetU16();
      rec->dst_ext = in.GetI64();
      if (rec->type == WalRecordType::kInsertEdge) rec->stamp = in.GetI64();
      break;
    default:
      return false;
  }
  return in.ok() && in.AtEnd();
}

void AppendWalFrame(std::string* out, const std::string& payload) {
  WireBuf header;
  header.PutU32(static_cast<uint32_t>(payload.size()));
  header.PutU32(Crc32c(payload));
  out->append(header.data());
  out->append(payload);
}

const char* FsyncPolicyName(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "?";
}

bool ParseFsyncPolicy(const std::string& s, FsyncPolicy* out) {
  if (s == "always") {
    *out = FsyncPolicy::kAlways;
  } else if (s == "interval") {
    *out = FsyncPolicy::kInterval;
  } else if (s == "never") {
    *out = FsyncPolicy::kNever;
  } else {
    return false;
  }
  return true;
}

// --- writer ---

WalWriter::WalWriter(std::string path, const WalOptions& options,
                     FileSystem* fs)
    : path_(std::move(path)), options_(options), fs_(fs) {}

Status WalWriter::Open(const std::string& path, const WalOptions& options,
                       FileSystem* fs, std::unique_ptr<WalWriter>* out) {
  if (fs == nullptr) fs = FileSystem::Default();
  std::unique_ptr<WalWriter> w(new WalWriter(path, options, fs));
  uint64_t size = 0;
  GES_RETURN_IF_ERROR(fs->OpenForAppend(path, &w->file_, &size));
  if (size < kMagicSize) {
    // Empty or sub-header file: start fresh.
    if (size != 0) {
      GES_RETURN_IF_ERROR(fs->Truncate(path, 0));
      w->file_.reset();
      GES_RETURN_IF_ERROR(fs->OpenForAppend(path, &w->file_, &size));
    }
    GES_RETURN_IF_ERROR(w->file_->Append(kWalMagic, kMagicSize));
    GES_RETURN_IF_ERROR(w->file_->Sync());
    size = kMagicSize;
  }
  w->appended_lsn_.store(size, std::memory_order_release);
  w->durable_lsn_ = size;
  if (options.fsync_policy == FsyncPolicy::kInterval) {
    w->flusher_ = std::thread(&WalWriter::FlusherLoop, w.get());
  }
  *out = std::move(w);
  return Status::OK();
}

WalWriter::~WalWriter() {
  if (flusher_.joinable()) {
    stop_flusher_.store(true, std::memory_order_release);
    flusher_cv_.notify_all();
    flusher_.join();
  }
}

Status WalWriter::AppendTxn(const std::vector<WalRecord>& records,
                            uint64_t* lsn) {
  std::string buf;
  for (const WalRecord& rec : records) {
    AppendWalFrame(&buf, EncodeWalRecord(rec));
  }
  std::lock_guard<std::mutex> lock(append_mu_);
  {
    std::lock_guard<std::mutex> elock(error_mu_);
    if (!io_error_.ok()) return io_error_;
  }
  Status s = file_->Append(buf.data(), buf.size());
  if (!s.ok()) {
    // The file may now hold a torn tail; latch the error so no further
    // append can write past it (recovery will truncate).
    std::lock_guard<std::mutex> elock(error_mu_);
    if (io_error_.ok()) io_error_ = s;
    return s;
  }
  uint64_t end =
      appended_lsn_.fetch_add(buf.size(), std::memory_order_acq_rel) +
      buf.size();
  *lsn = end;
  return Status::OK();
}

Status WalWriter::WaitDurable(uint64_t lsn) {
  {
    std::lock_guard<std::mutex> elock(error_mu_);
    if (!io_error_.ok()) return io_error_;
  }
  if (options_.fsync_policy != FsyncPolicy::kAlways) return Status::OK();
  return SyncTo(lsn);
}

Status WalWriter::SyncTo(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(sync_mu_);
  for (;;) {
    if (durable_lsn_ >= lsn) return Status::OK();
    // Appends only grow the log, so an lsn past its end was issued before a
    // Rotate, whose checkpoint already made it durable. Without this a
    // leader could fsync the fresh file forever chasing the old offset.
    if (lsn > appended_lsn_.load(std::memory_order_acquire)) {
      return Status::OK();
    }
    if (!sync_in_progress_) {
      // Become the group-commit leader: one fsync covers every transaction
      // appended so far, releasing all waiters at or below `target`.
      sync_in_progress_ = true;
      uint64_t target = appended_lsn_.load(std::memory_order_acquire);
      lock.unlock();
      Status s = file_->Sync();
      lock.lock();
      sync_in_progress_ = false;
      if (s.ok()) {
        if (target > durable_lsn_) durable_lsn_ = target;
      } else {
        std::lock_guard<std::mutex> elock(error_mu_);
        if (io_error_.ok()) io_error_ = s;
      }
      sync_cv_.notify_all();
      if (!s.ok()) return s;
    } else {
      sync_cv_.wait(lock);
      std::lock_guard<std::mutex> elock(error_mu_);
      if (!io_error_.ok()) return io_error_;
    }
  }
}

Status WalWriter::Rotate() {
  std::lock_guard<std::mutex> lock(append_mu_);
  std::unique_lock<std::mutex> slock(sync_mu_);
  // Wait out any in-flight group fsync of the old file.
  sync_cv_.wait(slock, [this] { return !sync_in_progress_; });
  {
    std::lock_guard<std::mutex> elock(error_mu_);
    if (!io_error_.ok()) return io_error_;
  }
  // Everything appended so far is covered by the snapshot that drove this
  // rotation (written + fsynced before Rotate is called), so pending
  // WaitDurable callers can be released before the log is emptied.
  durable_lsn_ = appended_lsn_.load(std::memory_order_acquire);
  sync_cv_.notify_all();

  file_.reset();
  Status s = fs_->Truncate(path_, 0);
  uint64_t size = 0;
  if (s.ok()) s = fs_->OpenForAppend(path_, &file_, &size);
  if (s.ok()) s = file_->Append(kWalMagic, kMagicSize);
  if (s.ok()) s = file_->Sync();
  if (!s.ok()) {
    std::lock_guard<std::mutex> elock(error_mu_);
    if (io_error_.ok()) io_error_ = s;
    return s;
  }
  appended_lsn_.store(kMagicSize, std::memory_order_release);
  durable_lsn_ = kMagicSize;
  return Status::OK();
}

void WalWriter::FlusherLoop() {
  std::unique_lock<std::mutex> lock(flusher_mu_);
  while (!stop_flusher_.load(std::memory_order_acquire)) {
    flusher_cv_.wait_for(lock,
                         std::chrono::milliseconds(options_.fsync_interval_ms));
    if (stop_flusher_.load(std::memory_order_acquire)) break;
    lock.unlock();
    bool failed;
    {
      std::lock_guard<std::mutex> elock(error_mu_);
      failed = !io_error_.ok();
    }
    // A group-commit sync like any WaitDurable leader's: the fsync runs
    // outside append_mu_, so commits keep appending during a slow disk
    // flush instead of stalling once per interval.
    if (!failed) (void)SyncTo(appended_lsn_.load(std::memory_order_acquire));
    lock.lock();
  }
}

// --- scan ---

Status ScanWal(const std::string& path, FileSystem* fs, WalScanResult* out) {
  if (fs == nullptr) fs = FileSystem::Default();
  *out = WalScanResult{};
  if (!fs->Exists(path)) return Status::OK();
  std::string data;
  GES_RETURN_IF_ERROR(fs->ReadFileToString(path, &data));
  out->file_bytes = data.size();
  if (data.size() < kMagicSize) {
    // Sub-header file (crash during creation): the whole thing is a torn
    // tail.
    out->valid_bytes = 0;
    out->torn_tail = !data.empty();
    return Status::OK();
  }
  if (std::memcmp(data.data(), kWalMagic, kMagicSize) != 0) {
    return Status::InvalidArgument("not a GES WAL (bad magic): " + path);
  }

  WireReader log(data);
  log.GetBytes(kMagicSize);
  size_t pos = kMagicSize;
  WalTxn open_txn;
  bool in_txn = false;
  for (;;) {
    uint32_t len = log.GetU32();
    uint32_t crc = log.GetU32();
    if (len > kMaxPayload) break;
    std::string_view payload = log.GetBytes(len);
    WalRecord rec;
    if (!log.ok() || Crc32c(payload) != crc ||
        !DecodeWalRecord(payload, &rec)) {
      break;
    }
    pos = data.size() - log.remaining();

    switch (rec.type) {
      case WalRecordType::kBeginTx:
        // A Begin while a transaction is open means the previous one never
        // committed (possible only as a crash artifact); drop it.
        open_txn = WalTxn{};
        open_txn.txid = rec.txid;
        in_txn = true;
        break;
      case WalRecordType::kCommitTx:
        if (in_txn && rec.txid == open_txn.txid) {
          open_txn.commit_version = rec.txid;
          open_txn.committed = true;
          out->committed.push_back(std::move(open_txn));
        }
        open_txn = WalTxn{};
        in_txn = false;
        break;
      default:
        if (in_txn) open_txn.records.push_back(std::move(rec));
        break;
    }
  }
  out->valid_bytes = pos;
  out->torn_tail = pos < data.size();
  if (in_txn) out->dangling_records = open_txn.records.size();
  return Status::OK();
}

}  // namespace ges

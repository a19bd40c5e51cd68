#include "storage/fault_fs.h"

#include <chrono>
#include <thread>

namespace ges {

namespace {

// Wraps the base file handle so appends and syncs are counted and faultable
// like every other operation.
class FaultWalFile : public WalFile {
 public:
  FaultWalFile(FaultFS* owner, std::unique_ptr<WalFile> base)
      : owner_(owner), base_(std::move(base)) {}

  Status Append(const void* data, size_t n) override {
    FaultFS::FaultKind kind;
    if (owner_->NextOp(&kind)) {
      if (kind == FaultFS::FaultKind::kShortWrite) {
        // Half the bytes reach the file before the "crash": a torn tail.
        (void)base_->Append(data, n / 2);
        return Status::Error("injected short write");
      }
      if (kind == FaultFS::FaultKind::kFail) {
        return Status::Error("injected I/O failure (append)");
      }
    }
    return base_->Append(data, n);
  }

  Status Sync() override {
    FaultFS::FaultKind kind;
    if (owner_->NextOp(&kind) && kind != FaultFS::FaultKind::kDelay) {
      return Status::Error("injected I/O failure (fsync)");
    }
    return base_->Sync();
  }

 private:
  FaultFS* const owner_;
  std::unique_ptr<WalFile> base_;
};

}  // namespace

void FaultFS::Arm(int nth, FaultKind kind, int delay_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = true;
  countdown_ = nth;
  kind_ = kind;
  delay_ms_ = delay_ms;
}

bool FaultFS::NextOp(FaultKind* kind) {
  ops_.fetch_add(1, std::memory_order_acq_rel);
  int delay_ms = 0;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (armed_ && --countdown_ <= 0) {
      armed_ = false;
      fire = true;
      *kind = kind_;
      delay_ms = delay_ms_;
    }
  }
  if (!fire) return false;
  fired_.fetch_add(1, std::memory_order_acq_rel);
  if (*kind == FaultKind::kDelay && delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return true;
}

Status FaultFS::OpenForAppend(const std::string& path,
                              std::unique_ptr<WalFile>* out, uint64_t* size) {
  FaultKind kind;
  if (NextOp(&kind) && kind != FaultKind::kDelay) {
    return Status::Error("injected I/O failure (open " + path + ")");
  }
  std::unique_ptr<WalFile> base;
  GES_RETURN_IF_ERROR(base_->OpenForAppend(path, &base, size));
  out->reset(new FaultWalFile(this, std::move(base)));
  return Status::OK();
}

Status FaultFS::ReadFileToString(const std::string& path, std::string* out) {
  FaultKind kind;
  if (NextOp(&kind) && kind != FaultKind::kDelay) {
    return Status::Error("injected I/O failure (read " + path + ")");
  }
  return base_->ReadFileToString(path, out);
}

Status FaultFS::Truncate(const std::string& path, uint64_t size) {
  FaultKind kind;
  if (NextOp(&kind) && kind != FaultKind::kDelay) {
    return Status::Error("injected I/O failure (truncate " + path + ")");
  }
  return base_->Truncate(path, size);
}

Status FaultFS::Rename(const std::string& from, const std::string& to) {
  FaultKind kind;
  if (NextOp(&kind) && kind != FaultKind::kDelay) {
    return Status::Error("injected I/O failure (rename " + from + ")");
  }
  return base_->Rename(from, to);
}

Status FaultFS::Remove(const std::string& path) {
  FaultKind kind;
  if (NextOp(&kind) && kind != FaultKind::kDelay) {
    return Status::Error("injected I/O failure (remove " + path + ")");
  }
  return base_->Remove(path);
}

Status FaultFS::SyncFile(const std::string& path) {
  FaultKind kind;
  if (NextOp(&kind) && kind != FaultKind::kDelay) {
    return Status::Error("injected I/O failure (fsync " + path + ")");
  }
  return base_->SyncFile(path);
}

Status FaultFS::SyncDir(const std::string& dir) {
  FaultKind kind;
  if (NextOp(&kind) && kind != FaultKind::kDelay) {
    return Status::Error("injected I/O failure (fsync dir " + dir + ")");
  }
  return base_->SyncDir(dir);
}

bool FaultFS::Exists(const std::string& path) { return base_->Exists(path); }

Status FaultFS::CreateDir(const std::string& dir) {
  FaultKind kind;
  if (NextOp(&kind) && kind != FaultKind::kDelay) {
    return Status::Error("injected I/O failure (mkdir " + dir + ")");
  }
  return base_->CreateDir(dir);
}

}  // namespace ges

// Fault-injection FileSystem for durability tests (DESIGN.md §10).
//
// FaultFS wraps a base FileSystem and counts every file operation it
// mediates (appends, syncs, truncates, renames, removes, dir syncs). A test
// arms a one-shot fault that fires at the Nth subsequent operation:
//
//   FaultFS fs;
//   fs.Arm(3, FaultFS::FaultKind::kFail);        // 3rd op returns EIO-like
//   fs.Arm(1, FaultFS::FaultKind::kShortWrite);  // next append writes half
//   fs.Arm(2, FaultFS::FaultKind::kDelay, 50);   // 2nd op sleeps 50 ms
//
// kShortWrite only applies to appends (half the bytes land before the
// error, producing a torn tail exactly like a crash mid-write); on other
// operations it degrades to kFail. After firing, the fault disarms and
// subsequent operations pass through.
#ifndef GES_STORAGE_FAULT_FS_H_
#define GES_STORAGE_FAULT_FS_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "storage/wal.h"

namespace ges {

class FaultFS : public FileSystem {
 public:
  enum class FaultKind : uint8_t { kFail, kShortWrite, kDelay };

  explicit FaultFS(FileSystem* base = nullptr)
      : base_(base != nullptr ? base : FileSystem::Default()) {}

  // Arms a one-shot fault at the `nth` next counted operation (1 = the very
  // next one). Replaces any previously armed fault.
  void Arm(int nth, FaultKind kind, int delay_ms = 0);

  // Operations counted since construction (for calibrating Arm offsets).
  uint64_t ops_seen() const { return ops_.load(std::memory_order_acquire); }
  // Faults that have actually fired.
  uint64_t faults_fired() const {
    return fired_.load(std::memory_order_acquire);
  }

  Status OpenForAppend(const std::string& path, std::unique_ptr<WalFile>* out,
                       uint64_t* size) override;
  Status ReadFileToString(const std::string& path, std::string* out) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status SyncFile(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  bool Exists(const std::string& path) override;
  Status CreateDir(const std::string& dir) override;

  // Internal (used by the wrapped file handle): counts one operation and
  // returns true with the fault kind if the armed fault fires now.
  // kShortWrite is reported so append paths can write a prefix first.
  bool NextOp(FaultKind* kind);

 private:
  FileSystem* const base_;
  std::mutex mu_;
  bool armed_ = false;
  int countdown_ = 0;
  FaultKind kind_ = FaultKind::kFail;
  int delay_ms_ = 0;
  std::atomic<uint64_t> ops_{0};
  std::atomic<uint64_t> fired_{0};
};

}  // namespace ges

#endif  // GES_STORAGE_FAULT_FS_H_

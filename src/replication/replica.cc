#include "replication/replica.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "replication/replication_wire.h"
#include "service/protocol.h"
#include "storage/serialization.h"

namespace ges::replication {
namespace {

using service::MsgType;
using service::ReadResult;

int ConnectTo(const std::string& host, uint16_t port, std::string* err) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *err = "socket() failed";
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    *err = "bad primary address: " + host;
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    *err = "connect to " + host + ":" + std::to_string(port) + " failed";
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

void Replica::SetError(const std::string& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  if (last_error_.empty()) last_error_ = msg;
}

std::string Replica::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

void Replica::CloseSocket() {
  std::lock_guard<std::mutex> lock(fd_mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Replica::ConnectAndSubscribe(Version from, bool* sends_snapshot,
                                    Version* live_from) {
  std::string err;
  int fd = ConnectTo(opts_.primary_host, opts_.primary_port, &err);
  if (fd < 0) return Status::Error(err);
  {
    std::lock_guard<std::mutex> lock(fd_mu_);
    fd_ = fd;
  }
  if (!service::WriteFrame(fd_, EncodeSubscribe(from, opts_.name))) {
    CloseSocket();
    return Status::Error("failed to send subscribe request");
  }
  std::string payload;
  if (service::ReadFrame(fd_, &payload) != ReadResult::kOk) {
    CloseSocket();
    return Status::Error("primary closed the connection during subscribe");
  }
  WireReader in(payload);
  uint8_t type = in.GetU8();
  if (type == static_cast<uint8_t>(MsgType::kError)) {
    in.GetU8();  // wire status
    std::string msg = in.GetString();
    CloseSocket();
    return Status::Error("primary refused subscription: " + msg);
  }
  if (type != static_cast<uint8_t>(MsgType::kSubscribeOk)) {
    CloseSocket();
    return Status::Error("unexpected frame during subscribe handshake");
  }
  *live_from = in.GetU64();
  *sends_snapshot = in.GetU8() != 0;
  if (!in.ok()) {
    CloseSocket();
    return Status::Error("malformed subscribe-ok frame");
  }
  return Status::OK();
}

Status Replica::Bootstrap() {
  Version from = 0;
  if (!opts_.data_dir.empty() &&
      Graph::SnapshotExists(opts_.data_dir, opts_.dur.fs)) {
    // Durable replica restart: recover locally first, then ask the
    // primary only for what we're missing.
    GES_RETURN_IF_ERROR(Graph::Open(opts_.data_dir, opts_.dur, &graph_));
    from = graph_->CurrentVersion();
  }

  bool sends_snapshot = false;
  Version live_from = 0;
  GES_RETURN_IF_ERROR(ConnectAndSubscribe(from, &sends_snapshot, &live_from));
  primary_version_.store(live_from, std::memory_order_release);

  if (sends_snapshot) {
    // Receive the checkpoint image: kSnapshotBegin + chunks + kSnapshotEnd.
    std::string payload;
    if (service::ReadFrame(fd_, &payload) != ReadResult::kOk) {
      return Status::Error("stream ended before snapshot header");
    }
    WireReader hdr(payload);
    if (hdr.GetU8() != static_cast<uint8_t>(MsgType::kSnapshotBegin)) {
      return Status::Error("expected snapshot header");
    }
    Version snap_version = hdr.GetU64();
    uint64_t total = hdr.GetU64();
    if (!hdr.ok()) return Status::Error("malformed snapshot header");

    std::string image;
    image.reserve(total);
    for (;;) {
      if (service::ReadFrame(fd_, &payload) != ReadResult::kOk) {
        return Status::Error("stream ended mid-snapshot");
      }
      WireReader in(payload);
      uint8_t type = in.GetU8();
      if (type == static_cast<uint8_t>(MsgType::kSnapshotEnd)) break;
      if (type != static_cast<uint8_t>(MsgType::kSnapshotChunk)) {
        return Status::Error("unexpected frame inside snapshot transfer");
      }
      image += in.GetString();
      if (!in.ok()) return Status::Error("malformed snapshot chunk");
      if (image.size() > total) {
        return Status::Error("snapshot transfer overran announced size");
      }
    }
    if (image.size() != total) {
      return Status::Error("snapshot transfer truncated: got " +
                           std::to_string(image.size()) + " of " +
                           std::to_string(total) + " bytes");
    }

    if (opts_.data_dir.empty()) {
      // In-memory replica: load straight from the wire image.
      graph_ = std::make_unique<Graph>();
      GES_RETURN_IF_ERROR(LoadGraph(image, graph_.get()));
    } else {
      // Durable replica whose local state is behind the primary's oldest
      // retained WAL: replace the directory with the shipped checkpoint
      // and re-open. (Bootstrap-time only; a mid-stream reconnect never
      // accepts a snapshot — see StreamLoop.)
      graph_.reset();
      GES_RETURN_IF_ERROR(
          Graph::InstallSnapshot(opts_.data_dir, image, opts_.dur.fs));
      GES_RETURN_IF_ERROR(Graph::Open(opts_.data_dir, opts_.dur, &graph_));
    }
    if (graph_->CurrentVersion() != snap_version) {
      return Status::Error("bootstrap snapshot loaded at version " +
                           std::to_string(graph_->CurrentVersion()) +
                           " but the primary announced " +
                           std::to_string(snap_version));
    }
  } else if (graph_ == nullptr) {
    // Defensive: the primary always ships a snapshot to a from=0
    // subscriber (CollectReplicationBacklog), so this cannot happen with
    // a well-behaved primary.
    return Status::Error("primary sent no snapshot for a fresh replica");
  }

  applied_.store(graph_->CurrentVersion(), std::memory_order_release);
  return Status::OK();
}

Status Replica::Start() {
  Status s = Bootstrap();
  if (!s.ok()) {
    CloseSocket();
    return s;
  }
  connected_.store(true, std::memory_order_release);
  applier_ = std::thread([this] { ApplierLoop(); });
  return Status::OK();
}

bool Replica::StreamLoop() {
  std::string payload;
  for (;;) {
    ReadResult r = service::ReadFrame(fd_, &payload);
    if (r != ReadResult::kOk) {
      return !stop_.load(std::memory_order_acquire);  // retryable unless stopping
    }
    WireReader in(payload);
    uint8_t type = in.GetU8();
    if (type == static_cast<uint8_t>(MsgType::kWalFrame)) {
      WalTxn tx;
      if (!DecodeWalFrame(&in, &tx)) {
        SetError("malformed WAL frame from primary");
        return false;
      }
      if (tx.commit_version <= applied_.load(std::memory_order_relaxed)) {
        continue;  // duplicate from a catch-up overlap; already applied
      }
      Status s = graph_->ApplyReplicatedTxn(tx);
      if (!s.ok()) {
        SetError(s.message());
        return false;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        applied_.store(tx.commit_version, std::memory_order_release);
      }
      applied_cv_.notify_all();
      if (graph_->durable()) (void)graph_->MaybeCheckpoint();
      if (!service::WriteFrame(fd_, EncodeAck(tx.commit_version))) {
        return !stop_.load(std::memory_order_acquire);
      }
    } else if (type == static_cast<uint8_t>(MsgType::kWalHeartbeat)) {
      Version v = in.GetU64();
      if (in.ok()) {
        primary_version_.store(v, std::memory_order_release);
      }
      // Ack the heartbeat too so the primary's last-ack age stays fresh
      // even on an idle stream.
      if (!service::WriteFrame(
              fd_, EncodeAck(applied_.load(std::memory_order_relaxed)))) {
        return !stop_.load(std::memory_order_acquire);
      }
    } else {
      SetError("unexpected frame type " + std::to_string(type) +
               " on replication stream");
      return false;
    }
  }
}

void Replica::ApplierLoop() {
  int attempts_left = opts_.reconnect_attempts;
  for (;;) {
    bool retryable = StreamLoop();
    CloseSocket();
    connected_.store(false, std::memory_order_release);
    if (!retryable || stop_.load(std::memory_order_acquire)) break;

    bool reconnected = false;
    while (attempts_left > 0 && !stop_.load(std::memory_order_acquire)) {
      --attempts_left;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts_.reconnect_backoff_ms));
      bool sends_snapshot = false;
      Version live_from = 0;
      Status s = ConnectAndSubscribe(
          applied_.load(std::memory_order_acquire), &sends_snapshot,
          &live_from);
      if (!s.ok()) continue;
      if (sends_snapshot) {
        // The primary checkpointed past our position and can no longer
        // serve a WAL-only catch-up. Re-bootstrapping mid-stream would
        // yank the graph out from under readers, so give up instead.
        SetError(
            "primary requires a snapshot to resume; replica needs a "
            "fresh bootstrap");
        CloseSocket();
        reconnected = false;
        break;
      }
      primary_version_.store(live_from, std::memory_order_release);
      connected_.store(true, std::memory_order_release);
      reconnected = true;
      break;
    }
    if (!reconnected) {
      if (attempts_left <= 0 && opts_.reconnect_attempts > 0) {
        SetError("gave up reconnecting to the primary");
      } else if (opts_.reconnect_attempts == 0) {
        SetError("replication stream ended");
      }
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stream_done_ = true;
  }
  applied_cv_.notify_all();
}

bool Replica::WaitForVersion(Version v, double timeout_s) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::duration<double>(timeout_s));
  std::unique_lock<std::mutex> lock(mu_);
  applied_cv_.wait_until(lock, deadline, [&] {
    return applied_.load(std::memory_order_acquire) >= v || stream_done_;
  });
  return applied_.load(std::memory_order_acquire) >= v;
}

void Replica::Stop() {
  if (stop_.exchange(true)) {
    if (applier_.joinable()) applier_.join();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(fd_mu_);
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }
  if (applier_.joinable()) applier_.join();
  CloseSocket();
  connected_.store(false, std::memory_order_release);
}

Status Replica::Promote() {
  if (graph_ == nullptr) {
    return Status::Error("replica never bootstrapped; nothing to promote");
  }
  Stop();
  // The graph is already a fully functional MVCC graph at applied_; the
  // read-only restriction lives in the serving layer, so releasing the
  // stream is all promotion needs. The caller re-serves graph() as the
  // new primary (optionally enabling durability / a fresh WAL first).
  return Status::OK();
}

}  // namespace ges::replication

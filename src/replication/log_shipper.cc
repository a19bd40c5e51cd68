#include "replication/log_shipper.h"

#include <chrono>

#include "replication/replication_wire.h"
#include "service/protocol.h"

namespace ges::replication {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Idle senders wake this often to emit a heartbeat so replicas can track
// the primary's version (and so last-ack age stays fresh on both ends).
constexpr auto kHeartbeatInterval = std::chrono::milliseconds(200);

}  // namespace

using service::MsgType;

void LogShipper::Start() {
  if (started_.exchange(true)) return;
  graph_->SetCommitListener(
      [this](Version v, const std::vector<WalRecord>& recs) {
        OnCommit(v, recs);
      });
}

void LogShipper::Shutdown() {
  if (stopped_.exchange(true)) return;
  if (started_.load()) graph_->ClearCommitListener();
  std::vector<std::shared_ptr<Subscriber>> subs;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (auto& [id, sub] : subs_) subs.push_back(sub);
    subs_.clear();
  }
  for (auto& sub : subs) CloseSubscriberLocked(sub);
  acks_cv_.notify_all();
}

uint64_t LogShipper::AddSubscriber(const std::string& name, Version from,
                                   SendFrame send, OnDead on_dead,
                                   Status* status) {
  if (stopped_.load()) {
    *status = Status::Error("log shipper is shut down");
    return 0;
  }
  auto sub = std::make_shared<Subscriber>();
  sub->name = name;
  sub->send = std::move(send);
  sub->on_dead = std::move(on_dead);
  sub->last_ack_ns.store(NowNs(), std::memory_order_relaxed);
  // The on_subscribed callback runs under the graph's commit mutex, which
  // makes backlog collection and registration one atomic step: every
  // commit is either in the backlog or will be delivered live — never
  // both, never neither.
  Status s = graph_->CollectReplicationBacklog(
      from, &sub->backlog, [this, &sub](Version /*current*/) {
        std::lock_guard<std::mutex> lock(subs_mu_);
        sub->id = next_id_++;
        subs_[sub->id] = sub;
      });
  if (!s.ok()) {
    if (sub->id != 0) {
      std::lock_guard<std::mutex> lock(subs_mu_);
      subs_.erase(sub->id);
    }
    *status = s;
    return 0;
  }
  sub->sender = std::thread([this, sub] { SenderLoop(sub); });
  return sub->id;
}

void LogShipper::OnCommit(Version version,
                          const std::vector<WalRecord>& records) {
  // Runs under the commit mutex; keep it cheap. Encode once, share the
  // buffer across all subscribers.
  std::shared_ptr<const std::string> frame;
  std::lock_guard<std::mutex> lock(subs_mu_);
  for (auto& [id, sub] : subs_) {
    if (!sub->connected.load(std::memory_order_relaxed)) continue;
    if (frame == nullptr) {
      frame = std::make_shared<const std::string>(
          EncodeWalFrame(version, records));
    }
    std::lock_guard<std::mutex> sub_lock(sub->mu);
    if (sub->closed) continue;
    sub->queue.push_back(frame);
    sub->queued_bytes.fetch_add(frame->size(), std::memory_order_relaxed);
    sub->cv.notify_one();
  }
}

void LogShipper::SenderLoop(const std::shared_ptr<Subscriber>& sub) {
  auto fail = [&] {
    sub->connected.store(false, std::memory_order_release);
    if (sub->on_dead) sub->on_dead();
    acks_cv_.notify_all();
  };

  // Handshake: tell the replica where the live feed starts and whether a
  // snapshot precedes it.
  {
    WireBuf b;
    b.PutU8(static_cast<uint8_t>(MsgType::kSubscribeOk));
    b.PutU64(sub->backlog.live_from);
    b.PutU8(sub->backlog.need_snapshot ? 1 : 0);
    if (!sub->send(b.Take())) return fail();
  }

  if (sub->backlog.need_snapshot) {
    const std::string& img = sub->backlog.snapshot_bytes;
    {
      WireBuf b;
      b.PutU8(static_cast<uint8_t>(MsgType::kSnapshotBegin));
      b.PutU64(sub->backlog.snapshot_version);
      b.PutU64(img.size());
      if (!sub->send(b.Take())) return fail();
    }
    for (size_t off = 0; off < img.size();
         off += service::kSnapshotChunkBytes) {
      size_t n = std::min(service::kSnapshotChunkBytes, img.size() - off);
      WireBuf b;
      b.PutU8(static_cast<uint8_t>(MsgType::kSnapshotChunk));
      b.PutString(img.substr(off, n));
      if (!sub->send(b.Take())) return fail();
    }
    {
      WireBuf b;
      b.PutU8(static_cast<uint8_t>(MsgType::kSnapshotEnd));
      if (!sub->send(b.Take())) return fail();
    }
    sub->backlog.snapshot_bytes.clear();
    sub->backlog.snapshot_bytes.shrink_to_fit();
  }

  // WAL catch-up: committed transactions between snapshot and live_from.
  for (const WalTxn& tx : sub->backlog.txns) {
    std::string frame = EncodeWalFrame(tx.commit_version, tx.records);
    if (!sub->send(frame)) return fail();
    frames_shipped_.fetch_add(1, std::memory_order_relaxed);
    bytes_shipped_.fetch_add(frame.size(), std::memory_order_relaxed);
  }
  sub->backlog.txns.clear();
  sub->backlog.txns.shrink_to_fit();

  // Live feed: drain the queue; heartbeat when idle.
  for (;;) {
    std::shared_ptr<const std::string> frame;
    {
      std::unique_lock<std::mutex> lock(sub->mu);
      sub->cv.wait_for(lock, kHeartbeatInterval,
                       [&] { return sub->closed || !sub->queue.empty(); });
      if (sub->closed && sub->queue.empty()) return;
      if (!sub->queue.empty()) {
        frame = std::move(sub->queue.front());
        sub->queue.pop_front();
      }
    }
    if (frame != nullptr) {
      sub->queued_bytes.fetch_sub(frame->size(), std::memory_order_relaxed);
      if (!sub->send(*frame)) return fail();
      frames_shipped_.fetch_add(1, std::memory_order_relaxed);
      bytes_shipped_.fetch_add(frame->size(), std::memory_order_relaxed);
    } else {
      if (!sub->send(EncodeHeartbeat(graph_->CurrentVersion()))) {
        return fail();
      }
    }
  }
}

void LogShipper::OnAck(uint64_t subscriber_id, Version applied) {
  std::shared_ptr<Subscriber> sub;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subs_.find(subscriber_id);
    if (it == subs_.end()) return;
    sub = it->second;
  }
  uint64_t prev = sub->acked.load(std::memory_order_relaxed);
  while (applied > prev &&
         !sub->acked.compare_exchange_weak(prev, applied,
                                           std::memory_order_release)) {
  }
  sub->last_ack_ns.store(NowNs(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(acks_mu_);
  }
  acks_cv_.notify_all();
}

void LogShipper::CloseSubscriberLocked(
    const std::shared_ptr<Subscriber>& sub) {
  {
    std::lock_guard<std::mutex> lock(sub->mu);
    sub->closed = true;
    sub->cv.notify_all();
  }
  if (sub->sender.joinable()) sub->sender.join();
  sub->connected.store(false, std::memory_order_release);
}

void LogShipper::RemoveSubscriber(uint64_t subscriber_id) {
  std::shared_ptr<Subscriber> sub;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subs_.find(subscriber_id);
    if (it == subs_.end()) return;
    sub = it->second;
    subs_.erase(it);
  }
  CloseSubscriberLocked(sub);
  acks_cv_.notify_all();
}

bool LogShipper::WaitForAcks(Version version, int min_acks,
                             double timeout_s) {
  if (min_acks <= 0) return true;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::duration<double>(timeout_s));
  auto satisfied = [&] {
    int acked = 0;
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (const auto& [id, sub] : subs_) {
      if (sub->connected.load(std::memory_order_acquire) &&
          sub->acked.load(std::memory_order_acquire) >= version) {
        ++acked;
      }
    }
    return acked >= min_acks;
  };
  std::unique_lock<std::mutex> lock(acks_mu_);
  return acks_cv_.wait_until(lock, deadline, [&] {
    return stopped_.load(std::memory_order_acquire) || satisfied();
  }) && !stopped_.load(std::memory_order_acquire) && satisfied();
}

std::vector<ReplicaLagInfo> LogShipper::LagSnapshot() const {
  Version current = graph_->CurrentVersion();
  int64_t now = NowNs();
  std::vector<ReplicaLagInfo> out;
  std::lock_guard<std::mutex> lock(subs_mu_);
  out.reserve(subs_.size());
  for (const auto& [id, sub] : subs_) {
    ReplicaLagInfo info;
    info.name = sub->name;
    info.subscriber_id = id;
    info.applied_version = sub->acked.load(std::memory_order_relaxed);
    info.lag_commits =
        current > info.applied_version ? current - info.applied_version : 0;
    info.lag_bytes = sub->queued_bytes.load(std::memory_order_relaxed);
    info.last_ack_age_s =
        static_cast<double>(now -
                            sub->last_ack_ns.load(std::memory_order_relaxed)) /
        1e9;
    info.connected = sub->connected.load(std::memory_order_relaxed);
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace ges::replication

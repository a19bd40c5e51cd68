// Primary-side WAL shipping: fans committed transactions out to N
// subscribed replicas over the service wire protocol, tracks per-replica
// acknowledgement progress, and implements the optional semi-synchronous
// commit wait (ServiceConfig.min_replica_acks).
//
// Threading model
//   - OnCommit runs under the graph's commit mutex (it is the Graph commit
//     listener) and only enqueues pre-encoded frames; the actual socket
//     writes happen on one sender thread per subscriber.
//   - Lock order: commit_mutex -> subs_mu_ -> sub->mu. acks_mu_ is leaf-
//     level and never held while taking subs_mu_ from the notify side.
#ifndef GES_REPLICATION_LOG_SHIPPER_H_
#define GES_REPLICATION_LOG_SHIPPER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/graph.h"

namespace ges::replication {

// Point-in-time lag view of one subscriber, printed by Server::StatsReport.
struct ReplicaLagInfo {
  std::string name;
  uint64_t subscriber_id = 0;
  uint64_t applied_version = 0;  // last version the replica acked
  uint64_t lag_commits = 0;      // primary version - applied version
  uint64_t lag_bytes = 0;        // encoded frames queued but not yet sent
  double last_ack_age_s = 0.0;   // seconds since the last ack/heartbeat ack
  bool connected = false;
};

class LogShipper {
 public:
  // Sends one already-encoded frame to the subscriber's connection.
  // Returns false when the connection is gone.
  using SendFrame = std::function<bool(const std::string&)>;
  // Invoked (once) from the sender thread when shipping fails, so the
  // owner can kick the blocked ack-reader off the socket.
  using OnDead = std::function<void()>;

  explicit LogShipper(Graph* graph) : graph_(graph) {}
  ~LogShipper() { Shutdown(); }

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  // Installs the commit listener. Call before serving traffic.
  void Start();

  // Clears the commit listener, closes every subscriber, joins sender
  // threads, and releases any semi-sync waiters (they observe failure).
  // Safe to call more than once. Must not race AddSubscriber.
  void Shutdown();

  // Registers a subscriber wanting the stream from `from` (0 = fresh
  // bootstrap). Collects the backlog atomically with registration so no
  // commit falls between backlog and live feed. Returns the subscriber id
  // (non-zero) or 0 with *status set on failure. Spawns the sender thread.
  uint64_t AddSubscriber(const std::string& name, Version from,
                         SendFrame send, OnDead on_dead, Status* status);

  // Records an ack from the replica's applier. Monotonic.
  void OnAck(uint64_t subscriber_id, Version applied);

  // Unregisters and joins the subscriber's sender thread.
  void RemoveSubscriber(uint64_t subscriber_id);

  // Blocks until at least `min_acks` connected subscribers have acked
  // `version`, the timeout elapses, or the shipper shuts down. Returns
  // true only in the first case. min_acks <= 0 returns true immediately.
  bool WaitForAcks(Version version, int min_acks, double timeout_s);

  std::vector<ReplicaLagInfo> LagSnapshot() const;
  uint64_t frames_shipped() const {
    return frames_shipped_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_shipped() const {
    return bytes_shipped_.load(std::memory_order_relaxed);
  }

 private:
  struct Subscriber {
    uint64_t id = 0;
    std::string name;
    SendFrame send;
    OnDead on_dead;
    ReplicationBacklog backlog;

    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::shared_ptr<const std::string>> queue;  // guarded by mu
    bool closed = false;                                   // guarded by mu
    std::thread sender;

    std::atomic<uint64_t> acked{0};
    std::atomic<int64_t> last_ack_ns{0};
    std::atomic<uint64_t> queued_bytes{0};
    std::atomic<bool> connected{true};
  };

  void OnCommit(Version version, const std::vector<WalRecord>& records);
  void SenderLoop(const std::shared_ptr<Subscriber>& sub);
  void CloseSubscriberLocked(const std::shared_ptr<Subscriber>& sub);

  Graph* graph_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  mutable std::mutex subs_mu_;
  uint64_t next_id_ = 1;  // guarded by subs_mu_
  std::map<uint64_t, std::shared_ptr<Subscriber>> subs_;  // guarded by subs_mu_

  mutable std::mutex acks_mu_;
  std::condition_variable acks_cv_;

  std::atomic<uint64_t> frames_shipped_{0};
  std::atomic<uint64_t> bytes_shipped_{0};
};

}  // namespace ges::replication

#endif  // GES_REPLICATION_LOG_SHIPPER_H_

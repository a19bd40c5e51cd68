// Replica-aware client router. Wraps one service::Client per endpoint and
// routes by operation class:
//   - reads (IS/IC/BI) fan out round-robin across replicas, falling back
//     to the primary when a replica is down or answers kLagging;
//   - updates (IU) always go to the primary (the only writer), inheriting
//     Client's ambiguous-update rule: a fully-sent, unanswered IU is never
//     retried anywhere.
// Read-your-writes: every acknowledged update advances a token (its commit
// version); reads carry the token as QueryRequest.min_version, so a
// lagging replica either waits until it has applied that version or
// bounces the read back here with kLagging — the router then tries the
// next node and ultimately the primary, which always satisfies the floor.
//
// Not thread-safe: use one RoutedClient per thread (same model as Client).
#ifndef GES_REPLICATION_ROUTED_CLIENT_H_
#define GES_REPLICATION_ROUTED_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/client.h"

namespace ges::replication {

struct Endpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

class RoutedClient {
 public:
  struct Options {
    Endpoint primary;
    std::vector<Endpoint> replicas;
    service::RetryPolicy retry;
  };

  explicit RoutedClient(Options opts);
  ~RoutedClient() { Close(); }

  RoutedClient(const RoutedClient&) = delete;
  RoutedClient& operator=(const RoutedClient&) = delete;

  // Routes a read-only request (asserts kind != kIU). Returns false when
  // every eligible node failed or stayed lagging; resp holds the last
  // failure detail when it came from a server.
  bool RunRead(service::QueryRequest req, service::QueryResponse* resp);

  // Routes an update to the primary and advances the RYW token on success.
  bool RunUpdate(service::QueryRequest req, service::QueryResponse* resp);

  // Convenience wrappers mirroring service::Client.
  bool RunIS(int number, const LdbcParams& params,
             service::QueryResponse* resp, uint32_t deadline_ms = 0);
  bool RunIC(int number, const LdbcParams& params,
             service::QueryResponse* resp, uint32_t deadline_ms = 0);
  bool RunBI(int number, service::QueryResponse* resp,
             uint32_t deadline_ms = 0);
  bool RunIU(int number, uint64_t seed, service::QueryResponse* resp,
             uint32_t deadline_ms = 0);
  // Service-time-bound no-op (bench workloads).
  bool RunSleep(uint64_t millis, service::QueryResponse* resp);

  // Commit version of the latest acknowledged update through this router;
  // reads through this router never observe an older version.
  uint64_t ryw_token() const { return ryw_token_; }

  const std::string& last_error() const { return error_; }
  void Close();

 private:
  struct Node {
    Endpoint ep;
    std::unique_ptr<service::Client> client;
  };

  bool EnsureConnected(Node* node);
  bool RunOn(Node* node, const service::QueryRequest& req,
             service::QueryResponse* resp);
  void Observe(const service::QueryResponse& resp);

  Options opts_;
  Node primary_;
  std::vector<Node> replicas_;
  size_t rr_ = 0;  // round-robin cursor over replicas
  uint64_t ryw_token_ = 0;
  uint64_t next_query_id_ = 1;
  std::string error_;
};

}  // namespace ges::replication

#endif  // GES_REPLICATION_ROUTED_CLIENT_H_

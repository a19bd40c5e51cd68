#include "replication/routed_client.h"

namespace ges::replication {

using service::QueryKind;
using service::QueryRequest;
using service::QueryResponse;
using service::WireStatus;

RoutedClient::RoutedClient(Options opts) : opts_(std::move(opts)) {
  primary_.ep = opts_.primary;
  replicas_.reserve(opts_.replicas.size());
  for (const Endpoint& ep : opts_.replicas) {
    Node node;
    node.ep = ep;
    replicas_.push_back(std::move(node));
  }
}

void RoutedClient::Close() {
  if (primary_.client) primary_.client->Close();
  for (Node& node : replicas_) {
    if (node.client) node.client->Close();
  }
}

bool RoutedClient::EnsureConnected(Node* node) {
  if (node->client && node->client->connected()) return true;
  node->client = std::make_unique<service::Client>();
  node->client->set_retry_policy(opts_.retry);
  if (!node->client->Connect(node->ep.host, node->ep.port)) {
    error_ = node->client->last_error();
    node->client.reset();
    return false;
  }
  return true;
}

bool RoutedClient::RunOn(Node* node, const QueryRequest& req,
                         QueryResponse* resp) {
  if (!EnsureConnected(node)) return false;
  if (!node->client->Run(req, resp)) {
    error_ = node->client->last_error();
    node->client.reset();  // reconnect lazily on the next attempt
    return false;
  }
  return true;
}

void RoutedClient::Observe(const QueryResponse& resp) {
  if (resp.snapshot_version > ryw_token_) ryw_token_ = resp.snapshot_version;
}

bool RoutedClient::RunRead(QueryRequest req, QueryResponse* resp) {
  if (req.query_id == 0) req.query_id = next_query_id_++;
  req.min_version = ryw_token_;

  // Replicas first (round-robin so concurrent routers spread the load),
  // then the primary as the node that can always satisfy the RYW floor.
  std::vector<Node*> order;
  order.reserve(replicas_.size() + 1);
  if (!replicas_.empty()) {
    size_t start = rr_++ % replicas_.size();
    for (size_t i = 0; i < replicas_.size(); ++i) {
      order.push_back(&replicas_[(start + i) % replicas_.size()]);
    }
  }
  // The primary is always last: even with primary_serves_reads=false it
  // must back kLagging bounces and replica outages, or a stalled replica
  // set would fail RYW reads forever.
  order.push_back(&primary_);

  bool any_lagging = false;
  for (Node* node : order) {
    if (!RunOn(node, req, resp)) continue;
    if (resp->status == WireStatus::kLagging) {
      any_lagging = true;
      continue;
    }
    return true;
  }
  if (error_.empty() && any_lagging) {
    error_ = "every node (including the primary) reported LAGGING";
  }
  return false;
}

bool RoutedClient::RunUpdate(QueryRequest req, QueryResponse* resp) {
  if (req.query_id == 0) req.query_id = next_query_id_++;
  if (!RunOn(&primary_, req, resp)) return false;
  if (resp->status == WireStatus::kOk) Observe(*resp);
  return true;
}

bool RoutedClient::RunIS(int number, const LdbcParams& params,
                         QueryResponse* resp, uint32_t deadline_ms) {
  QueryRequest req;
  req.kind = QueryKind::kIS;
  req.number = static_cast<uint8_t>(number);
  req.params = params;
  req.deadline_ms = deadline_ms;
  return RunRead(std::move(req), resp);
}

bool RoutedClient::RunIC(int number, const LdbcParams& params,
                         QueryResponse* resp, uint32_t deadline_ms) {
  QueryRequest req;
  req.kind = QueryKind::kIC;
  req.number = static_cast<uint8_t>(number);
  req.params = params;
  req.deadline_ms = deadline_ms;
  return RunRead(std::move(req), resp);
}

bool RoutedClient::RunBI(int number, QueryResponse* resp,
                         uint32_t deadline_ms) {
  QueryRequest req;
  req.kind = QueryKind::kBI;
  req.number = static_cast<uint8_t>(number);
  req.deadline_ms = deadline_ms;
  return RunRead(std::move(req), resp);
}

bool RoutedClient::RunIU(int number, uint64_t seed, QueryResponse* resp,
                         uint32_t deadline_ms) {
  QueryRequest req;
  req.kind = QueryKind::kIU;
  req.number = static_cast<uint8_t>(number);
  req.seed = seed;
  req.deadline_ms = deadline_ms;
  return RunUpdate(std::move(req), resp);
}

bool RoutedClient::RunSleep(uint64_t millis, QueryResponse* resp) {
  QueryRequest req;
  req.kind = QueryKind::kSleep;
  req.seed = millis;
  return RunRead(std::move(req), resp);
}

}  // namespace ges::replication

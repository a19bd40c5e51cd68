// service::Client transient-failure handling: bounded reconnect with
// exponential backoff + jitter, read retry after a mid-stream EOF, and the
// non-idempotent-update exception (an update that was delivered but never
// acknowledged must NOT be retried). Uses a scripted fake server speaking
// just enough of the wire protocol to fail at the right moment.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "replication/routed_client.h"
#include "service/client.h"
#include "service/protocol.h"

namespace ges::service {
namespace {

using replication::Endpoint;
using replication::RoutedClient;

// Listening socket on a loopback port (ephemeral unless `port` given).
class Listener {
 public:
  explicit Listener(uint16_t port = 0) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
    fd_ = fd;
  }
  ~Listener() { Close(); }

  // Safe against a concurrent Accept on another thread.
  void Close() {
    int fd = fd_.exchange(-1);
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);  // wakes a thread blocked in accept()
      ::close(fd);
    }
  }

  int Accept() { return ::accept(fd_.load(), nullptr, nullptr); }
  uint16_t port() const { return port_; }

 private:
  std::atomic<int> fd_{-1};
  uint16_t port_ = 0;
};

// Reads the kHello frame and answers kHelloOk. Returns false on EOF/garbage.
bool Handshake(int conn) {
  std::string payload;
  if (ReadFrame(conn, &payload) != ReadResult::kOk) return false;
  WireReader in(payload);
  if (static_cast<MsgType>(in.GetU8()) != MsgType::kHello) return false;
  WireBuf ok;
  ok.PutU8(static_cast<uint8_t>(MsgType::kHelloOk));
  ok.PutU64(1);  // session id
  ok.PutU64(0);  // snapshot version
  return WriteFrame(conn, ok.data());
}

// Reads one kQuery frame; returns false on EOF or a non-query frame (kBye).
bool ReadQuery(int conn, QueryRequest* req) {
  std::string payload;
  if (ReadFrame(conn, &payload) != ReadResult::kOk) return false;
  WireReader in(payload);
  if (static_cast<MsgType>(in.GetU8()) != MsgType::kQuery) return false;
  return DecodeQueryRequest(&in, req);
}

void ReplyOk(int conn, uint64_t query_id) {
  QueryResponse resp;
  resp.query_id = query_id;
  resp.status = WireStatus::kOk;
  WriteFrame(conn, EncodeQueryResponse(resp));
}

// Replies with a non-OK status (a governor refusal) and a retry-after hint.
void ReplyStatus(int conn, uint64_t query_id, WireStatus status,
                 uint32_t retry_after_ms = 0) {
  QueryResponse resp;
  resp.query_id = query_id;
  resp.status = status;
  resp.retry_after_ms = retry_after_ms;
  WriteFrame(conn, EncodeQueryResponse(resp));
}

// Grabs an ephemeral port that nothing listens on (bind + close).
uint16_t FreePort() {
  Listener l;
  uint16_t port = l.port();
  return port;  // l closes; the port is now refused (modulo reuse races)
}

TEST(ClientRetryTest, NoRetryByDefault) {
  uint16_t port = FreePort();
  Client c;
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(c.Connect("127.0.0.1", port));
  auto elapsed = std::chrono::steady_clock::now() - start;
  // Default policy: a single attempt, no backoff sleeps.
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_NE(c.last_error().find("connect"), std::string::npos)
      << c.last_error();
}

TEST(ClientRetryTest, ConnectBacksOffBetweenRefusals) {
  uint16_t port = FreePort();
  Client c;
  RetryPolicy p;
  p.max_retries = 2;
  p.base_backoff_ms = 40;
  c.set_retry_policy(p);
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(c.Connect("127.0.0.1", port));
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
  // Two backoffs of jittered [20,40] + [40,80] ms: at least ~60ms total.
  EXPECT_GE(ms, 55);
}

TEST(ClientRetryTest, ConnectSucceedsOnceServerComesUp) {
  // Reserve a port, then leave it refusing connections until the "server"
  // comes up late — the client's first attempts must be refused and
  // retried, not queued in a backlog.
  uint16_t port = FreePort();
  std::thread server([port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Listener listener(port);
    int conn = listener.Accept();
    ASSERT_GE(conn, 0);
    EXPECT_TRUE(Handshake(conn));
    std::string payload;
    ReadFrame(conn, &payload);  // drain the Bye, if any
    ::close(conn);
  });
  Client c;
  RetryPolicy p;
  p.max_retries = 5;
  p.base_backoff_ms = 20;
  c.set_retry_policy(p);
  EXPECT_TRUE(c.Connect("127.0.0.1", port));
  EXPECT_TRUE(c.connected());
  c.Close();
  server.join();
}

TEST(ClientRetryTest, ReadRetriedAfterMidStreamEof) {
  Listener listener;
  std::atomic<int> queries_seen{0};
  std::thread server([&listener, &queries_seen] {
    // First connection: handshake, swallow the query, die without a reply.
    int conn = listener.Accept();
    ASSERT_GE(conn, 0);
    ASSERT_TRUE(Handshake(conn));
    QueryRequest req;
    ASSERT_TRUE(ReadQuery(conn, &req));
    queries_seen.fetch_add(1);
    ::close(conn);  // mid-stream EOF: delivered but unanswered
    // Second connection (the retry): behave.
    conn = listener.Accept();
    ASSERT_GE(conn, 0);
    ASSERT_TRUE(Handshake(conn));
    ASSERT_TRUE(ReadQuery(conn, &req));
    queries_seen.fetch_add(1);
    ReplyOk(conn, req.query_id);
    std::string payload;
    ReadFrame(conn, &payload);  // drain the Bye, if any
    ::close(conn);
  });

  Client c;
  RetryPolicy p;
  p.max_retries = 3;
  p.base_backoff_ms = 5;
  c.set_retry_policy(p);
  ASSERT_TRUE(c.Connect("127.0.0.1", listener.port()));

  // A read (kIS) is idempotent: the client must transparently reconnect
  // and re-send it after the first connection dies.
  QueryRequest req;
  req.query_id = c.AllocQueryId();
  req.kind = QueryKind::kIS;
  req.number = 1;
  QueryResponse resp;
  EXPECT_TRUE(c.Run(req, &resp)) << c.last_error();
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(queries_seen.load(), 2);
  c.Close();
  server.join();
}

TEST(ClientRetryTest, ReadRetriedAfterPartialResponseFrame) {
  Listener listener;
  std::atomic<int> queries_seen{0};
  std::thread server([&listener, &queries_seen] {
    // First connection: answer the query with a length prefix promising a
    // 64-byte body, deliver 5 bytes, then die — a truncated frame, the
    // worst kind of mid-response drop.
    int conn = listener.Accept();
    ASSERT_GE(conn, 0);
    ASSERT_TRUE(Handshake(conn));
    QueryRequest req;
    ASSERT_TRUE(ReadQuery(conn, &req));
    queries_seen.fetch_add(1);
    char frame[9] = {64, 0, 0, 0,  // LE u32 length = 64
                     static_cast<char>(MsgType::kResult), 'x', 'x', 'x',
                     'x'};
    ::send(conn, frame, sizeof(frame), MSG_NOSIGNAL);
    ::close(conn);
    // Second connection (the retry): behave.
    conn = listener.Accept();
    ASSERT_GE(conn, 0);
    ASSERT_TRUE(Handshake(conn));
    ASSERT_TRUE(ReadQuery(conn, &req));
    queries_seen.fetch_add(1);
    ReplyOk(conn, req.query_id);
    std::string payload;
    ReadFrame(conn, &payload);  // drain the Bye, if any
    ::close(conn);
  });

  Client c;
  RetryPolicy p;
  p.max_retries = 3;
  p.base_backoff_ms = 5;
  c.set_retry_policy(p);
  ASSERT_TRUE(c.Connect("127.0.0.1", listener.port()));

  QueryRequest req;
  req.query_id = c.AllocQueryId();
  req.kind = QueryKind::kIS;
  req.number = 1;
  QueryResponse resp;
  EXPECT_TRUE(c.Run(req, &resp)) << c.last_error();
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(queries_seen.load(), 2);
  c.Close();
  server.join();
}

TEST(ClientRetryTest, OverloadedReadRetriedHonoringRetryAfterHint) {
  Listener listener;
  std::atomic<int> queries_seen{0};
  std::thread server([&listener, &queries_seen] {
    int conn = listener.Accept();
    ASSERT_GE(conn, 0);
    ASSERT_TRUE(Handshake(conn));
    QueryRequest req;
    // Watermark shed: refuse with a hint, then accept the retry on the
    // SAME connection (a shed is a clean response, not a broken socket).
    ASSERT_TRUE(ReadQuery(conn, &req));
    queries_seen.fetch_add(1);
    ReplyStatus(conn, req.query_id, WireStatus::kOverloaded,
                /*retry_after_ms=*/80);
    ASSERT_TRUE(ReadQuery(conn, &req));
    queries_seen.fetch_add(1);
    ReplyOk(conn, req.query_id);
    std::string payload;
    ReadFrame(conn, &payload);  // drain the Bye, if any
    ::close(conn);
  });

  Client c;
  RetryPolicy p;
  p.max_retries = 3;
  p.base_backoff_ms = 1;  // tiny: the 80 ms hint must dominate
  c.set_retry_policy(p);
  ASSERT_TRUE(c.Connect("127.0.0.1", listener.port()));

  QueryRequest req;
  req.query_id = c.AllocQueryId();
  req.kind = QueryKind::kIS;
  req.number = 1;
  QueryResponse resp;
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(c.Run(req, &resp)) << c.last_error();
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(queries_seen.load(), 2);
  EXPECT_GE(ms, 70) << "the server's retry-after hint is a backoff floor";
  c.Close();
  server.join();
}

TEST(ClientRetryTest, ResourceExhaustedReadRetried) {
  Listener listener;
  std::atomic<int> queries_seen{0};
  std::thread server([&listener, &queries_seen] {
    int conn = listener.Accept();
    ASSERT_GE(conn, 0);
    ASSERT_TRUE(Handshake(conn));
    QueryRequest req;
    // A budget kill / admission backpressure, then recovery.
    ASSERT_TRUE(ReadQuery(conn, &req));
    queries_seen.fetch_add(1);
    ReplyStatus(conn, req.query_id, WireStatus::kResourceExhausted);
    ASSERT_TRUE(ReadQuery(conn, &req));
    queries_seen.fetch_add(1);
    ReplyOk(conn, req.query_id);
    std::string payload;
    ReadFrame(conn, &payload);  // drain the Bye, if any
    ::close(conn);
  });

  Client c;
  RetryPolicy p;
  p.max_retries = 3;
  p.base_backoff_ms = 5;
  c.set_retry_policy(p);
  ASSERT_TRUE(c.Connect("127.0.0.1", listener.port()));

  QueryRequest req;
  req.query_id = c.AllocQueryId();
  req.kind = QueryKind::kIS;
  req.number = 1;
  QueryResponse resp;
  EXPECT_TRUE(c.Run(req, &resp)) << c.last_error();
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(queries_seen.load(), 2);
  c.Close();
  server.join();
}

TEST(ClientRetryTest, OverloadedUpdateIsNotRetried) {
  Listener listener;
  std::atomic<int> queries_seen{0};
  std::atomic<int> bogus_retries{0};
  std::thread server([&listener, &queries_seen, &bogus_retries] {
    int conn = listener.Accept();
    ASSERT_GE(conn, 0);
    ASSERT_TRUE(Handshake(conn));
    QueryRequest req;
    ASSERT_TRUE(ReadQuery(conn, &req));
    queries_seen.fetch_add(1);
    ReplyStatus(conn, req.query_id, WireStatus::kOverloaded,
                /*retry_after_ms=*/10);
    // Anything further that parses as a query is an illegal retry;
    // the only legitimate next frame is the kBye from Close().
    if (ReadQuery(conn, &req)) bogus_retries.fetch_add(1);
    ::close(conn);
  });

  Client c;
  RetryPolicy p;
  p.max_retries = 3;  // retries ON — the update must still not retry
  p.base_backoff_ms = 5;
  c.set_retry_policy(p);
  ASSERT_TRUE(c.Connect("127.0.0.1", listener.port()));

  // The refusal is a clean response, so Run() reports delivery success and
  // surfaces the status for the caller to decide — exactly once.
  QueryResponse resp;
  EXPECT_TRUE(c.RunIU(1, /*seed=*/42, &resp)) << c.last_error();
  EXPECT_EQ(resp.status, WireStatus::kOverloaded);
  EXPECT_EQ(queries_seen.load(), 1);
  c.Close();
  server.join();
  EXPECT_EQ(bogus_retries.load(), 0) << "refused update was re-sent";
}

TEST(ClientRetryTest, RoutedReadFailsOverToAnotherEndpoint) {
  // A "replica" that accepts, swallows the query and dies, next to a
  // healthy "primary": the routed read must land on the survivor.
  Listener replica;
  Listener primary;
  std::atomic<int> replica_queries{0};
  std::atomic<int> primary_queries{0};
  std::atomic<bool> done{false};
  std::thread replica_thread([&] {
    while (!done.load()) {
      int conn = replica.Accept();
      if (conn < 0) break;
      QueryRequest req;
      if (Handshake(conn) && ReadQuery(conn, &req)) {
        replica_queries.fetch_add(1);
      }
      ::close(conn);  // never answers
    }
  });
  std::thread primary_thread([&] {
    int conn = primary.Accept();
    if (conn < 0) return;
    ASSERT_TRUE(Handshake(conn));
    QueryRequest req;
    while (ReadQuery(conn, &req)) {
      primary_queries.fetch_add(1);
      ReplyOk(conn, req.query_id);
    }
    ::close(conn);
  });

  RoutedClient::Options opts;
  opts.primary = Endpoint{"127.0.0.1", primary.port()};
  opts.replicas = {Endpoint{"127.0.0.1", replica.port()}};
  RoutedClient router(opts);

  QueryResponse resp;
  EXPECT_TRUE(router.RunSleep(/*millis=*/0, &resp)) << router.last_error();
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(replica_queries.load(), 1) << "read never tried the replica";
  EXPECT_EQ(primary_queries.load(), 1) << "read did not fail over";

  router.Close();
  done.store(true);
  replica.Close();
  primary.Close();
  replica_thread.join();
  primary_thread.join();
}

TEST(ClientRetryTest, RoutedAmbiguousUpdateIsNeverRetried) {
  // The primary swallows the update and dies; the router must surface the
  // ambiguity, not re-send it to anyone — including its replicas.
  Listener primary;
  Listener replica;
  std::atomic<int> update_frames{0};
  std::atomic<bool> done{false};
  std::thread primary_thread([&] {
    int conn = primary.Accept();
    ASSERT_GE(conn, 0);
    ASSERT_TRUE(Handshake(conn));
    QueryRequest req;
    ASSERT_TRUE(ReadQuery(conn, &req));
    update_frames.fetch_add(1);
    ::close(conn);  // delivered, unacknowledged
    while (!done.load()) {
      int extra = primary.Accept();
      if (extra < 0) break;
      if (Handshake(extra) && ReadQuery(extra, &req)) {
        update_frames.fetch_add(1);
      }
      ::close(extra);
    }
  });
  std::thread replica_thread([&] {
    while (!done.load()) {
      int conn = replica.Accept();
      if (conn < 0) break;
      QueryRequest req;
      if (Handshake(conn) && ReadQuery(conn, &req)) {
        update_frames.fetch_add(1);
      }
      ::close(conn);
    }
  });

  RoutedClient::Options opts;
  opts.primary = Endpoint{"127.0.0.1", primary.port()};
  opts.replicas = {Endpoint{"127.0.0.1", replica.port()}};
  opts.retry.max_retries = 3;  // retries ON — the update must still not
  opts.retry.base_backoff_ms = 5;
  RoutedClient router(opts);

  QueryResponse resp;
  EXPECT_FALSE(router.RunIU(1, /*seed=*/42, &resp));
  EXPECT_NE(router.last_error().find("ambiguous"), std::string::npos)
      << router.last_error();
  EXPECT_EQ(update_frames.load(), 1) << "ambiguous update was re-sent";

  router.Close();
  done.store(true);
  primary.Close();
  replica.Close();
  primary_thread.join();
  replica_thread.join();
}

TEST(ClientRetryTest, AmbiguousUpdateIsNeverRetried) {
  Listener listener;
  std::atomic<int> queries_seen{0};
  std::atomic<bool> done{false};
  std::thread server([&listener, &queries_seen, &done] {
    // Swallow the update and die. Then keep accepting: if the client
    // (incorrectly) retried, we would see a second query frame.
    int conn = listener.Accept();
    ASSERT_GE(conn, 0);
    ASSERT_TRUE(Handshake(conn));
    QueryRequest req;
    ASSERT_TRUE(ReadQuery(conn, &req));
    queries_seen.fetch_add(1);
    ::close(conn);
    while (!done.load()) {
      int extra = listener.Accept();
      if (extra < 0) break;  // listener closed: test is over
      if (Handshake(extra) && ReadQuery(extra, &req)) {
        queries_seen.fetch_add(1);
      }
      ::close(extra);
    }
  });

  Client c;
  RetryPolicy p;
  p.max_retries = 3;  // retries are ON — the update must still not retry
  p.base_backoff_ms = 5;
  c.set_retry_policy(p);
  ASSERT_TRUE(c.Connect("127.0.0.1", listener.port()));

  QueryResponse resp;
  EXPECT_FALSE(c.RunIU(1, /*seed=*/42, &resp));
  EXPECT_NE(c.last_error().find("ambiguous"), std::string::npos)
      << c.last_error();
  EXPECT_EQ(queries_seen.load(), 1) << "ambiguous update was re-sent";

  done.store(true);
  listener.Close();  // unblocks the accept loop
  server.join();
}

}  // namespace
}  // namespace ges::service

// Wire-protocol robustness: a live server fed truncated, oversized and
// outright random frames must answer with clean error status frames (or
// at worst close the one offending connection) and keep serving
// well-formed clients. Deterministic xorshift fuzzing — failures
// reproduce.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "datagen/snb_generator.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "storage/graph.h"

namespace ges::service {
namespace {

class FuzzServer : public ::testing::Test {
 protected:
  void SetUp() override {
    SnbConfig snb;
    snb.scale_factor = 0.003;
    data_ = GenerateSnb(snb, &graph_);
    server_ = std::make_unique<Server>(&graph_, &data_, ServiceConfig{});
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void TearDown() override { server_->Drain(2.0); }

  // The liveness probe: after any abuse, a well-formed client still gets
  // full service.
  void ExpectServerHealthy() {
    Client c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()))
        << c.last_error();
    EXPECT_TRUE(c.Ping()) << c.last_error();
    QueryResponse resp;
    ASSERT_TRUE(c.RunBI(1, &resp)) << c.last_error();
    EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
    c.Close();
  }

  int ConnectRaw() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server_->port());
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    // Bounded reads: the fuzzer must never hang on a server that
    // (correctly) sends nothing back.
    struct timeval tv{2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
  }

  static void WriteRaw(int fd, const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) return;  // server already closed on us — acceptable
      off += static_cast<size_t>(n);
    }
  }

  Graph graph_;
  SnbData data_;
  std::unique_ptr<Server> server_;
};

uint64_t XorShift(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

std::string LengthPrefix(uint32_t len) {
  WireBuf hdr;
  hdr.PutU32(len);
  return hdr.Take();
}

TEST_F(FuzzServer, OversizedFrameGetsCleanRefusal) {
  int fd = ConnectRaw();
  WriteRaw(fd, LengthPrefix(kMaxFrameBytes + 1));
  // The refusal arrives as an explicit error frame, not a silent RST.
  std::string payload;
  ASSERT_EQ(ReadFrame(fd, &payload), ReadResult::kOk);
  WireReader in(payload);
  EXPECT_EQ(static_cast<MsgType>(in.GetU8()), MsgType::kError);
  EXPECT_EQ(static_cast<WireStatus>(in.GetU8()),
            WireStatus::kInvalidArgument);
  EXPECT_NE(in.GetString().find("maximum frame size"), std::string::npos);
  // ...after which the server closes the connection.
  EXPECT_EQ(ReadFrame(fd, &payload), ReadResult::kClosed);
  ::close(fd);
  ExpectServerHealthy();
}

TEST_F(FuzzServer, EmptyAndTruncatedBodiesGetErrorFrames) {
  struct Case {
    std::string name;
    std::string body;  // frame payload (maybe empty / truncated)
  };
  std::vector<Case> cases;
  cases.push_back({"empty frame", ""});
  {
    WireBuf b;  // type 4 (the retired set-param) with no key/value
    b.PutU8(4);
    cases.push_back({"truncated set-param", b.Take()});
  }
  {
    WireBuf b;  // type 5 (the retired get-param), string cut short
    b.PutU8(5);
    b.PutU32(100);  // claims a 100-byte key, provides none
    cases.push_back({"lying get-param", b.Take()});
  }
  {
    WireBuf b;  // kSubscribe missing everything after the type byte
    b.PutU8(static_cast<uint8_t>(MsgType::kSubscribe));
    cases.push_back({"truncated subscribe", b.Take()});
  }
  {
    WireBuf b;  // kCancel with a half-written id
    b.PutU8(static_cast<uint8_t>(MsgType::kCancel));
    b.PutU8(0x42);
    cases.push_back({"truncated cancel", b.Take()});
  }

  for (const Case& c : cases) {
    int fd = ConnectRaw();
    WriteRaw(fd, LengthPrefix(static_cast<uint32_t>(c.body.size())) + c.body);
    std::string payload;
    ASSERT_EQ(ReadFrame(fd, &payload), ReadResult::kOk) << c.name;
    WireReader in(payload);
    EXPECT_EQ(static_cast<MsgType>(in.GetU8()), MsgType::kError) << c.name;
    EXPECT_EQ(static_cast<WireStatus>(in.GetU8()),
              WireStatus::kInvalidArgument)
        << c.name;
    ::close(fd);
  }
  ExpectServerHealthy();
}

TEST_F(FuzzServer, MalformedPrepareFramesGetErrorFrames) {
  struct Case {
    std::string name;
    std::string body;
  };
  std::vector<Case> cases;
  {
    WireBuf b;  // kPrepare with no query text at all
    b.PutU8(static_cast<uint8_t>(MsgType::kPrepare));
    cases.push_back({"truncated prepare", b.Take()});
  }
  {
    WireBuf b;  // kPrepare claiming a 500-byte text, providing 3
    b.PutU8(static_cast<uint8_t>(MsgType::kPrepare));
    b.PutU32(500);
    b.PutU8('M');
    b.PutU8('A');
    b.PutU8('T');
    cases.push_back({"lying prepare", b.Take()});
  }
  {
    WireBuf b;  // kPrepare with trailing junk after the text
    b.PutU8(static_cast<uint8_t>(MsgType::kPrepare));
    b.PutString("MATCH (p:PERSON) RETURN p.id");
    b.PutU64(0xdeadbeef);
    cases.push_back({"oversupplied prepare", b.Take()});
  }
  for (const Case& c : cases) {
    int fd = ConnectRaw();
    WriteRaw(fd, LengthPrefix(static_cast<uint32_t>(c.body.size())) + c.body);
    std::string payload;
    ASSERT_EQ(ReadFrame(fd, &payload), ReadResult::kOk) << c.name;
    WireReader in(payload);
    EXPECT_EQ(static_cast<MsgType>(in.GetU8()), MsgType::kError) << c.name;
    EXPECT_EQ(static_cast<WireStatus>(in.GetU8()),
              WireStatus::kInvalidArgument)
        << c.name;
    ::close(fd);
  }
  ExpectServerHealthy();
}

TEST_F(FuzzServer, MalformedExecuteFramesAnswerStatusNotCrash) {
  // Well-framed kExecute bodies with broken content answer a kResult
  // status frame (the decoder could recover the query id) or an error
  // frame — never silence, never a crash.
  struct Case {
    std::string name;
    std::string body;
    WireStatus want;
  };
  std::vector<Case> cases;
  {
    // Unknown handle, otherwise perfectly formed.
    ExecuteRequest req;
    req.query_id = 7;
    req.handle = 0xdeadbeefULL;
    cases.push_back({"unknown handle", EncodeExecuteRequest(req),
                     WireStatus::kNotFound});
  }
  {
    WireBuf b;  // truncated before the handle
    b.PutU8(static_cast<uint8_t>(MsgType::kExecute));
    b.PutU64(9);  // query id only
    cases.push_back({"truncated execute", b.Take(),
                     WireStatus::kInvalidArgument});
  }
  {
    WireBuf b;  // claims 3 bindings, carries 1
    b.PutU8(static_cast<uint8_t>(MsgType::kExecute));
    b.PutU64(11);  // query id
    b.PutU64(1);   // handle
    b.PutU32(0);   // deadline
    b.PutU64(0);   // min_version
    b.PutU32(3);   // binding count lies
    PutValue(&b, Value::Int(42));
    cases.push_back({"truncated bindings", b.Take(),
                     WireStatus::kInvalidArgument});
  }
  {
    WireBuf b;  // binding with a garbage type tag
    b.PutU8(static_cast<uint8_t>(MsgType::kExecute));
    b.PutU64(13);
    b.PutU64(1);
    b.PutU32(0);
    b.PutU64(0);
    b.PutU32(1);
    b.PutU8(0xee);  // no such ValueType
    b.PutU64(1);
    cases.push_back({"garbage value tag", b.Take(),
                     WireStatus::kInvalidArgument});
  }
  for (const Case& c : cases) {
    int fd = ConnectRaw();
    WriteRaw(fd, LengthPrefix(static_cast<uint32_t>(c.body.size())) + c.body);
    std::string payload;
    ASSERT_EQ(ReadFrame(fd, &payload), ReadResult::kOk) << c.name;
    WireReader in(payload);
    MsgType got = static_cast<MsgType>(in.GetU8());
    if (got == MsgType::kResult) {
      QueryResponse resp;
      ASSERT_TRUE(DecodeQueryResponse(&in, &resp)) << c.name;
      EXPECT_EQ(resp.status, c.want) << c.name << ": " << resp.message;
    } else {
      EXPECT_EQ(got, MsgType::kError) << c.name;
      EXPECT_EQ(static_cast<WireStatus>(in.GetU8()),
                WireStatus::kInvalidArgument)
          << c.name;
    }
    ::close(fd);
  }
  ExpectServerHealthy();
}

TEST_F(FuzzServer, MalformedKillQueryFramesGetErrorFrames) {
  // The admin kill frame is strictly framed: exactly one u64 id. Anything
  // shorter or longer is refused with a clean error frame.
  struct Case {
    std::string name;
    std::string body;
  };
  std::vector<Case> cases;
  {
    WireBuf b;  // no id at all
    b.PutU8(static_cast<uint8_t>(MsgType::kKillQuery));
    cases.push_back({"empty kill-query", b.Take()});
  }
  {
    WireBuf b;  // half an id
    b.PutU8(static_cast<uint8_t>(MsgType::kKillQuery));
    b.PutU32(0x1234);
    cases.push_back({"truncated kill-query", b.Take()});
  }
  {
    WireBuf b;  // id plus trailing junk
    b.PutU8(static_cast<uint8_t>(MsgType::kKillQuery));
    b.PutU64(42);
    b.PutU32(0xdead);
    cases.push_back({"oversupplied kill-query", b.Take()});
  }
  for (const Case& c : cases) {
    int fd = ConnectRaw();
    WriteRaw(fd, LengthPrefix(static_cast<uint32_t>(c.body.size())) + c.body);
    std::string payload;
    ASSERT_EQ(ReadFrame(fd, &payload), ReadResult::kOk) << c.name;
    WireReader in(payload);
    EXPECT_EQ(static_cast<MsgType>(in.GetU8()), MsgType::kError) << c.name;
    EXPECT_EQ(static_cast<WireStatus>(in.GetU8()),
              WireStatus::kInvalidArgument)
        << c.name;
    ::close(fd);
  }

  // A well-formed kill for an id that does not exist is NOT an error: it
  // answers kKillQueryOk with a zero count.
  {
    int fd = ConnectRaw();
    WireBuf b;
    b.PutU8(static_cast<uint8_t>(MsgType::kKillQuery));
    b.PutU64(0x4242424242424242ull);
    std::string body = b.Take();
    WriteRaw(fd, LengthPrefix(static_cast<uint32_t>(body.size())) + body);
    std::string payload;
    ASSERT_EQ(ReadFrame(fd, &payload), ReadResult::kOk);
    WireReader in(payload);
    EXPECT_EQ(static_cast<MsgType>(in.GetU8()), MsgType::kKillQueryOk);
    EXPECT_EQ(in.GetU32(), 0u);
    ::close(fd);
  }
  ExpectServerHealthy();
}

TEST_F(FuzzServer, RandomByteStreamsDontWedgeTheServer) {
  uint64_t seed = 0x5eed5eed5eed5eedull;
  for (int conn = 0; conn < 24; ++conn) {
    int fd = ConnectRaw();
    // A burst of raw garbage: random lengths, random bytes — sometimes a
    // plausible frame header, usually not.
    int bursts = 1 + static_cast<int>(XorShift(&seed) % 4);
    for (int b = 0; b < bursts; ++b) {
      size_t n = 1 + static_cast<size_t>(XorShift(&seed) % 512);
      std::string blob(n, '\0');
      for (size_t i = 0; i < n; ++i) {
        blob[i] = static_cast<char>(XorShift(&seed) & 0xff);
      }
      WriteRaw(fd, blob);
    }
    ::shutdown(fd, SHUT_WR);
    // Drain whatever the server says (error frames) until it closes.
    char sink[256];
    while (::recv(fd, sink, sizeof(sink), 0) > 0) {
    }
    ::close(fd);
  }
  ExpectServerHealthy();
}

TEST_F(FuzzServer, RandomWellFramedPayloadsAnswerOrCloseCleanly) {
  uint64_t seed = 0xfeedface12345678ull;
  for (int conn = 0; conn < 24; ++conn) {
    int fd = ConnectRaw();
    for (int f = 0; f < 8; ++f) {
      // A syntactically valid frame wrapping a random body: the server
      // must parse-or-refuse every one without dying.
      size_t n = static_cast<size_t>(XorShift(&seed) % 64);
      std::string body(n, '\0');
      for (size_t i = 0; i < n; ++i) {
        body[i] = static_cast<char>(XorShift(&seed) & 0xff);
      }
      WriteRaw(fd, LengthPrefix(static_cast<uint32_t>(n)) + body);
    }
    ::shutdown(fd, SHUT_WR);
    char sink[256];
    while (::recv(fd, sink, sizeof(sink), 0) > 0) {
    }
    ::close(fd);
  }
  ExpectServerHealthy();
}

// The client side of the unknown-tag rule: a kResult cell with an unknown
// type tag has no knowable width, so the client must reject the whole
// frame instead of decoding on into silently wrong rows.
TEST(ClientFrameFuzz, UnknownCellTagIsAMalformedResultFrame) {
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);

  // A one-shot peer: answers the handshake, then answers the query with a
  // one-cell result whose cell tag is 0xee.
  std::thread peer([lfd] {
    int conn = ::accept(lfd, nullptr, nullptr);
    if (conn < 0) return;
    std::string payload;
    if (ReadFrame(conn, &payload) == ReadResult::kOk) {
      WireBuf hello;
      hello.PutU8(static_cast<uint8_t>(MsgType::kHelloOk));
      hello.PutU64(1);  // session id
      hello.PutU64(0);  // snapshot version
      WriteFrame(conn, hello.data());
    }
    if (ReadFrame(conn, &payload) == ReadResult::kOk) {
      WireReader in(payload);
      in.GetU8();  // type
      QueryRequest req;
      DecodeQueryRequest(&in, &req);
      QueryResponse resp;
      resp.query_id = req.query_id;
      Schema schema;
      schema.Add("x", ValueType::kInt64);
      resp.table = FlatBlock(schema);
      resp.table.AppendRow({Value::Int(0x1122334455667788)});
      std::string frame = EncodeQueryResponse(resp);
      const std::string cell("\x88\x77\x66\x55\x44\x33\x22\x11", 8);
      frame[frame.find(cell) - 1] = static_cast<char>(0xee);
      WriteFrame(conn, frame);
    }
    ::close(conn);
  });

  Client c;
  EXPECT_TRUE(c.Connect("127.0.0.1", ntohs(addr.sin_port)))
      << c.last_error();
  QueryResponse resp;
  EXPECT_FALSE(c.RunBI(1, &resp));
  EXPECT_NE(c.last_error().find("malformed result frame"), std::string::npos)
      << c.last_error();
  ::shutdown(lfd, SHUT_RDWR);  // wakes the peer if it never got a client
  peer.join();
  ::close(lfd);
}

}  // namespace
}  // namespace ges::service

// Golden-byte pins for the three byte formats GES persists or ships: service
// wire frames, WAL record payloads and frames, and the GESSNAP4 snapshot
// file. Each test encodes a fixed input and compares the exact bytes, so a
// changed tag, width or field order fails loudly instead of silently
// breaking old snapshot files, old WAL segments or peers on the wire.
//
// Only entry points whose signatures are stable across codec refactors are
// used (the Encode* functions and SaveGraph, whose image is the snapshot
// file's bytes), so the same file checks an old build and a new one against
// the same images.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "replication/replication_wire.h"
#include "service/protocol.h"
#include "storage/graph.h"
#include "storage/serialization.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace ges {
namespace {

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

// --- service wire frames ---------------------------------------------------

TEST(CodecGoldenTest, QueryFrame) {
  service::QueryRequest req;
  req.query_id = 7;
  req.kind = service::QueryKind::kIC;
  req.number = 9;
  req.deadline_ms = 250;
  req.seed = 3;
  req.params.person = 933;
  req.params.person2 = -1;
  req.params.first_name = "Jun";
  req.params.tag_class = "Album";
  req.params.max_date = 1300000000000;
  req.params.month = 11;
  req.min_version = 12;
  EXPECT_EQ(Hex(service::EncodeQueryRequest(req)),
            "0207000000000000000009fa0000000300000000000000a503000000000000ff"
            "ffffffffffffff0000000000000000030000004a756e00000000000000000000"
            "000005000000416c62756d00c809ae2e01000000000000000000000000000000"
            "00000000000000000000000b000000000000000c00000000000000");
}

TEST(CodecGoldenTest, ExecuteFrame) {
  service::ExecuteRequest req;
  req.query_id = 8;
  req.handle = 2;
  req.deadline_ms = 100;
  req.min_version = 4;
  req.params = {Value::Null(),      Value::Bool(true),
                Value::Int(-3),     Value::Double(1.5),
                Value::String("x"), Value::Date(86400000),
                Value::Vertex(17)};
  EXPECT_EQ(Hex(service::EncodeExecuteRequest(req)),
            "0d08000000000000000200000000000000640000000400000000000000070000"
            "000001010000000000000002fdffffffffffffff03000000000000f83f040100"
            "00007805005c260500000000061100000000000000");
}

TEST(CodecGoldenTest, ResultFrame) {
  Schema schema;
  schema.Add("i", ValueType::kInt64);
  schema.Add("s", ValueType::kString);
  schema.Add("d", ValueType::kDouble);
  schema.Add("b", ValueType::kBool);
  schema.Add("t", ValueType::kDate);
  schema.Add("v", ValueType::kVertex);
  service::QueryResponse ok;
  ok.query_id = 9;
  ok.server_millis = 1.25;
  ok.table = FlatBlock(schema);
  ok.table.AppendRow({Value::Int(-2), Value::String("ab"), Value::Double(0.5),
                      Value::Bool(false), Value::Date(99), Value::Vertex(3)});
  ok.table.AppendRow({Value::Int(1 << 20), Value::Null(), Value::Double(-4),
                      Value::Bool(true), Value::Null(), Value::Vertex(0)});
  ok.snapshot_version = 5;
  ok.parse_millis = 0.5;
  ok.plan_millis = 0.25;
  ok.bind_millis = 0.125;
  ok.exec_millis = 2;
  ok.plan_cache_hit = 1;
  ok.peak_memory_bytes = 4096;
  EXPECT_EQ(Hex(service::EncodeQueryResponse(ok)),
            "1109000000000000000000000000000000000000f43f06000000010000006902"
            "0100000073040100000064030100000062010100000074050100000076060200"
            "00000000000002feffffffffffffff0402000000616203000000000000e03f01"
            "0000000000000000056300000000000000060300000000000000020000100000"
            "000000000300000000000010c001010000000000000000060000000000000000"
            "0500000000000000000000000000e03f000000000000d03f000000000000c03f"
            "000000000000004001001000000000000000000000");

  service::QueryResponse refused;
  refused.query_id = 10;
  refused.status = service::WireStatus::kOverloaded;
  refused.message = "shed";
  refused.retry_after_ms = 40;
  EXPECT_EQ(Hex(service::EncodeQueryResponse(refused)),
            "110a000000000000000a04000000736865640000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "000000000000000000000028000000");

  // A connection-level refusal, as the server sends for an unknown type.
  EXPECT_EQ(Hex(service::EncodeError(service::WireStatus::kInvalidArgument,
                                     "unexpected message type")),
            "120217000000756e6578706563746564206d6573736167652074797065");
}

// --- WAL records -------------------------------------------------------------

std::vector<WalRecord> OneOfEachRecord() {
  std::vector<WalRecord> recs;
  WalRecord begin;
  begin.type = WalRecordType::kBeginTx;
  begin.txid = 0x0102030405060708ull;
  recs.push_back(begin);

  WalRecord vertex;
  vertex.type = WalRecordType::kInsertVertex;
  vertex.label = 3;
  vertex.ext_id = -77;
  recs.push_back(vertex);

  WalRecord prop;
  prop.type = WalRecordType::kSetProperty;
  prop.label = 3;
  prop.ext_id = -77;
  prop.prop = 0x0201;
  prop.value = Value::String("héllo");
  recs.push_back(prop);
  prop.prop = 4;
  prop.value = Value::Double(-0.75);
  recs.push_back(prop);
  prop.value = Value::Null();
  recs.push_back(prop);

  WalRecord edge;
  edge.type = WalRecordType::kInsertEdge;
  edge.edge_label = 2;
  edge.src_label = 1;
  edge.src_ext = 100;
  edge.dst_label = 4;
  edge.dst_ext = 200;
  edge.stamp = 1234567;
  recs.push_back(edge);

  WalRecord tomb = edge;
  tomb.type = WalRecordType::kDeleteTombstone;
  recs.push_back(tomb);

  WalRecord commit;
  commit.type = WalRecordType::kCommitTx;
  commit.txid = 42;
  recs.push_back(commit);
  return recs;
}

TEST(CodecGoldenTest, WalRecordOfEveryType) {
  const std::vector<WalRecord> recs = OneOfEachRecord();
  const std::vector<std::string> want = {
      "010807060504030201",
      "020300b3ffffffffffffff",
      "050300b3ffffffffffffff0102040600000068c3a96c6c6f",
      "050300b3ffffffffffffff040003000000000000e8bf",
      "050300b3ffffffffffffff040000",
      "030200010064000000000000000400c80000000000000087d6120000000000",
      "040200010064000000000000000400c800000000000000",
      "062a00000000000000",
  };
  ASSERT_EQ(recs.size(), want.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(Hex(EncodeWalRecord(recs[i])), want[i]) << "record " << i;
  }
}

TEST(CodecGoldenTest, WalFrameAndReplicationFrame) {
  const std::vector<WalRecord> recs = OneOfEachRecord();
  std::string framed;
  AppendWalFrame(&framed, EncodeWalRecord(recs[1]));
  EXPECT_EQ(Hex(framed), "0b0000005d61a164020300b3ffffffffffffff");
  EXPECT_EQ(Hex(replication::EncodeWalFrame(42, recs)),
            "1d2a00000000000000060000000b000000020300b3ffffffffffffff18000000"
            "050300b3ffffffffffffff0102040600000068c3a96c6c6f16000000050300b3"
            "ffffffffffffff040003000000000000e8bf0e000000050300b3ffffffffffff"
            "ff0400001f000000030200010064000000000000000400c80000000000000087"
            "d612000000000017000000040200010064000000000000000400c80000000000"
            "0000");
}

// --- GESSNAP4 snapshot file ------------------------------------------------

std::string SnapshotImage(const Graph& g) {
  std::string image;
  EXPECT_TRUE(SaveGraph(g, &image).ok());
  return image;
}

TEST(CodecGoldenTest, TinyGraphSnapshot) {
  testutil::TinyGraph tiny;
  EXPECT_EQ(Hex(SnapshotImage(*tiny.graph)),
            "474553534e41503408000000000000008ab2288c000000000000000010000000"
            "0000000014977cb0010000000000000000000000000000007f00000000000000"
            "1cb6442c02000000000000000600000000000000504552534f4e010000000000"
            "0000020000000000000069640207000000000000004d45535341474502000000"
            "00000000020000000000000069640203000000000000006c656e020200000000"
            "00000005000000000000004b4e4f57530b000000000000004841535f43524541"
            "544f523a000000000000004fadaa5a0200000000000000000000000000000000"
            "0000000000000000000000000000000101000000000000000100000000000000"
            "0000000000000000004c00000000000000686e0d530400000000000000000000"
            "0000000000020000000000000000010000000000000002010000000000000002"
            "0000000000000002020000000000000003000000000000000203000000000000"
            "00a400000000000000eb233d8e06000000000000000000000000000000020000"
            "000000000000028c000000000000000100000000000000020100000000000000"
            "027b000000000000000200000000000000020200000000000000027800000000"
            "0000000300000000000000020300000000000000028200000000000000040000"
            "0000000000020400000000000000026400000000000000050000000000000002"
            "0500000000000000027e000000000000002100000000000000de762c5e040002"
            "020101ca01020202000301ca01180402000301cc012a0602020101e201141300"
            "000000000000e46da2c9060001020201020401040601060801060a0106080000"
            "00000000008ab2288c0000000000000000");
}

// Every property type, both string subtags (dictionary code and inline
// overlay value), negative ids, zero and non-zero stamp runs, an overlay
// edge, a committed version and a compacted relation in the manifest.
TEST(CodecGoldenTest, TypedGraphSnapshot) {
  Graph g;
  Catalog& c = g.catalog();
  LabelId item = c.AddVertexLabel("ITEM");
  LabelId link = c.AddEdgeLabel("LINK");
  PropertyId name = c.AddProperty(item, "name", ValueType::kString);
  PropertyId score = c.AddProperty(item, "score", ValueType::kDouble);
  PropertyId flag = c.AddProperty(item, "flag", ValueType::kBool);
  PropertyId born = c.AddProperty(item, "born", ValueType::kDate);
  g.RegisterRelation(item, link, item, /*has_stamp=*/true);
  std::vector<VertexId> vs;
  for (int i = 0; i < 4; ++i) {
    VertexId v = g.AddVertexBulk(item, i * 7 - 5);
    g.SetPropertyBulkString(v, name, i % 2 == 0 ? "even" : "odd");
    if (i != 3) g.SetPropertyBulk(v, score, Value::Double(i + 0.5));
    g.SetPropertyBulk(v, flag, Value::Bool(i % 2 == 0));
    g.SetPropertyBulk(v, born, Value::Date(int64_t{1000000} * i));
    vs.push_back(v);
  }
  g.AddEdgeBulk(link, vs[0], vs[1], 5);
  g.AddEdgeBulk(link, vs[0], vs[2], 3);
  g.AddEdgeBulk(link, vs[0], vs[3], 0);
  g.AddEdgeBulk(link, vs[2], vs[0], 0);
  g.AddEdgeBulk(link, vs[1], vs[3], -4);
  g.FinalizeBulk();
  {
    auto txn = g.BeginWrite({vs[0], vs[1], vs[3]});
    txn->SetProperty(vs[0], name, Value::String("overlay-only"));
    ASSERT_TRUE(txn->AddEdge(link, vs[3], vs[1], 9).ok());
    ASSERT_NE(txn->Commit(), 0u);
  }
  CompactionOptions copts;
  copts.force = true;
  copts.only.push_back(
      g.FindRelation(item, link, item, Direction::kOut));
  ASSERT_EQ(g.CompactRelations(copts).relations_compacted, 1u);
  EXPECT_EQ(Hex(SnapshotImage(g)),
            "474553534e4150340800000000000000adcf14c5010000000000000027000000"
            "00000000323f966c030000000000000000000000000000000400000000000000"
            "6576656e03000000000000006f64646500000000000000cb2728930100000000"
            "00000004000000000000004954454d040000000000000004000000000000006e"
            "616d6504050000000000000073636f7265030400000000000000666c61670104"
            "00000000000000626f726e05010000000000000004000000000000004c494e4b"
            "2100000000000000d5f70c330100000000000000000000000000000000000000"
            "00000000000000000000000001bc0000000000000033840d1704000000000000"
            "00fbffffffffffffff04000c000000000000006f7665726c61792d6f6e6c7903"
            "000000000000e03f010100000000000000050000000000000000020000000000"
            "000004010200000003000000000000f83f0100000000000000000540420f0000"
            "0000000900000000000000040101000000030000000000000440010100000000"
            "0000000580841e00000000001000000000000000040102000000030000000000"
            "00000001000000000000000005c0c62d000000000018000000000000004096d5"
            "9b040903040707010a0305040120010712010900200104011220000000000000"
            "0061e637b7010000000000000000000000000000000000000000000000000000"
            "0000000000");
}

}  // namespace
}  // namespace ges

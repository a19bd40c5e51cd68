// Durability tests: WAL framing, torn-tail detection at every byte
// boundary, crash-free recovery via Graph::Open, fault injection (failed /
// short writes latching read-only mode), checkpointing and fsync policies.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "storage/fault_fs.h"
#include "storage/graph.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::TinyGraph;

class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/ges_wal_test_XXXXXX";
    path_ = ::mkdtemp(buf);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }

// --- CRC32C ---------------------------------------------------------------

TEST(Crc32cTest, KnownAnswer) {
  // The canonical CRC-32C check value (RFC 3720 appendix B.4).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, SeedChains) {
  const std::string data = "the quick brown fox";
  uint32_t whole = Crc32c(data.data(), data.size());
  uint32_t part = Crc32c(data.data(), 7);
  uint32_t chained = Crc32c(data.data() + 7, data.size() - 7, part);
  EXPECT_EQ(chained, whole);
}

// --- record codec ---------------------------------------------------------

TEST(WalRecordTest, RoundtripsEveryType) {
  std::vector<WalRecord> records;
  WalRecord begin;
  begin.type = WalRecordType::kBeginTx;
  begin.txid = 42;
  records.push_back(begin);

  // Body records carry no txid on the wire (it is implied by the
  // enclosing Begin/Commit pair), so leave it defaulted here.
  WalRecord vtx;
  vtx.type = WalRecordType::kInsertVertex;
  vtx.label = 3;
  vtx.ext_id = -17;
  records.push_back(vtx);

  WalRecord prop;
  prop.type = WalRecordType::kSetProperty;
  prop.label = 3;
  prop.ext_id = 9;
  prop.prop = 7;
  prop.value = Value::String("hello wal");
  records.push_back(prop);

  WalRecord prop2 = prop;
  prop2.value = Value::Double(3.25);
  records.push_back(prop2);

  WalRecord edge;
  edge.type = WalRecordType::kInsertEdge;
  edge.edge_label = 2;
  edge.src_label = 3;
  edge.src_ext = 100;
  edge.dst_label = 4;
  edge.dst_ext = 200;
  edge.stamp = 1234567;
  records.push_back(edge);

  WalRecord tomb = edge;
  tomb.type = WalRecordType::kDeleteTombstone;
  tomb.stamp = 0;  // only inserts carry a stamp on the wire
  records.push_back(tomb);

  WalRecord commit;
  commit.type = WalRecordType::kCommitTx;
  commit.txid = 42;
  records.push_back(commit);

  for (const WalRecord& rec : records) {
    std::string payload = EncodeWalRecord(rec);
    WalRecord out;
    ASSERT_TRUE(DecodeWalRecord(payload, &out));
    EXPECT_EQ(out.type, rec.type);
    EXPECT_EQ(out.txid, rec.txid);
    EXPECT_EQ(out.label, rec.label);
    EXPECT_EQ(out.ext_id, rec.ext_id);
    EXPECT_EQ(out.edge_label, rec.edge_label);
    EXPECT_EQ(out.src_label, rec.src_label);
    EXPECT_EQ(out.src_ext, rec.src_ext);
    EXPECT_EQ(out.dst_label, rec.dst_label);
    EXPECT_EQ(out.dst_ext, rec.dst_ext);
    EXPECT_EQ(out.stamp, rec.stamp);
    EXPECT_EQ(out.prop, rec.prop);
    EXPECT_EQ(out.value, rec.value);
  }
}

TEST(WalRecordTest, DecodeRejectsGarbage) {
  WalRecord out;
  EXPECT_FALSE(DecodeWalRecord("", &out));
  EXPECT_FALSE(DecodeWalRecord("\xFF", &out));
  EXPECT_FALSE(DecodeWalRecord(std::string("\x01"), &out));  // txid missing
}

// --- writer + scan --------------------------------------------------------

std::vector<WalRecord> SimpleTxn(uint64_t txid) {
  std::vector<WalRecord> recs(3);
  recs[0].type = WalRecordType::kBeginTx;
  recs[0].txid = txid;
  recs[1].type = WalRecordType::kInsertVertex;
  recs[1].txid = txid;
  recs[1].label = 1;
  recs[1].ext_id = static_cast<int64_t>(txid) * 10;
  recs[2].type = WalRecordType::kCommitTx;
  recs[2].txid = txid;
  return recs;
}

TEST(WalWriterTest, AppendScanRoundtrip) {
  TempDir dir;
  WalOptions opts;
  std::unique_ptr<WalWriter> writer;
  ASSERT_TRUE(WalWriter::Open(WalPath(dir.path()), opts,
                              FileSystem::Default(), &writer)
                  .ok());
  for (uint64_t t = 1; t <= 3; ++t) {
    uint64_t lsn = 0;
    ASSERT_TRUE(writer->AppendTxn(SimpleTxn(t), &lsn).ok());
    ASSERT_TRUE(writer->WaitDurable(lsn).ok());
  }
  writer.reset();

  WalScanResult scan;
  ASSERT_TRUE(ScanWal(WalPath(dir.path()), FileSystem::Default(), &scan).ok());
  ASSERT_EQ(scan.committed.size(), 3u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.dangling_records, 0u);
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
  for (uint64_t t = 1; t <= 3; ++t) {
    const WalTxn& txn = scan.committed[t - 1];
    EXPECT_EQ(txn.txid, t);
    EXPECT_EQ(txn.commit_version, t);
    ASSERT_EQ(txn.records.size(), 1u);
    EXPECT_EQ(txn.records[0].ext_id, static_cast<int64_t>(t) * 10);
  }
}

TEST(WalWriterTest, ResumesAfterReopen) {
  TempDir dir;
  WalOptions opts;
  std::unique_ptr<WalWriter> writer;
  ASSERT_TRUE(WalWriter::Open(WalPath(dir.path()), opts,
                              FileSystem::Default(), &writer)
                  .ok());
  uint64_t lsn = 0;
  ASSERT_TRUE(writer->AppendTxn(SimpleTxn(1), &lsn).ok());
  ASSERT_TRUE(writer->WaitDurable(lsn).ok());
  writer.reset();

  // Reopen and append more: both transactions must survive.
  ASSERT_TRUE(WalWriter::Open(WalPath(dir.path()), opts,
                              FileSystem::Default(), &writer)
                  .ok());
  ASSERT_TRUE(writer->AppendTxn(SimpleTxn(2), &lsn).ok());
  ASSERT_TRUE(writer->WaitDurable(lsn).ok());
  writer.reset();

  WalScanResult scan;
  ASSERT_TRUE(ScanWal(WalPath(dir.path()), FileSystem::Default(), &scan).ok());
  EXPECT_EQ(scan.committed.size(), 2u);
}

// Under fsync=interval the flusher is a group-commit leader like any
// WaitDurable caller: its fsync runs outside the append lock, so a commit
// issued during a slow flush appends without waiting for the disk.
TEST(WalWriterTest, SlowIntervalFsyncDoesNotBlockAppends) {
  TempDir dir;
  FaultFS fs;
  WalOptions opts;
  opts.fsync_policy = FsyncPolicy::kInterval;
  opts.fsync_interval_ms = 2;
  std::unique_ptr<WalWriter> writer;
  ASSERT_TRUE(WalWriter::Open(WalPath(dir.path()), opts, &fs, &writer).ok());
  // Op 1 is the append below; op 2 is the flusher's fsync covering it
  // (an idle flusher issues none).
  constexpr int kDelayMs = 800;
  fs.Arm(2, FaultFS::FaultKind::kDelay, kDelayMs);
  uint64_t first = 0;
  ASSERT_TRUE(writer->AppendTxn(SimpleTxn(1), &first).ok());
  auto wait_until = [](const auto& done) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };
  ASSERT_TRUE(wait_until([&] { return fs.faults_fired() == 1; }));

  // The flusher is now inside its slow fsync.
  auto start = std::chrono::steady_clock::now();
  uint64_t second = 0;
  ASSERT_TRUE(writer->AppendTxn(SimpleTxn(2), &second).ok());
  ASSERT_TRUE(writer->WaitDurable(second).ok());
  auto append_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_LT(append_ms, kDelayMs / 2);
  EXPECT_LT(writer->DurableLsn(), second);

  // The slow fsync still completes and advances the durable prefix; the
  // next interval covers the second transaction.
  EXPECT_TRUE(wait_until([&] { return writer->DurableLsn() >= second; }));
  EXPECT_GE(writer->DurableLsn(), first);
}

// An lsn issued before a Rotate is covered by the checkpoint that drove the
// rotation: waiting on it afterwards returns instead of chasing an offset
// the fresh log has not reached.
TEST(WalWriterTest, WaitOnPreRotateLsnReturns) {
  TempDir dir;
  WalOptions opts;  // fsync=always: WaitDurable runs the group commit
  std::unique_ptr<WalWriter> writer;
  ASSERT_TRUE(WalWriter::Open(WalPath(dir.path()), opts,
                              FileSystem::Default(), &writer)
                  .ok());
  uint64_t lsn = 0;
  for (uint64_t t = 1; t <= 3; ++t) {
    ASSERT_TRUE(writer->AppendTxn(SimpleTxn(t), &lsn).ok());
  }
  ASSERT_TRUE(writer->Rotate().ok());
  ASSERT_LT(writer->SizeBytes(), lsn);
  EXPECT_TRUE(writer->WaitDurable(lsn).ok());
}

TEST(WalScanTest, MissingFileIsEmpty) {
  TempDir dir;
  WalScanResult scan;
  ASSERT_TRUE(ScanWal(WalPath(dir.path()), FileSystem::Default(), &scan).ok());
  EXPECT_EQ(scan.committed.size(), 0u);
  EXPECT_EQ(scan.file_bytes, 0u);
}

TEST(WalScanTest, WrongMagicIsAnError) {
  TempDir dir;
  WriteFile(WalPath(dir.path()), "NOTAWAL0 trailing bytes");
  WalScanResult scan;
  EXPECT_FALSE(
      ScanWal(WalPath(dir.path()), FileSystem::Default(), &scan).ok());
}

TEST(WalScanTest, UncommittedTailIsDanglingNotCommitted) {
  TempDir dir;
  WalOptions opts;
  std::unique_ptr<WalWriter> writer;
  ASSERT_TRUE(WalWriter::Open(WalPath(dir.path()), opts,
                              FileSystem::Default(), &writer)
                  .ok());
  uint64_t lsn = 0;
  ASSERT_TRUE(writer->AppendTxn(SimpleTxn(1), &lsn).ok());
  ASSERT_TRUE(writer->WaitDurable(lsn).ok());
  writer.reset();

  // Append a Begin + body with no Commit — a crash between append and
  // commit-frame write.
  std::string tail;
  std::vector<WalRecord> partial = SimpleTxn(2);
  partial.pop_back();  // drop CommitTx
  for (const WalRecord& rec : partial) {
    AppendWalFrame(&tail, EncodeWalRecord(rec));
  }
  std::ofstream out(WalPath(dir.path()),
                    std::ios::binary | std::ios::app);
  out.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  out.close();

  WalScanResult scan;
  ASSERT_TRUE(ScanWal(WalPath(dir.path()), FileSystem::Default(), &scan).ok());
  EXPECT_EQ(scan.committed.size(), 1u);
  // Only the data record dangles; the Begin marker itself carries no data.
  EXPECT_EQ(scan.dangling_records, 1u);
  EXPECT_FALSE(scan.torn_tail);  // all frames are whole, txn just unfinished
}

// The satellite requirement: cut the log at EVERY byte boundary of the
// last transaction's frames; recovery must stop at exactly the last
// complete committed transaction, never seeing a partial one.
TEST(WalScanTest, TruncationAtEveryByteBoundary) {
  TempDir dir;
  WalOptions opts;
  std::unique_ptr<WalWriter> writer;
  ASSERT_TRUE(WalWriter::Open(WalPath(dir.path()), opts,
                              FileSystem::Default(), &writer)
                  .ok());
  uint64_t lsn_after_two = 0;
  uint64_t lsn_after_three = 0;
  ASSERT_TRUE(writer->AppendTxn(SimpleTxn(1), &lsn_after_two).ok());
  ASSERT_TRUE(writer->AppendTxn(SimpleTxn(2), &lsn_after_two).ok());
  ASSERT_TRUE(writer->AppendTxn(SimpleTxn(3), &lsn_after_three).ok());
  ASSERT_TRUE(writer->WaitDurable(lsn_after_three).ok());
  writer.reset();

  const std::string full = ReadFile(WalPath(dir.path()));
  ASSERT_EQ(full.size(), lsn_after_three);

  for (uint64_t cut = lsn_after_two; cut < lsn_after_three; ++cut) {
    WriteFile(WalPath(dir.path()), full.substr(0, cut));
    WalScanResult scan;
    ASSERT_TRUE(
        ScanWal(WalPath(dir.path()), FileSystem::Default(), &scan).ok())
        << "cut at byte " << cut;
    EXPECT_EQ(scan.committed.size(), 2u) << "cut at byte " << cut;
    EXPECT_LE(scan.valid_bytes, cut) << "cut at byte " << cut;
    EXPECT_GE(scan.valid_bytes, lsn_after_two) << "cut at byte " << cut;
  }
}

// Bit-flip every byte of the last transaction: the CRC (or the length
// bound) must reject the damaged frame and recovery stops before it.
TEST(WalScanTest, BitFlipInLastTxnDetected) {
  TempDir dir;
  WalOptions opts;
  std::unique_ptr<WalWriter> writer;
  ASSERT_TRUE(WalWriter::Open(WalPath(dir.path()), opts,
                              FileSystem::Default(), &writer)
                  .ok());
  uint64_t lsn_after_two = 0;
  uint64_t lsn_after_three = 0;
  ASSERT_TRUE(writer->AppendTxn(SimpleTxn(1), &lsn_after_two).ok());
  ASSERT_TRUE(writer->AppendTxn(SimpleTxn(2), &lsn_after_two).ok());
  ASSERT_TRUE(writer->AppendTxn(SimpleTxn(3), &lsn_after_three).ok());
  ASSERT_TRUE(writer->WaitDurable(lsn_after_three).ok());
  writer.reset();

  const std::string full = ReadFile(WalPath(dir.path()));
  for (uint64_t off = lsn_after_two; off < lsn_after_three; ++off) {
    std::string damaged = full;
    damaged[off] = static_cast<char>(damaged[off] ^ 0x40);
    WriteFile(WalPath(dir.path()), damaged);
    WalScanResult scan;
    Status s = ScanWal(WalPath(dir.path()), FileSystem::Default(), &scan);
    ASSERT_TRUE(s.ok()) << "flip at byte " << off << ": " << s.message();
    // The damaged txn must never surface as committed; the two clean
    // transactions before it always must.
    EXPECT_EQ(scan.committed.size(), 2u) << "flip at byte " << off;
    EXPECT_TRUE(scan.torn_tail) << "flip at byte " << off;
  }
}

// --- graph-level durability ----------------------------------------------

DurabilityOptions TestDurOpts(FileSystem* fs = nullptr) {
  DurabilityOptions opts;
  opts.wal.fsync_policy = FsyncPolicy::kAlways;
  opts.fs = fs;
  return opts;
}

TEST(GraphDurabilityTest, CommitsReplayOnOpen) {
  TempDir dir;
  Version last_commit = 0;
  {
    TinyGraph tiny;
    ASSERT_TRUE(
        tiny.graph->EnableDurability(dir.path(), TestDurOpts()).ok());
    ASSERT_TRUE(Graph::SnapshotExists(dir.path()));

    auto t1 = tiny.graph->BeginWrite({tiny.persons[0], tiny.persons[3]});
    ASSERT_TRUE(
        t1->AddEdge(tiny.knows, tiny.persons[0], tiny.persons[3], 7).ok());
    ASSERT_TRUE(t1->Commit(&last_commit).ok());

    auto t2 = tiny.graph->BeginWrite({tiny.messages[0]});
    t2->SetProperty(tiny.messages[0], tiny.len, Value::Int(999));
    ASSERT_TRUE(t2->Commit(&last_commit).ok());

    auto t3 = tiny.graph->BeginWrite({tiny.persons[1]});
    VertexId nv =
        t3->CreateVertex(tiny.person, 50, {{tiny.id, Value::Int(50)}});
    ASSERT_TRUE(t3->AddEdge(tiny.knows, tiny.persons[1], nv, 8).ok());
    ASSERT_TRUE(t3->Commit(&last_commit).ok());
  }

  std::unique_ptr<Graph> g;
  RecoveryInfo info;
  ASSERT_TRUE(Graph::Open(dir.path(), TestDurOpts(), &g, &info).ok());
  EXPECT_EQ(info.replayed_txns, 3u);
  EXPECT_EQ(info.skipped_txns, 0u);
  EXPECT_EQ(info.truncated_bytes, 0u);
  EXPECT_EQ(g->CurrentVersion(), last_commit);

  Catalog& c = g->catalog();
  LabelId person = c.AddVertexLabel("PERSON");
  LabelId message = c.AddVertexLabel("MESSAGE");
  LabelId knows = c.AddEdgeLabel("KNOWS");
  PropertyId len = c.Property("len");
  Version v = g->CurrentVersion();
  VertexId p0 = g->FindByExtId(person, 0, v);
  VertexId p1 = g->FindByExtId(person, 1, v);
  VertexId m0 = g->FindByExtId(message, 0, v);
  VertexId nv = g->FindByExtId(person, 50, v);
  ASSERT_NE(nv, kInvalidVertex);
  EXPECT_EQ(g->GetProperty(m0, len, v), Value::Int(999));
  RelationId knows_out = g->FindRelation(person, knows, person,
                                         Direction::kOut);
  EXPECT_EQ(g->Degree(knows_out, p0, v), 3u);  // 2 bulk + replayed edge
  EXPECT_EQ(g->Degree(knows_out, p1, v), 3u);  // 2 bulk + edge to nv
}

TEST(GraphDurabilityTest, RecoveryIsIdempotentAcrossReopens) {
  TempDir dir;
  {
    TinyGraph tiny;
    ASSERT_TRUE(
        tiny.graph->EnableDurability(dir.path(), TestDurOpts()).ok());
    auto t = tiny.graph->BeginWrite({tiny.messages[1]});
    t->SetProperty(tiny.messages[1], tiny.len, Value::Int(7));
    Version v = 0;
    ASSERT_TRUE(t->Commit(&v).ok());
  }
  // Open twice without checkpointing: the second open replays the same
  // WAL against the same snapshot and must see identical state.
  for (int round = 0; round < 2; ++round) {
    std::unique_ptr<Graph> g;
    RecoveryInfo info;
    ASSERT_TRUE(Graph::Open(dir.path(), TestDurOpts(), &g, &info).ok());
    EXPECT_EQ(info.replayed_txns, 1u) << "round " << round;
    Catalog& c = g->catalog();
    LabelId message = c.AddVertexLabel("MESSAGE");
    Version v = g->CurrentVersion();
    VertexId m1 = g->FindByExtId(message, 1, v);
    EXPECT_EQ(g->GetProperty(m1, c.Property("len"), v), Value::Int(7));
  }
}

TEST(GraphDurabilityTest, TornWalTailTruncatedOnOpen) {
  TempDir dir;
  {
    TinyGraph tiny;
    ASSERT_TRUE(
        tiny.graph->EnableDurability(dir.path(), TestDurOpts()).ok());
    for (int i = 0; i < 2; ++i) {
      auto t = tiny.graph->BeginWrite({tiny.messages[i]});
      t->SetProperty(tiny.messages[i], tiny.len, Value::Int(1000 + i));
      Version v = 0;
      ASSERT_TRUE(t->Commit(&v).ok());
    }
  }
  // Tear the tail: cut the last 5 bytes of the second transaction.
  std::string wal = ReadFile(WalPath(dir.path()));
  WriteFile(WalPath(dir.path()), wal.substr(0, wal.size() - 5));

  std::unique_ptr<Graph> g;
  RecoveryInfo info;
  ASSERT_TRUE(Graph::Open(dir.path(), TestDurOpts(), &g, &info).ok());
  EXPECT_EQ(info.replayed_txns, 1u);
  EXPECT_GT(info.truncated_bytes, 0u);
  Catalog& c = g->catalog();
  LabelId message = c.AddVertexLabel("MESSAGE");
  Version v = g->CurrentVersion();
  EXPECT_EQ(g->GetProperty(g->FindByExtId(message, 0, v), c.Property("len"),
                           v),
            Value::Int(1000));
  EXPECT_EQ(g->GetProperty(g->FindByExtId(message, 1, v), c.Property("len"),
                           v),
            Value::Int(123));  // bulk value: torn txn must not apply

  // The truncation is physical: a second scan sees a clean file.
  WalScanResult scan;
  ASSERT_TRUE(ScanWal(WalPath(dir.path()), FileSystem::Default(), &scan).ok());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.committed.size(), 1u);
}

TEST(GraphDurabilityTest, CheckpointTruncatesWalAndSkipsReplayed) {
  TempDir dir;
  uint64_t wal_after_checkpoint = 0;
  {
    TinyGraph tiny;
    ASSERT_TRUE(
        tiny.graph->EnableDurability(dir.path(), TestDurOpts()).ok());
    for (int i = 0; i < 3; ++i) {
      auto t = tiny.graph->BeginWrite({tiny.messages[i]});
      t->SetProperty(tiny.messages[i], tiny.len, Value::Int(2000 + i));
      Version v = 0;
      ASSERT_TRUE(t->Commit(&v).ok());
    }
    uint64_t before = tiny.graph->WalBytes();
    ASSERT_TRUE(tiny.graph->Checkpoint().ok());
    wal_after_checkpoint = tiny.graph->WalBytes();
    EXPECT_LT(wal_after_checkpoint, before);

    // One more commit after the checkpoint.
    auto t = tiny.graph->BeginWrite({tiny.messages[3]});
    t->SetProperty(tiny.messages[3], tiny.len, Value::Int(2003));
    Version v = 0;
    ASSERT_TRUE(t->Commit(&v).ok());
  }

  std::unique_ptr<Graph> g;
  RecoveryInfo info;
  ASSERT_TRUE(Graph::Open(dir.path(), TestDurOpts(), &g, &info).ok());
  // Only the post-checkpoint transaction replays.
  EXPECT_EQ(info.replayed_txns, 1u);
  Catalog& c = g->catalog();
  LabelId message = c.AddVertexLabel("MESSAGE");
  PropertyId len = c.Property("len");
  Version v = g->CurrentVersion();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(g->GetProperty(g->FindByExtId(message, i, v), len, v),
              Value::Int(2000 + i))
        << "message " << i;
  }
}

TEST(GraphDurabilityTest, ShouldCheckpointFollowsThreshold) {
  TempDir dir;
  TinyGraph tiny;
  DurabilityOptions opts = TestDurOpts();
  // Between the 8-byte WAL magic and one committed txn's frames: a fresh
  // (or freshly rotated) log sits below, any commit pushes it above.
  opts.checkpoint_wal_bytes = 32;
  ASSERT_TRUE(tiny.graph->EnableDurability(dir.path(), opts).ok());
  EXPECT_FALSE(tiny.graph->ShouldCheckpoint());  // header only
  auto t = tiny.graph->BeginWrite({tiny.messages[0]});
  t->SetProperty(tiny.messages[0], tiny.len, Value::Int(1));
  Version v = 0;
  ASSERT_TRUE(t->Commit(&v).ok());
  EXPECT_TRUE(tiny.graph->ShouldCheckpoint());
  ASSERT_TRUE(tiny.graph->MaybeCheckpoint().ok());
  EXPECT_FALSE(tiny.graph->ShouldCheckpoint());
}

// --- fault injection ------------------------------------------------------

TEST(FaultInjectionTest, AppendFailureLatchesReadOnly) {
  TempDir dir;
  FaultFS fs;
  TinyGraph tiny;
  ASSERT_TRUE(
      tiny.graph->EnableDurability(dir.path(), TestDurOpts(&fs)).ok());

  fs.Arm(1, FaultFS::FaultKind::kFail);
  auto t = tiny.graph->BeginWrite({tiny.messages[0]});
  t->SetProperty(tiny.messages[0], tiny.len, Value::Int(31337));
  Version v = 0;
  Status s = t->Commit(&v);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(fs.faults_fired(), 1u);
  EXPECT_TRUE(tiny.graph->read_only());
  EXPECT_NE(tiny.graph->read_only_reason().find("injected"),
            std::string::npos);

  // The failed transaction must not be visible.
  Version now = tiny.graph->CurrentVersion();
  EXPECT_EQ(tiny.graph->GetProperty(tiny.messages[0], tiny.len, now),
            Value::Int(140));

  // Reads keep working; further commits fail fast.
  EXPECT_EQ(tiny.graph->Degree(tiny.knows_out, tiny.persons[0], now), 2u);
  auto t2 = tiny.graph->BeginWrite({tiny.messages[1]});
  t2->SetProperty(tiny.messages[1], tiny.len, Value::Int(1));
  Version v2 = 0;
  EXPECT_FALSE(t2->Commit(&v2).ok());

  // Checkpointing a read-only graph is refused (nothing new is durable).
  EXPECT_FALSE(tiny.graph->Checkpoint().ok());
}

TEST(FaultInjectionTest, ShortWriteLeavesRecoverableLog) {
  TempDir dir;
  Version committed_version = 0;
  {
    FaultFS fs;
    TinyGraph tiny;
    ASSERT_TRUE(
        tiny.graph->EnableDurability(dir.path(), TestDurOpts(&fs)).ok());

    auto ok_txn = tiny.graph->BeginWrite({tiny.messages[0]});
    ok_txn->SetProperty(tiny.messages[0], tiny.len, Value::Int(777));
    ASSERT_TRUE(ok_txn->Commit(&committed_version).ok());

    // The next append tears mid-frame: half the bytes land, then EIO.
    fs.Arm(1, FaultFS::FaultKind::kShortWrite);
    auto torn = tiny.graph->BeginWrite({tiny.messages[1]});
    torn->SetProperty(tiny.messages[1], tiny.len, Value::Int(888));
    Version v = 0;
    EXPECT_FALSE(torn->Commit(&v).ok());
    EXPECT_TRUE(tiny.graph->read_only());
  }

  // Recovery (with a healthy filesystem) keeps the committed transaction
  // and truncates the torn one.
  std::unique_ptr<Graph> g;
  RecoveryInfo info;
  ASSERT_TRUE(Graph::Open(dir.path(), TestDurOpts(), &g, &info).ok());
  EXPECT_EQ(info.replayed_txns, 1u);
  EXPECT_GT(info.truncated_bytes, 0u);
  Catalog& c = g->catalog();
  LabelId message = c.AddVertexLabel("MESSAGE");
  PropertyId len = c.Property("len");
  Version v = g->CurrentVersion();
  EXPECT_EQ(g->CurrentVersion(), committed_version);
  EXPECT_EQ(g->GetProperty(g->FindByExtId(message, 0, v), len, v),
            Value::Int(777));
  EXPECT_EQ(g->GetProperty(g->FindByExtId(message, 1, v), len, v),
            Value::Int(123));  // torn txn rolled back to the bulk value
}

TEST(FaultInjectionTest, DelayFaultOnlyDelays) {
  TempDir dir;
  FaultFS fs;
  TinyGraph tiny;
  ASSERT_TRUE(
      tiny.graph->EnableDurability(dir.path(), TestDurOpts(&fs)).ok());
  fs.Arm(1, FaultFS::FaultKind::kDelay, /*delay_ms=*/10);
  auto t = tiny.graph->BeginWrite({tiny.messages[0]});
  t->SetProperty(tiny.messages[0], tiny.len, Value::Int(5));
  Version v = 0;
  EXPECT_TRUE(t->Commit(&v).ok());
  EXPECT_FALSE(tiny.graph->read_only());
  EXPECT_EQ(fs.faults_fired(), 1u);
}

// --- fsync policies -------------------------------------------------------

TEST(FsyncPolicyTest, ParseAndName) {
  FsyncPolicy p;
  ASSERT_TRUE(ParseFsyncPolicy("always", &p));
  EXPECT_EQ(p, FsyncPolicy::kAlways);
  ASSERT_TRUE(ParseFsyncPolicy("interval", &p));
  EXPECT_EQ(p, FsyncPolicy::kInterval);
  ASSERT_TRUE(ParseFsyncPolicy("never", &p));
  EXPECT_EQ(p, FsyncPolicy::kNever);
  EXPECT_FALSE(ParseFsyncPolicy("sometimes", &p));
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kAlways), "always");
}

class FsyncPolicySmokeTest
    : public ::testing::TestWithParam<FsyncPolicy> {};

TEST_P(FsyncPolicySmokeTest, CommitAndRecover) {
  TempDir dir;
  {
    TinyGraph tiny;
    DurabilityOptions opts = TestDurOpts();
    opts.wal.fsync_policy = GetParam();
    opts.wal.fsync_interval_ms = 1;
    ASSERT_TRUE(tiny.graph->EnableDurability(dir.path(), opts).ok());
    auto t = tiny.graph->BeginWrite({tiny.messages[0]});
    t->SetProperty(tiny.messages[0], tiny.len, Value::Int(4242));
    Version v = 0;
    ASSERT_TRUE(t->Commit(&v).ok());
    // Graph destruction closes the WAL writer (flushing the file).
  }
  std::unique_ptr<Graph> g;
  RecoveryInfo info;
  ASSERT_TRUE(Graph::Open(dir.path(), TestDurOpts(), &g, &info).ok());
  EXPECT_EQ(info.replayed_txns, 1u);
  Catalog& c = g->catalog();
  LabelId message = c.AddVertexLabel("MESSAGE");
  Version v = g->CurrentVersion();
  EXPECT_EQ(g->GetProperty(g->FindByExtId(message, 0, v), c.Property("len"),
                           v),
            Value::Int(4242));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, FsyncPolicySmokeTest,
                         ::testing::Values(FsyncPolicy::kAlways,
                                           FsyncPolicy::kInterval,
                                           FsyncPolicy::kNever));

}  // namespace
}  // namespace ges

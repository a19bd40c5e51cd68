// Crash-recovery harness: forks a writer child that commits durable
// transactions in a loop, SIGKILLs it at a random point, then recovers the
// directory in-process and checks the two durability invariants:
//
//   1. zero committed-transaction loss — every transaction the child was
//      acknowledged for (its ack line was written AFTER Commit returned,
//      i.e. after the WAL fsync) is present after recovery;
//   2. no phantom writes — recovered state is an exact prefix of the
//      child's transaction sequence: no holes, no partial transactions,
//      no data from uncommitted tails.
//
// The child auto-checkpoints on a tiny WAL threshold, so kills also land
// inside snapshot writes and WAL rotations (the checkpoint crash window).
//
// Environment knobs (used by scripts/crash_loop.sh):
//   GES_CRASH_ITERS  fork/kill/recover iterations (default 6)
//   GES_CRASH_DIR    persistent data directory (default: fresh temp dir)
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "storage/graph.h"

namespace ges {
namespace {

DurabilityOptions CrashOpts() {
  DurabilityOptions opts;
  // The child must be single-threaded after fork() and every ack must mean
  // "durable", so group commit with fsync-per-commit is the only safe mode.
  opts.wal.fsync_policy = FsyncPolicy::kAlways;
  // Tiny threshold: the writer checkpoints every few transactions, putting
  // kills inside snapshot writes and WAL rotations too.
  opts.checkpoint_wal_bytes = 4096;
  return opts;
}

struct CrashSchema {
  LabelId node;
  LabelId link;
  PropertyId val;
  PropertyId counter;
  RelationId link_out;
  VertexId root;
};

CrashSchema Resolve(Graph* g) {
  CrashSchema s;
  Catalog& c = g->catalog();
  s.node = c.AddVertexLabel("NODE");
  s.link = c.AddEdgeLabel("LINK");
  s.val = c.AddProperty(s.node, "val", ValueType::kInt64);
  s.counter = c.AddProperty(s.node, "counter", ValueType::kInt64);
  s.link_out = g->FindRelation(s.node, s.link, s.node, Direction::kOut);
  s.root = g->FindByExtId(s.node, 0, g->CurrentVersion());
  return s;
}

void Bootstrap(const std::string& dir) {
  Graph g;
  Catalog& c = g.catalog();
  LabelId node = c.AddVertexLabel("NODE");
  LabelId link = c.AddEdgeLabel("LINK");
  PropertyId val = c.AddProperty(node, "val", ValueType::kInt64);
  PropertyId counter = c.AddProperty(node, "counter", ValueType::kInt64);
  g.RegisterRelation(node, link, node);
  VertexId root = g.AddVertexBulk(node, 0);
  g.SetPropertyBulk(root, val, Value::Int(0));
  g.SetPropertyBulk(root, counter, Value::Int(0));
  g.FinalizeBulk();
  ASSERT_TRUE(g.EnableDurability(dir, CrashOpts()).ok());
}

int64_t MaxExt(const Graph& g, LabelId node) {
  Version v = g.CurrentVersion();
  std::vector<VertexId> nodes;
  g.ScanLabel(node, v, &nodes);
  int64_t max_ext = 0;
  for (VertexId n : nodes) max_ext = std::max(max_ext, g.ExtIdOf(n, v));
  return max_ext;
}

// The forked writer. Runs with plain return codes (no gtest in the child;
// it exits via _exit). Each transaction i atomically creates vertex ext=i
// (val = i*7), links root -> i, and bumps root's counter to i — so a
// recovered graph is valid iff it reflects an exact prefix.
int RunWriterChild(const std::string& dir) {
  std::unique_ptr<Graph> g;
  if (!Graph::Open(dir, CrashOpts(), &g).ok()) return 3;
  CrashSchema s = Resolve(g.get());
  if (s.root == kInvalidVertex) return 3;
  int64_t k = MaxExt(*g, s.node);

  int ack_fd = ::open((dir + "/acks.txt").c_str(),
                      O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (ack_fd < 0) return 4;

  for (int64_t i = k + 1; i <= k + 100000; ++i) {
    auto txn = g->BeginWrite({s.root});
    VertexId nv = txn->CreateVertex(s.node, i, {{s.val, Value::Int(i * 7)}});
    if (!txn->AddEdge(s.link, s.root, nv).ok()) return 5;
    txn->SetProperty(s.root, s.counter, Value::Int(i));
    Version v = 0;
    if (!txn->Commit(&v).ok()) return 6;
    // Ack AFTER Commit returned: the transaction is durable (WAL fsynced),
    // so this line is the "client was told it committed" record.
    char line[32];
    int n = std::snprintf(line, sizeof(line), "%lld\n",
                          static_cast<long long>(i));
    if (::write(ack_fd, line, static_cast<size_t>(n)) != n) return 7;
    g->MaybeCheckpoint();
  }
  return 0;
}

int64_t MaxAcked(const std::string& dir) {
  std::ifstream in(dir + "/acks.txt");
  int64_t max_acked = 0;
  int64_t v;
  while (in >> v) max_acked = std::max(max_acked, v);
  return max_acked;
}

// Recovers the directory and checks both invariants. Returns the number of
// applied transactions for progress reporting.
int64_t VerifyRecovered(const std::string& dir) {
  std::unique_ptr<Graph> g;
  RecoveryInfo info;
  Status st = Graph::Open(dir, CrashOpts(), &g, &info);
  EXPECT_TRUE(st.ok()) << st.message();
  if (!st.ok()) return -1;

  CrashSchema s = Resolve(g.get());
  EXPECT_NE(s.root, kInvalidVertex);
  Version ver = g->CurrentVersion();

  std::vector<VertexId> nodes;
  g->ScanLabel(s.node, ver, &nodes);
  int64_t max_applied = 0;
  for (VertexId n : nodes) {
    max_applied = std::max(max_applied, g->ExtIdOf(n, ver));
  }

  // Invariant 1: nothing acknowledged is lost.
  int64_t max_acked = MaxAcked(dir);
  EXPECT_GE(max_applied, max_acked)
      << "acknowledged transaction lost after crash";

  // Invariant 2: exact prefix 1..max_applied, fully applied, no phantoms.
  EXPECT_EQ(nodes.size(), static_cast<size_t>(max_applied) + 1)
      << "holes or phantom vertices in the recovered ext sequence";
  for (int64_t i = 1; i <= max_applied; ++i) {
    VertexId v = g->FindByExtId(s.node, i, ver);
    EXPECT_NE(v, kInvalidVertex) << "missing vertex ext=" << i;
    if (v == kInvalidVertex) continue;
    EXPECT_EQ(g->GetProperty(v, s.val, ver), Value::Int(i * 7))
        << "partial transaction visible for ext=" << i;
  }
  const uint32_t degree = g->Neighbors(s.link_out, s.root, ver).size;
  EXPECT_EQ(degree, static_cast<uint32_t>(max_applied))
      << "root out-degree does not match applied transactions";
  EXPECT_EQ(g->GetProperty(s.root, s.counter, ver),
            Value::Int(max_applied))
      << "root counter out of step: partial transaction visible";
  return max_applied;
}

TEST(CrashRecoveryTest, RandomSigkillLoopLosesNothing) {
  const char* dir_env = std::getenv("GES_CRASH_DIR");
  std::string dir;
  bool own_dir = false;
  if (dir_env != nullptr && dir_env[0] != '\0') {
    dir = dir_env;
    std::filesystem::create_directories(dir);
  } else {
    char buf[] = "/tmp/ges_crash_test_XXXXXX";
    dir = ::mkdtemp(buf);
    own_dir = true;
  }
  const char* iters_env = std::getenv("GES_CRASH_ITERS");
  int iters = iters_env != nullptr ? std::atoi(iters_env) : 6;

  if (!Graph::SnapshotExists(dir)) {
    Bootstrap(dir);
    if (::testing::Test::HasFatalFailure()) return;
  }

  std::random_device rd;
  std::mt19937_64 rng(rd());
  for (int iter = 0; iter < iters; ++iter) {
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: plain writer, no gtest machinery, no exit handlers.
      ::_exit(RunWriterChild(dir));
    }
    // Kill at a random point: during recovery, mid-commit, mid-fsync or
    // mid-checkpoint.
    ::usleep(static_cast<useconds_t>(rng() % 40000));
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
    bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    ASSERT_TRUE(killed || clean_exit)
        << "writer child failed before the kill: status=" << status;

    int64_t applied = VerifyRecovered(dir);
    ASSERT_GE(applied, 0);
    if (::testing::Test::HasNonfatalFailure()) {
      FAIL() << "durability invariant violated at iteration " << iter
             << " (applied=" << applied << ")";
    }
  }

  if (own_dir) std::filesystem::remove_all(dir);
}

// Version-chain GC is purely in-memory: pruning between durable commits
// must not change what the WAL replays or what a recovered graph reads.
TEST(CrashRecoveryTest, RecoveryAfterGcReplaysCorrectly) {
  char buf[] = "/tmp/ges_gc_recovery_XXXXXX";
  std::string dir = ::mkdtemp(buf);
  Bootstrap(dir);
  if (::testing::Test::HasFatalFailure()) return;

  {
    std::unique_ptr<Graph> g;
    ASSERT_TRUE(Graph::Open(dir, CrashOpts(), &g).ok());
    CrashSchema s = Resolve(g.get());
    ASSERT_NE(s.root, kInvalidVertex);
    for (int64_t i = 1; i <= 40; ++i) {
      auto txn = g->BeginWrite({s.root});
      VertexId nv =
          txn->CreateVertex(s.node, i, {{s.val, Value::Int(i * 7)}});
      ASSERT_TRUE(txn->AddEdge(s.link, s.root, nv).ok());
      txn->SetProperty(s.root, s.counter, Value::Int(i));
      Version cv = 0;
      ASSERT_TRUE(txn->Commit(&cv).ok());
      // Prune mid-stream: collapses root's counter/adjacency chains while
      // the WAL keeps the full history.
      if (i % 10 == 0) {
        GcStats gc = g->PruneVersions();
        if (i > 10) {
          EXPECT_GT(gc.entries_pruned, 0u) << "i=" << i;
        }
      }
    }
    // Exit WITHOUT a checkpoint: recovery must replay the whole WAL over
    // the bootstrap snapshot, rebuilding the chains GC collapsed.
  }

  int64_t applied = VerifyRecovered(dir);
  EXPECT_EQ(applied, 40);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ges

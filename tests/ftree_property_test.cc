// Property-based tests: random f-Trees must satisfy the factorization
// invariants — count DP == enumerator count, per-row multiplicities sum to
// the total, flatten output matches brute-force expansion, selection
// monotonicity, dead-row skipping.
#include <gtest/gtest.h>

#include "common/random.h"
#include "executor/ftree.h"

namespace ges {
namespace {

// Which nodes RandomTree gives a selection vector. kNone makes every leaf a
// unit leaf (the count DP weighs its ranges by length); kAll puts every
// node on the prefix-sum path; kRandom mixes both in one tree.
enum class SelMode { kNone, kAll, kRandom };
constexpr SelMode kSelModes[] = {SelMode::kNone, SelMode::kAll,
                                 SelMode::kRandom};

// Builds a random tree with up to `max_nodes` nodes and `max_fanout` rows
// per parent row; returns the tree. Every node gets one int64 column with
// globally unique values; `mode` decides which nodes get a random
// selection vector.
std::unique_ptr<FTree> RandomTree(Rng& rng, int max_nodes, int max_fanout,
                                  double invalid_prob,
                                  SelMode mode = SelMode::kRandom) {
  auto tree = std::make_unique<FTree>();
  struct Pending {
    FTreeNode* node;
    int depth;
  };
  int counter = 0;
  FTreeNode* root = tree->CreateRoot();
  {
    ValueVector col(ValueType::kInt64);
    size_t rows = 1 + rng.Uniform(4);
    for (size_t i = 0; i < rows; ++i) col.AppendInt(counter++);
    root->block.AddColumn("c0", std::move(col));
    tree->RegisterColumns(root);
  }
  std::vector<FTreeNode*> nodes{root};
  int made = 1;
  Rng local(rng.Next());
  while (made < max_nodes) {
    FTreeNode* parent = nodes[local.Uniform(nodes.size())];
    if (parent->children.size() >= 3) {
      if (nodes.size() == 1) break;
      continue;
    }
    FTreeNode* child = tree->AddChild(parent);
    size_t parent_rows = parent->block.NumRows();
    child->parent_index.resize(parent_rows);
    ValueVector col(ValueType::kInt64);
    uint64_t off = 0;
    for (size_t r = 0; r < parent_rows; ++r) {
      uint64_t n = local.Uniform(max_fanout + 1);  // may be 0 (empty range)
      child->parent_index[r] = IndexRange{off, off + n};
      for (uint64_t i = 0; i < n; ++i) col.AppendInt(counter++);
      off += n;
    }
    child->block.AddColumn("c" + std::to_string(made), std::move(col));
    tree->RegisterColumns(child);
    nodes.push_back(child);
    ++made;
  }
  // Random selections.
  for (FTreeNode* n : nodes) {
    if (mode == SelMode::kNone) break;
    if (mode == SelMode::kAll || local.NextDouble() < 0.7) {
      std::vector<uint8_t>& sel = n->MutableSel();
      for (auto& s : sel) s = local.NextDouble() < invalid_prob ? 0 : 1;
    }
  }
  return tree;
}

// Brute-force tuple count by recursive expansion (independent oracle).
uint64_t BruteForceCount(const FTreeNode* node, uint64_t row) {
  if (!node->RowValid(row)) return 0;
  uint64_t prod = 1;
  for (const auto& child : node->children) {
    const IndexRange& range = child->parent_index[row];
    uint64_t sum = 0;
    for (uint64_t r = range.begin; r < range.end; ++r) {
      sum += BruteForceCount(child.get(), r);
    }
    prod *= sum;
    if (prod == 0) return 0;
  }
  return prod;
}

uint64_t BruteForceTotal(const FTree& tree) {
  uint64_t total = 0;
  const FTreeNode* root = tree.root();
  for (uint64_t r = 0; r < root->block.NumRows(); ++r) {
    total += BruteForceCount(root, r);
  }
  return total;
}

class FTreeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(FTreeRandomTest, CountDpMatchesEnumeratorAndOracle) {
  Rng rng(GetParam() * 7919 + 1);
  for (SelMode mode : kSelModes) {
    auto tree = RandomTree(rng, 6, 4, 0.3, mode);
    uint64_t dp = tree->CountTuples();
    uint64_t oracle = BruteForceTotal(*tree);
    TupleEnumerator e(*tree);
    uint64_t enumerated = 0;
    while (e.Next()) ++enumerated;
    EXPECT_EQ(dp, oracle);
    EXPECT_EQ(enumerated, oracle);
  }
}

TEST_P(FTreeRandomTest, PerRowMultiplicitiesSumToTotal) {
  Rng rng(GetParam() * 104729 + 3);
  for (SelMode mode : kSelModes) {
    auto tree = RandomTree(rng, 5, 4, 0.25, mode);
    uint64_t total = tree->CountTuples();
    for (const FTreeNode* node : tree->Preorder()) {
      std::vector<uint64_t> counts = tree->TupleCountsForNode(node);
      uint64_t sum = 0;
      for (uint64_t c : counts) sum += c;
      EXPECT_EQ(sum, total) << "node multiplicities must partition the tuples";
    }
  }
}

TEST_P(FTreeRandomTest, MultiplicityMatchesEnumerator) {
  Rng rng(GetParam() * 31337 + 11);
  for (SelMode mode : kSelModes) {
    auto tree = RandomTree(rng, 5, 3, 0.2, mode);
    // Every node as the target: its per-row occurrences, counted through
    // the enumerator, must equal the DP's multiplicities.
    for (const FTreeNode* target : tree->Preorder()) {
      std::vector<uint64_t> observed(target->block.NumRows(), 0);
      TupleEnumerator e(*tree);
      while (e.Next()) ++observed[e.RowOf(target)];
      EXPECT_EQ(tree->TupleCountsForNode(target), observed);
    }
  }
}

TEST_P(FTreeRandomTest, FlattenRowCountMatchesAndRespectsLimit) {
  Rng rng(GetParam() * 271 + 5);
  auto tree = RandomTree(rng, 6, 3, 0.3);
  uint64_t total = tree->CountTuples();

  std::vector<std::string> cols;
  Schema schema;
  for (const FTreeNode* n : tree->Preorder()) {
    for (const ColumnDef& c : n->block.schema().columns()) {
      cols.push_back(c.name);
      schema.Add(c.name, c.type);
    }
  }
  FlatBlock out(schema);
  tree->Flatten(cols, &out);
  EXPECT_EQ(out.NumRows(), total);

  if (total > 1) {
    FlatBlock limited(schema);
    tree->Flatten(cols, &limited, total / 2);
    EXPECT_EQ(limited.NumRows(), total / 2);
  }
}

TEST_P(FTreeRandomTest, InvalidatingRowsNeverIncreasesCount) {
  Rng rng(GetParam() * 13 + 17);
  auto tree = RandomTree(rng, 5, 3, 0.0);
  uint64_t before = tree->CountTuples();
  // Invalidate a random row of a random node.
  auto nodes = tree->PreorderMutable();
  Rng pick(GetParam());
  FTreeNode* node = nodes[pick.Uniform(nodes.size())];
  if (node->block.NumRows() > 0) {
    node->MutableSel()[pick.Uniform(node->block.NumRows())] = 0;
  }
  EXPECT_LE(tree->CountTuples(), before);
}

// Adds a child named "new" under preorder node `at`, whose row r lists
// fanout[r] rows. With `skip_dead`, a row FTreeNode::RowLive calls dead,
// asked before the child exists as an Expand asks, lists none.
void AddFanoutChild(FTree* tree, size_t at,
                    const std::vector<uint64_t>& fanout, bool skip_dead) {
  FTreeNode* parent = tree->PreorderMutable()[at];
  const size_t kids = parent->children.size();
  std::vector<uint8_t> live(fanout.size(), 1);
  for (size_t r = 0; r < fanout.size() && skip_dead; ++r) {
    live[r] = parent->RowLive(r, kids) ? 1 : 0;
  }
  FTreeNode* child = tree->AddChild(parent);
  child->parent_index.resize(fanout.size());
  ValueVector col(ValueType::kInt64);
  uint64_t off = 0;
  for (size_t r = 0; r < fanout.size(); ++r) {
    const uint64_t n = live[r] != 0 ? fanout[r] : 0;
    child->parent_index[r] = IndexRange{off, off + n};
    for (uint64_t i = 0; i < n; ++i) {
      col.AppendInt(static_cast<int64_t>(1000000 + 16 * r + i));
    }
    off += n;
  }
  child->block.AddColumn("new", std::move(col));
  tree->RegisterColumns(child);
}

FlatBlock FlattenAll(const FTree& tree) {
  std::vector<std::string> cols;
  Schema schema;
  for (const FTreeNode* n : tree.Preorder()) {
    for (const ColumnDef& c : n->block.schema().columns()) {
      cols.push_back(c.name);
      schema.Add(c.name, c.type);
    }
  }
  FlatBlock out(schema);
  tree.Flatten(cols, &out);
  return out;
}

// A child that gives dead rows empty ranges encodes the same tuples, in
// the same order, as one that expands every row: rows invalid or listed by
// no row of an existing child join nothing either way.
TEST_P(FTreeRandomTest, SkippingDeadRowsKeepsTuples) {
  for (SelMode mode : kSelModes) {
    const uint64_t seed = GetParam() * 6151 + 19 + static_cast<int>(mode);
    Rng rng_full(seed);
    Rng rng_live(seed);
    auto full = RandomTree(rng_full, 6, 3, 0.3, mode);
    auto live = RandomTree(rng_live, 6, 3, 0.3, mode);
    Rng pick(seed);
    const std::vector<const FTreeNode*> nodes = full->Preorder();
    const size_t at = pick.Uniform(nodes.size());
    std::vector<uint64_t> fanout(nodes[at]->block.NumRows());
    for (uint64_t& n : fanout) n = pick.Uniform(4);
    AddFanoutChild(full.get(), at, fanout, /*skip_dead=*/false);
    AddFanoutChild(live.get(), at, fanout, /*skip_dead=*/true);
    EXPECT_EQ(live->CountTuples(), full->CountTuples());
    EXPECT_EQ(live->CountTuples(), BruteForceTotal(*live));
    EXPECT_EQ(FlattenAll(*live).rows(), FlattenAll(*full).rows());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FTreeRandomTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace ges

// Operator-level tests on the paper's Figure 8 tiny graph: every plan
// operator exercised across all engine variants, plus edge cases, and the
// shared sort and hash-aggregate kernels checked on random rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/random.h"
#include "executor/executor.h"
#include "executor/executor_internal.h"
#include "executor/optimizer.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::OrderedRows;
using testutil::SortedRows;
using testutil::TinyGraph;

class OperatorsTest : public ::testing::Test {
 protected:
  TinyGraph tiny_;

  std::vector<std::string> Run(ExecMode mode, const Plan& plan,
                               bool ordered = false) {
    Executor exec(mode);
    GraphView view(tiny_.graph.get());
    QueryResult r = exec.Run(plan, view);
    return ordered ? OrderedRows(r.table) : SortedRows(r.table);
  }

  void ExpectAllModes(const Plan& plan,
                      const std::vector<std::string>& expected,
                      bool ordered = false) {
    for (ExecMode mode :
         {ExecMode::kVolcano, ExecMode::kFlat, ExecMode::kFactorized,
          ExecMode::kFactorizedFused}) {
      EXPECT_EQ(Run(mode, plan, ordered), expected)
          << "mode=" << ExecModeName(mode);
    }
  }
};

TEST_F(OperatorsTest, NodeByIdSeekFindsVertex) {
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny_.person, 2)
      .GetProperty("p", tiny_.id, ValueType::kInt64, "pid")
      .Output({"pid"});
  ExpectAllModes(b.Build(), {"2|"});
}

TEST_F(OperatorsTest, NodeByIdSeekMissingYieldsEmpty) {
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny_.person, 999).Output({"p"});
  ExpectAllModes(b.Build(), {});
}

TEST_F(OperatorsTest, ScanByLabel) {
  PlanBuilder b("t");
  b.ScanByLabel("p", tiny_.person)
      .GetProperty("p", tiny_.id, ValueType::kInt64, "pid")
      .Output({"pid"});
  ExpectAllModes(b.Build(), {"0|", "1|", "2|", "3|"});
}

TEST_F(OperatorsTest, SingleHopExpand) {
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny_.person, 0)
      .Expand("p", "f", {tiny_.knows_out})
      .GetProperty("f", tiny_.id, ValueType::kInt64, "fid")
      .Output({"fid"});
  ExpectAllModes(b.Build(), {"1|", "2|"});
}

TEST_F(OperatorsTest, TwoHopExpandDistinctMinDistance) {
  // From p0: dist1 = {p1, p2}, dist2 = {p3}.
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny_.person, 0)
      .ExpandEx("p", "f", {tiny_.knows_out}, 1, 2, true, true, "dist", "")
      .GetProperty("f", tiny_.id, ValueType::kInt64, "fid")
      .Output({"fid", "dist"});
  ExpectAllModes(b.Build(), {"1|1|", "2|1|", "3|2|"});
}

TEST_F(OperatorsTest, MinHopsTwoExcludesDirectFriends) {
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny_.person, 0)
      .Expand("p", "fof", {tiny_.knows_out}, 2, 2, true, true)
      .GetProperty("fof", tiny_.id, ValueType::kInt64, "fid")
      .Output({"fid"});
  ExpectAllModes(b.Build(), {"3|"});
}

TEST_F(OperatorsTest, ExpandWithStamp) {
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny_.person, 0)
      .ExpandEx("p", "f", {tiny_.knows_out}, 1, 1, false, false, "", "since")
      .GetProperty("f", tiny_.id, ValueType::kInt64, "fid")
      .Output({"fid", "since"});
  // know(0,1) stamp 101; know(0,2) stamp 102.
  ExpectAllModes(b.Build(), {"1|101|", "2|102|"});
}

TEST_F(OperatorsTest, ExpandTwoRelationsUnion) {
  // Messages of p3's friends == creators reached via two hops.
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny_.person, 1)
      .Expand("p", "msg", {tiny_.person_messages})
      .GetProperty("msg", tiny_.id, ValueType::kInt64, "mid")
      .Output({"mid"});
  ExpectAllModes(b.Build(), {"0|", "1|"});
}

TEST_F(OperatorsTest, MixedLabelMultiRelationExpand) {
  // IC3-shaped: a column holding vertices of two labels expands over one
  // relation per label. Each base table only indexes its own source label,
  // so a PERSON row must not read the MESSAGE table at its label-local
  // offset (or vice versa). x = p1's friends {p0, p3} + its messages
  // {m0, m1}; KNOWS applies to the persons, HAS_CREATOR to the messages.
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny_.person, 1)
      .Expand("p", "x", {tiny_.knows_out, tiny_.person_messages})
      .Expand("x", "y", {tiny_.knows_out, tiny_.msg_creator})
      .GetProperty("x", tiny_.id, ValueType::kInt64, "xid")
      .GetProperty("y", tiny_.id, ValueType::kInt64, "yid")
      .Output({"xid", "yid"});
  ExpectAllModes(b.Build(),
                 {"0|1|", "0|1|", "0|2|", "1|1|", "3|1|", "3|2|"});
}

TEST_F(OperatorsTest, ExpandFromVertexWithNoNeighborsDropsRow) {
  // p0 created no messages: expanding person->message yields nothing.
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny_.person, 0)
      .Expand("p", "msg", {tiny_.person_messages})
      .Output({"msg"});
  ExpectAllModes(b.Build(), {});
}

TEST_F(OperatorsTest, FilterOnProperty) {
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny_.message)
      .GetProperty("m", tiny_.len, ValueType::kInt64, "len")
      .Filter(Expr::Gt(Expr::Col("len"), Expr::Lit(Value::Int(125))))
      .GetProperty("m", tiny_.id, ValueType::kInt64, "mid")
      .Output({"mid", "len"});
  ExpectAllModes(b.Build(), {"0|140|", "3|130|", "5|126|"});
}

TEST_F(OperatorsTest, FilterCrossNodePredicateFlattens) {
  // Predicate touches columns in two different f-Tree nodes: friend id and
  // message len. The factorized engine must de-factor and still agree.
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny_.person, 0)
      .Expand("p", "f", {tiny_.knows_out})
      .GetProperty("f", tiny_.id, ValueType::kInt64, "fid")
      .Expand("f", "m", {tiny_.person_messages})
      .GetProperty("m", tiny_.len, ValueType::kInt64, "len")
      .Filter(Expr::Lt(Expr::Mul(Expr::Col("fid"), Expr::Lit(Value::Int(100))),
                       Expr::Col("len")))
      .GetProperty("m", tiny_.id, ValueType::kInt64, "mid")
      .Output({"fid", "mid"});
  // p0's friends: p1 (m0 len140, m1 len123), p2 (m2 len120).
  // fid*100 < len: p1: 100<140 yes, 100<123 yes; p2: 200<120 no.
  ExpectAllModes(b.Build(), {"1|0|", "1|1|"});
}

TEST_F(OperatorsTest, OrderByWithTies) {
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny_.message)
      .GetProperty("m", tiny_.len, ValueType::kInt64, "len")
      .GetProperty("m", tiny_.id, ValueType::kInt64, "mid")
      .Project({}, {ComputedColumn{
                        Expr::Mul(Expr::Lit(Value::Int(0)), Expr::Col("len")),
                        "zero", ValueType::kInt64}})
      .OrderBy({{"zero", true}, {"mid", false}})
      .Output({"mid"});
  ExpectAllModes(b.Build(), {"5|", "4|", "3|", "2|", "1|", "0|"},
                 /*ordered=*/true);
}

TEST_F(OperatorsTest, OrderByLimitTopK) {
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny_.message)
      .GetProperty("m", tiny_.len, ValueType::kInt64, "len")
      .GetProperty("m", tiny_.id, ValueType::kInt64, "mid")
      .OrderBy({{"len", false}, {"mid", true}}, 3)
      .Output({"mid", "len"});
  ExpectAllModes(b.Build(), {"0|140|", "3|130|", "5|126|"}, /*ordered=*/true);
}

TEST_F(OperatorsTest, AggregateCountPerGroup) {
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny_.message)
      .Expand("m", "creator", {tiny_.msg_creator})
      .GetProperty("creator", tiny_.id, ValueType::kInt64, "cid")
      .Aggregate({"cid"}, {AggSpec{AggSpec::kCount, "", "cnt"}})
      .OrderBy({{"cid", true}})
      .Output({"cid", "cnt"});
  ExpectAllModes(b.Build(), {"1|2|", "2|1|", "3|3|"}, /*ordered=*/true);
}

TEST_F(OperatorsTest, AggregateSumMinMaxAvgDistinct) {
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny_.message)
      .Expand("m", "creator", {tiny_.msg_creator})
      .GetProperty("creator", tiny_.id, ValueType::kInt64, "cid")
      .GetProperty("m", tiny_.len, ValueType::kInt64, "len")
      .Aggregate({"cid"}, {AggSpec{AggSpec::kSum, "len", "sum"},
                           AggSpec{AggSpec::kMin, "len", "min"},
                           AggSpec{AggSpec::kMax, "len", "max"},
                           AggSpec{AggSpec::kAvg, "len", "avg"},
                           AggSpec{AggSpec::kCountDistinct, "len", "nd"}})
      .OrderBy({{"cid", true}})
      .Output({"cid", "sum", "min", "max", "nd"});
  // p1: m0(140), m1(123); p2: m2(120); p3: m3(130), m4(100), m5(126).
  ExpectAllModes(b.Build(),
                 {"1|263|123|140|2|", "2|120|120|120|1|",
                  "3|356|100|130|3|"},
                 /*ordered=*/true);
}

TEST_F(OperatorsTest, GlobalAggregateNoGroups) {
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny_.message)
      .GetProperty("m", tiny_.len, ValueType::kInt64, "len")
      .Aggregate({}, {AggSpec{AggSpec::kCount, "", "cnt"},
                      AggSpec{AggSpec::kSum, "len", "sum"}})
      .Output({"cnt", "sum"});
  ExpectAllModes(b.Build(), {"6|739|"});
}

TEST_F(OperatorsTest, GlobalAggregateOverEmptyInput) {
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny_.person, 999)
      .Expand("p", "f", {tiny_.knows_out})
      .Aggregate({}, {AggSpec{AggSpec::kCount, "", "cnt"}})
      .Output({"cnt"});
  ExpectAllModes(b.Build(), {"0|"});
}

TEST_F(OperatorsTest, DistinctRemovesDuplicates) {
  // Two-hop non-distinct walk produces duplicate endpoints; Distinct
  // collapses them.
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny_.person, 0)
      .Expand("p", "f", {tiny_.knows_out})
      .Expand("f", "ff", {tiny_.knows_out})
      .GetProperty("ff", tiny_.id, ValueType::kInt64, "ffid")
      .Project({{"ffid", "ffid"}})
      .Distinct()
      .Output({"ffid"});
  ExpectAllModes(b.Build(), {"0|", "3|"});
}

TEST_F(OperatorsTest, LimitTruncates) {
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny_.message).Limit(4).Output({"m"});
  Plan plan = b.Build();
  for (ExecMode mode :
       {ExecMode::kVolcano, ExecMode::kFlat, ExecMode::kFactorized,
        ExecMode::kFactorizedFused}) {
    EXPECT_EQ(Run(mode, plan).size(), 4u) << ExecModeName(mode);
  }
}

TEST_F(OperatorsTest, ExpandIntoSemiJoin) {
  // Pairs (a, b) of persons within 2 hops where a directly knows b.
  PlanBuilder b("t");
  b.ScanByLabel("a", tiny_.person)
      .Expand("a", "b", {tiny_.knows_out}, 1, 2, true, true)
      .ExpandInto("a", "b", {tiny_.knows_out}, /*anti=*/false)
      .GetProperty("a", tiny_.id, ValueType::kInt64, "aid")
      .GetProperty("b", tiny_.id, ValueType::kInt64, "bid")
      .Output({"aid", "bid"});
  ExpectAllModes(b.Build(), {"0|1|", "0|2|", "1|0|", "1|3|", "2|0|", "2|3|",
                             "3|1|", "3|2|"});
}

TEST_F(OperatorsTest, ExpandIntoAntiJoin) {
  PlanBuilder b("t");
  b.ScanByLabel("a", tiny_.person)
      .Expand("a", "b", {tiny_.knows_out}, 1, 2, true, true)
      .ExpandInto("a", "b", {tiny_.knows_out}, /*anti=*/true)
      .GetProperty("a", tiny_.id, ValueType::kInt64, "aid")
      .GetProperty("b", tiny_.id, ValueType::kInt64, "bid")
      .Output({"aid", "bid"});
  // 2-hop-only pairs: (0,3), (1,2), (2,1), (3,0).
  ExpectAllModes(b.Build(), {"0|3|", "1|2|", "2|1|", "3|0|"});
}

TEST_F(OperatorsTest, ProjectComputedColumn) {
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny_.message)
      .GetProperty("m", tiny_.len, ValueType::kInt64, "len")
      .Project({}, {ComputedColumn{
                        Expr::Add(Expr::Col("len"), Expr::Lit(Value::Int(1))),
                        "len1", ValueType::kInt64}})
      .Filter(Expr::Eq(Expr::Col("len1"), Expr::Lit(Value::Int(141))))
      .GetProperty("m", tiny_.id, ValueType::kInt64, "mid")
      .Output({"mid", "len1"});
  ExpectAllModes(b.Build(), {"0|141|"});
}

TEST_F(OperatorsTest, ProjectSelectionsRenameAndPrune) {
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny_.message)
      .GetProperty("m", tiny_.id, ValueType::kInt64, "mid")
      .Project({{"mid", "renamed"}})
      .Output({"renamed"});
  ExpectAllModes(b.Build(), {"0|", "1|", "2|", "3|", "4|", "5|"});
}

TEST_F(OperatorsTest, PointerJoinOffMatchesOn) {
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny_.person, 3)
      .Expand("p", "m", {tiny_.person_messages})
      .GetProperty("m", tiny_.len, ValueType::kInt64, "len")
      .Output({"len"});
  Plan plan = b.Build();
  GraphView view(tiny_.graph.get());
  ExecOptions with, without;
  without.pointer_join = false;
  QueryResult a = Executor(ExecMode::kFactorized, with).Run(plan, view);
  QueryResult c = Executor(ExecMode::kFactorized, without).Run(plan, view);
  EXPECT_EQ(SortedRows(a.table), SortedRows(c.table));
}

TEST_F(OperatorsTest, FusedExpandFilteredMatchesUnfused) {
  PlanBuilder b("t");
  b.NodeByIdSeek("p", tiny_.person, 3)
      .Expand("p", "m", {tiny_.person_messages})
      .GetProperty("m", tiny_.len, ValueType::kInt64, "len")
      .Filter(Expr::Gt(Expr::Col("len"), Expr::Lit(Value::Int(110))))
      .GetProperty("m", tiny_.id, ValueType::kInt64, "mid")
      .Output({"mid", "len"});
  ExpectAllModes(b.Build(), {"3|130|", "5|126|"});
}

TEST_F(OperatorsTest, EmptyGraphLabelScan) {
  Graph g;
  LabelId empty = g.catalog().AddVertexLabel("EMPTY");
  g.catalog().AddProperty(empty, "id", ValueType::kInt64);
  g.FinalizeBulk();
  PlanBuilder b("t");
  b.ScanByLabel("x", empty).Output({"x"});
  Plan plan = b.Build();
  GraphView view(&g);
  for (ExecMode mode :
       {ExecMode::kVolcano, ExecMode::kFlat, ExecMode::kFactorized,
        ExecMode::kFactorizedFused}) {
    QueryResult r = Executor(mode).Run(plan, view);
    EXPECT_EQ(r.table.NumRows(), 0u) << ExecModeName(mode);
  }
}

// Per-operator stats must be populated and peak accounting consistent.
TEST_F(OperatorsTest, StatsPopulated) {
  PlanBuilder b("t");
  b.ScanByLabel("m", tiny_.message)
      .GetProperty("m", tiny_.len, ValueType::kInt64, "len")
      .OrderBy({{"len", true}})
      .Output({"len"});
  Plan plan = b.Build();
  GraphView view(tiny_.graph.get());
  for (ExecMode mode : {ExecMode::kFlat, ExecMode::kFactorized,
                        ExecMode::kFactorizedFused}) {
    QueryResult r = Executor(mode).Run(plan, view);
    ASSERT_EQ(r.stats.ops.size(), 3u) << ExecModeName(mode);
    EXPECT_GT(r.stats.peak_intermediate_bytes, 0u);
    for (const OpStats& os : r.stats.ops) {
      EXPECT_LE(os.intermediate_bytes, r.stats.peak_intermediate_bytes);
    }
  }
}

// A sort, limited or not, returns exactly the stable sort's prefix: ties
// keep their input order.
TEST(SortAndLimitTest, LimitKeepsStableOrderAmongTies) {
  Schema schema;
  schema.Add("k", ValueType::kInt64);
  schema.Add("seq", ValueType::kInt64);
  Rng rng(7);
  FlatBlock input(schema);
  std::vector<std::pair<int64_t, int64_t>> oracle;  // (k, seq)
  for (int i = 0; i < 200; ++i) {
    int64_t k = static_cast<int64_t>(rng.Uniform(5));
    input.AppendRow({Value::Int(k), Value::Int(i)});
    oracle.emplace_back(k, i);
  }
  for (bool asc : {true, false}) {
    std::vector<std::pair<int64_t, int64_t>> sorted = oracle;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](const auto& a, const auto& b) {
                       return asc ? a.first < b.first : a.first > b.first;
                     });
    for (uint64_t limit : {uint64_t{0}, uint64_t{1}, uint64_t{7}, uint64_t{40},
                           uint64_t{199}, uint64_t{200}, uint64_t{500},
                           UINT64_MAX}) {
      FlatBlock top = input;
      SortAndLimit(&top, {{"k", asc}}, limit);
      ASSERT_EQ(top.NumRows(), std::min<uint64_t>(limit, 200));
      for (size_t r = 0; r < top.NumRows(); ++r) {
        EXPECT_EQ(top.At(r, 1).AsInt(), sorted[r].second)
            << "asc=" << asc << " limit=" << limit << " row=" << r;
      }
    }
  }
}

// The fused TopK reads each tuple's sort keys from their typed columns and
// builds a row only when it enters the top. SortAndLimit over the same
// tuples in the same enumeration order is the oracle: the GES_f engine runs
// an OrderBy as exactly that, and the same plan with the OrderBy turned
// into a TopK must return the same rows in the same order — for ties,
// mixed directions, int, date, double, bool (the boxed fallback), vertex
// and string keys (dictionary codes, then owned strings once an overlay
// write is gathered), and limits 0, 1, a few, all rows and more.
TEST(StreamTopKTest, MatchesSortAndLimitOracle) {
  Graph g;
  Catalog& c = g.catalog();
  const LabelId person = c.AddVertexLabel("PERSON");
  const LabelId knows = c.AddEdgeLabel("KNOWS");
  const PropertyId name = c.AddProperty(person, "name", ValueType::kString);
  const PropertyId score = c.AddProperty(person, "score", ValueType::kInt64);
  const PropertyId weight =
      c.AddProperty(person, "weight", ValueType::kDouble);
  const PropertyId flag = c.AddProperty(person, "flag", ValueType::kBool);
  const PropertyId born = c.AddProperty(person, "born", ValueType::kDate);
  g.RegisterRelation(person, knows, person, /*has_stamp=*/true);
  static const char* kNames[] = {"ann", "bob", "", "cy", "bob"};
  Rng rng(5);
  std::vector<VertexId> persons;
  for (int i = 0; i < 24; ++i) {
    VertexId v = g.AddVertexBulk(person, i);
    g.SetPropertyBulk(v, name, Value::String(kNames[rng.Uniform(5)]));
    g.SetPropertyBulk(v, score, Value::Int(rng.UniformRange(-2, 1)));
    g.SetPropertyBulk(v, weight,
                      Value::Double(0.5 * rng.UniformRange(-1, 1)));
    g.SetPropertyBulk(v, flag, Value::Bool(rng.Uniform(2) == 1));
    g.SetPropertyBulk(v, born, Value::Date(rng.UniformRange(0, 2)));
    persons.push_back(v);
  }
  for (int i = 0; i < 24; ++i) {
    for (int k = 0; k <= i % 4; ++k) {
      g.AddEdgeBulk(knows, persons[i], persons[rng.Uniform(24)],
                    rng.UniformRange(0, 2));
    }
  }
  g.FinalizeBulk();
  const RelationId rel =
      g.FindRelation(person, knows, person, Direction::kOut);

  auto plan = [&](std::vector<SortKey> keys, uint64_t limit) {
    PlanBuilder b("topk");
    b.ScanByLabel("p", person)
        .ExpandEx("p", "f", {rel}, 1, 1, false, false, "", "since")
        .GetProperty("f", name, ValueType::kString, "f_name")
        .GetProperty("f", score, ValueType::kInt64, "f_score")
        .GetProperty("f", weight, ValueType::kDouble, "f_weight")
        .GetProperty("f", flag, ValueType::kBool, "f_flag")
        .GetProperty("p", born, ValueType::kDate, "p_born")
        .GetProperty("p", score, ValueType::kInt64, "p_score")
        .OrderBy(std::move(keys), limit)
        .Output({"p", "f", "since", "f_name", "f_score", "f_weight",
                 "f_flag", "p_born", "p_score"});
    return b.Build();
  };
  const std::vector<std::vector<SortKey>> key_sets = {
      {{"f_score", true}},
      {{"f_name", true}, {"p_score", false}},
      {{"f_weight", false}, {"p_born", true}},
      {{"f_flag", true}, {"f_name", false}},
      {{"f", false}, {"since", true}},
      {{"p", true}, {"f_score", false}, {"f_name", false}},
  };
  const Executor exec(ExecMode::kFactorized);
  auto check_all = [&](const char* when) {
    SCOPED_TRACE(when);
    GraphView view(&g);
    const uint64_t rows =
        exec.Run(plan({{"f_score", true}}, UINT64_MAX), view).table.NumRows();
    ASSERT_GT(rows, 40u);
    for (const std::vector<SortKey>& keys : key_sets) {
      for (uint64_t limit : {uint64_t{0}, uint64_t{1}, uint64_t{7}, rows,
                             rows + 5}) {
        Plan sorted = plan(keys, limit);
        Plan topk = sorted;
        topk.ops.back().type = OpType::kTopK;
        const std::vector<std::string> want =
            OrderedRows(exec.Run(sorted, view).table);
        EXPECT_EQ(want.size(), std::min(limit, rows));
        EXPECT_EQ(OrderedRows(exec.Run(topk, view).table), want)
            << "keys[0]=" << keys[0].column << " limit=" << limit;
      }
    }
  };
  check_all("dictionary strings");
  auto txn = g.BeginWrite({persons[3]});
  txn->SetProperty(persons[3], name, Value::String("not in the dictionary"));
  ASSERT_GT(txn->Commit(), 0u);
  check_all("owned strings");
}

// Enough groups to grow the group index several times, with every
// aggregate kind, against a map oracle; groups come out in first-encounter
// order.
TEST(HashAggregateTest, ManyGroupsMatchOracle) {
  Schema schema;
  schema.Add("g", ValueType::kInt64);
  schema.Add("v", ValueType::kInt64);
  Rng rng(11);
  FlatBlock input(schema);
  struct Oracle {
    int64_t count = 0, sum = 0, min = INT64_MAX, max = INT64_MIN;
    std::set<int64_t> distinct;
  };
  std::map<int64_t, Oracle> oracle;
  std::vector<int64_t> first_seen;
  for (int i = 0; i < 6000; ++i) {
    int64_t g = static_cast<int64_t>(rng.Uniform(1500)) * 7919;
    int64_t v = static_cast<int64_t>(rng.Uniform(50));
    input.AppendRow({Value::Int(g), Value::Int(v)});
    if (oracle.count(g) == 0) first_seen.push_back(g);
    Oracle& o = oracle[g];
    ++o.count;
    o.sum += v;
    o.min = std::min(o.min, v);
    o.max = std::max(o.max, v);
    o.distinct.insert(v);
  }
  FlatBlock out = HashAggregate(
      input, {"g"},
      {AggSpec{AggSpec::kCount, "", "cnt"}, AggSpec{AggSpec::kSum, "v", "sum"},
       AggSpec{AggSpec::kMin, "v", "min"}, AggSpec{AggSpec::kMax, "v", "max"},
       AggSpec{AggSpec::kCountDistinct, "v", "nd"}});
  ASSERT_EQ(out.NumRows(), first_seen.size());
  for (size_t r = 0; r < out.NumRows(); ++r) {
    int64_t g = out.At(r, 0).AsInt();
    ASSERT_EQ(g, first_seen[r]);
    const Oracle& o = oracle.at(g);
    EXPECT_EQ(out.At(r, 1).AsInt(), o.count);
    EXPECT_EQ(out.At(r, 2).AsInt(), o.sum);
    EXPECT_EQ(out.At(r, 3).AsInt(), o.min);
    EXPECT_EQ(out.At(r, 4).AsInt(), o.max);
    EXPECT_EQ(out.At(r, 5).AsInt(), static_cast<int64_t>(o.distinct.size()));
  }
}

// Typed keys (a vertex and a date) are grouped by their raw words until a
// null key arrives; every group then moves to the Value index with its id,
// so group order stays first-encounter order, a null stays apart from 0,
// and key Values come back with their column types.
TEST(HashAggregateTest, NullKeyMovesTypedGroupsToValueIndex) {
  Schema schema;
  schema.Add("v", ValueType::kVertex);
  schema.Add("d", ValueType::kDate);
  FlatBlock input(schema);
  std::vector<std::pair<Value, Value>> keys;
  for (int i = 0; i < 400; ++i) {
    Value v = Value::Vertex(static_cast<VertexId>(i % 37));
    Value d = i == 300 ? Value::Null() : Value::Date((i % 3) * 86400000LL);
    input.AppendRow({v, d});
    keys.emplace_back(v, d);
  }
  input.AppendRow({Value::Vertex(0), Value::Date(0)});
  FlatBlock out = HashAggregate(input, {"v", "d"},
                                {AggSpec{AggSpec::kCount, "", "cnt"}});
  std::vector<std::pair<Value, Value>> first_seen;
  std::map<std::string, int64_t> counts;
  for (const auto& [v, d] : keys) {
    std::string k = v.ToString() + "|" + d.ToString();
    if (counts[k]++ == 0) first_seen.emplace_back(v, d);
  }
  ++counts["v0|0"];
  ASSERT_EQ(out.NumRows(), first_seen.size());
  for (size_t r = 0; r < out.NumRows(); ++r) {
    EXPECT_EQ(out.At(r, 0).type(), ValueType::kVertex);
    EXPECT_EQ(out.At(r, 0).AsInt(), first_seen[r].first.AsInt());
    EXPECT_EQ(out.At(r, 1).type(), first_seen[r].second.type());
    EXPECT_EQ(out.At(r, 1).AsInt(), first_seen[r].second.AsInt());
    std::string k = out.At(r, 0).ToString() + "|" + out.At(r, 1).ToString();
    EXPECT_EQ(out.At(r, 2).AsInt(), counts.at(k)) << k;
  }
}

// A string key keeps the Value index; groups still come out in
// first-encounter order.
TEST(HashAggregateTest, StringAndIntKeysUseValueIndex) {
  Schema schema;
  schema.Add("s", ValueType::kString);
  schema.Add("i", ValueType::kInt64);
  FlatBlock input(schema);
  const char* names[] = {"b", "a", "b", "c", "a"};
  for (int i = 0; i < 5; ++i) {
    input.AppendRow({Value::String(names[i]), Value::Int(i % 2)});
  }
  FlatBlock out =
      HashAggregate(input, {"s", "i"}, {AggSpec{AggSpec::kCount, "", "cnt"}});
  EXPECT_EQ(testutil::OrderedRows(out),
            (std::vector<std::string>{"b|0|2|", "a|1|1|", "c|1|1|",
                                      "a|0|1|"}));
}

}  // namespace
}  // namespace ges

// Randomized cross-engine equivalence: generate random (but well-formed)
// linear plans over the SNB graph and require all four engines to agree.
// This catches interactions the handwritten operator tests miss.
#include <gtest/gtest.h>

#include <memory>

#include "common/memory_budget.h"
#include "common/random.h"
#include "executor/executor.h"
#include "queries/ldbc.h"
#include "runtime/query_context.h"
#include "tests/test_util.h"

namespace ges {
namespace {

using testutil::SnbFixture;
using testutil::SortedRows;

struct VertexColumn {
  std::string name;
  LabelId label;
};

// Schema-aware random plan generator: tracks bound vertex columns (with
// labels) and value columns so every generated op is well-formed.
class RandomPlanGenerator {
 public:
  RandomPlanGenerator(const SnbFixture& fx, const LdbcContext& ctx,
                      uint64_t seed)
      : fx_(fx), ctx_(ctx), rng_(seed) {}

  Plan Generate() {
    PlanBuilder b("fuzz");
    Reset();

    // Leaf: scan a random label with interesting out-edges, or seek.
    const SnbSchema& s = ctx_.s;
    LabelId start_labels[] = {s.person, s.post, s.comment, s.forum, s.tag};
    LabelId label = start_labels[rng_.Uniform(5)];
    std::string col = NewCol("v");
    if (rng_.Bernoulli(0.5) && label == s.person) {
      b.NodeByIdSeek(col, label,
                     static_cast<int64_t>(
                         rng_.Uniform(fx_.data.persons.size())));
    } else {
      b.ScanByLabel(col, label);
    }
    vertex_cols_.push_back({col, label});

    int ops = 2 + static_cast<int>(rng_.Uniform(5));
    bool aggregated = false;
    int expands = 0;
    for (int i = 0; i < ops && !aggregated; ++i) {
      switch (rng_.Uniform(7)) {
        case 0:
        case 1:
          if (expands < 3) {
            AddExpand(&b);
            ++expands;
          }
          break;
        case 6:
          // An Expand then a Filter on its parent: the counted-Expand shape
          // when nothing after it reads the new column.
          if (expands < 3) {
            std::string parent = AddExpand(&b);
            ++expands;
            if (!parent.empty()) AddFilter(&b, parent);
          }
          break;
        case 2:
          AddGetProperty(&b);
          break;
        case 3:
          AddFilter(&b);
          break;
        case 4:
          if (!int_cols_.empty() && rng_.Bernoulli(0.6)) {
            AddAggregate(&b);
            aggregated = true;
          } else {
            AddGetProperty(&b);
          }
          break;
        case 5:
          if (rng_.Bernoulli(0.3)) {
            b.Distinct();
          } else if (expands < 3) {
            AddExpand(&b);
            ++expands;
          }
          break;
      }
    }
    // Deterministic final order so row order is comparable, and an explicit
    // output column list (cross-engine column order is only defined for
    // explicit outputs; see plan.h). A vertex column past the first may be
    // left out of both, so an Expand whose column nothing reads is counted;
    // rows tied on every sort key are then identical in every output
    // column, so the LIMIT keeps the same rows in every engine.
    if (!aggregated) {
      AddGetProperty(&b);
      std::vector<SortKey> keys;
      std::vector<std::string> output;
      for (const std::string& c : int_cols_) {
        keys.push_back({c, true});
        output.push_back(c);
      }
      for (size_t i = 0; i < vertex_cols_.size(); ++i) {
        if (i > 0 && rng_.Bernoulli(0.5)) continue;
        keys.push_back({vertex_cols_[i].name, true});
        output.push_back(vertex_cols_[i].name);
      }
      b.OrderBy(std::move(keys), 64);
      b.Output(std::move(output));
    }
    return b.Build();
  }

  // Groups the rows of a vertex column v by a property many vertices
  // share (a length, a birthday month, a creation date), after one or two
  // Expands from v that nothing reads again: GES_f* sums the tuple counts
  // of v's rows per vertex, weighs each vertex by its degrees and folds
  // vertices with equal keys into one group. v is scanned, or reached
  // through an Expand so that one vertex fills many rows, and at times
  // filtered on its id first.
  Plan GenerateRegroup() {
    PlanBuilder b("regroup");
    Reset();
    const SnbSchema& s = ctx_.s;
    const LabelId labels[] = {s.person, s.post, s.comment, s.forum};
    const LabelId label = labels[rng_.Uniform(4)];
    std::string v = NewCol("v");
    std::vector<std::pair<LabelId, RelationId>> into;  // (source, rel) -> v
    for (LabelId src : {s.person, s.post, s.comment, s.forum, s.tag}) {
      for (const RelChoice& c : RelationsFrom(src)) {
        if (c.dst == label) into.emplace_back(src, c.rel);
      }
    }
    if (rng_.Bernoulli(0.7)) {
      const auto& [src, rel] = into[rng_.Uniform(into.size())];
      std::string u = NewCol("v");
      b.ScanByLabel(u, src);
      b.Expand(u, v, {rel});
    } else {
      b.ScanByLabel(v, label);
    }
    vertex_cols_.push_back({v, label});
    if (rng_.Bernoulli(0.5)) AddFilter(&b, v);
    std::vector<RelChoice> from_v = RelationsFrom(label);
    for (int k = rng_.Bernoulli(0.3) ? 2 : 1; k > 0; --k) {
      b.Expand(v, NewCol("w"), {from_v[rng_.Uniform(from_v.size())].rel});
    }
    std::vector<std::pair<PropertyId, ValueType>> keys = {
        {ctx_.p_creation, ValueType::kDate}};
    if (label == s.person) {
      keys.emplace_back(s.birthday_month, ValueType::kInt64);
    } else if (label != s.forum) {
      keys.emplace_back(ctx_.p_length, ValueType::kInt64);
    }
    const auto& [prop, type] = keys[rng_.Uniform(keys.size())];
    b.GetProperty(v, prop, type, "k");
    std::vector<std::string> group = {"k"};
    if (rng_.Bernoulli(0.3)) group.push_back(v);
    std::vector<AggSpec> aggs = {AggSpec{AggSpec::kCount, "", "cnt"}};
    if (rng_.Bernoulli(0.5)) {
      b.GetProperty(v, ctx_.p_id, ValueType::kInt64, "vid");
      aggs.push_back(AggSpec{AggSpec::kSum, "vid", "sum"});
      aggs.push_back(AggSpec{AggSpec::kMin, "vid", "min"});
    }
    std::vector<SortKey> order;
    std::vector<std::string> output = group;
    for (const std::string& g : group) order.push_back({g, true});
    for (const AggSpec& a : aggs) output.push_back(a.output);
    b.Aggregate(group, std::move(aggs));
    b.OrderBy(std::move(order), 64);
    b.Output(std::move(output));
    return b.Build();
  }

 private:
  void Reset() {
    vertex_cols_.clear();
    int_cols_.clear();
    int_source_.clear();
    next_col_ = 0;
  }

  std::string NewCol(const char* prefix) {
    return std::string(prefix) + std::to_string(next_col_++);
  }

  // Relations whose source label matches, picked from a fixed menu.
  struct RelChoice {
    RelationId rel;
    LabelId dst;
  };
  std::vector<RelChoice> RelationsFrom(LabelId label) {
    const SnbSchema& s = ctx_.s;
    std::vector<RelChoice> out;
    if (label == s.person) {
      out.push_back({ctx_.knows, s.person});
      out.push_back({ctx_.person_posts, s.post});
      out.push_back({ctx_.person_comments, s.comment});
      out.push_back({ctx_.person_interests, s.tag});
      out.push_back({ctx_.person_city, s.place});
      out.push_back({ctx_.person_member_of, s.forum});
    } else if (label == s.post) {
      out.push_back({ctx_.post_has_creator, s.person});
      out.push_back({ctx_.post_tags, s.tag});
      out.push_back({ctx_.post_replies, s.comment});
      out.push_back({ctx_.post_forum, s.forum});
    } else if (label == s.comment) {
      out.push_back({ctx_.comment_has_creator, s.person});
      out.push_back({ctx_.comment_reply_of_post, s.post});
    } else if (label == s.forum) {
      out.push_back({ctx_.forum_members, s.person});
      out.push_back({ctx_.forum_posts, s.post});
      out.push_back({ctx_.forum_moderator, s.person});
    } else if (label == s.tag) {
      out.push_back({ctx_.tag_class, s.tagclass});
      out.push_back({ctx_.tag_posts, s.post});
    }
    return out;
  }

  // Expands a random vertex column; returns its name, or "" when its label
  // has no relation on the menu.
  std::string AddExpand(PlanBuilder* b) {
    const VertexColumn src =
        vertex_cols_[rng_.Uniform(vertex_cols_.size())];
    auto choices = RelationsFrom(src.label);
    if (choices.empty()) return "";
    const RelChoice& c = choices[rng_.Uniform(choices.size())];
    std::string out = NewCol("v");
    bool multi = c.rel == ctx_.knows && rng_.Bernoulli(0.3);
    b->Expand(src.name, out, {c.rel}, 1, multi ? 2 : 1, multi, multi);
    vertex_cols_.push_back({out, c.dst});
    // Cyclic closing edges: semi/anti-join the fresh column against earlier
    // bound columns when a relation connects their labels — exactly the
    // Expand ; ExpandInto+ shape the WCOJ rewrite fuses in kFactorizedFused,
    // so fused runs take the IntersectExpand path while the other engines
    // execute the binary chain: a differential intersection test.
    if (!multi && rng_.Bernoulli(0.4)) {
      int closes = 1 + (rng_.Bernoulli(0.25) ? 1 : 0);
      for (int k = 0; k < closes; ++k) AddClosingEdge(b, out, c.dst);
    }
    return src.name;
  }

  void AddClosingEdge(PlanBuilder* b, const std::string& w, LabelId wl) {
    struct Cand {
      const VertexColumn* col;
      RelChoice rc;
    };
    std::vector<Cand> cands;
    auto from_w = RelationsFrom(wl);
    for (const VertexColumn& vc : vertex_cols_) {
      if (vc.name == w) continue;
      for (const RelChoice& rc : from_w) {
        if (rc.dst == vc.label) cands.push_back({&vc, rc});
      }
    }
    if (cands.empty()) return;
    const Cand& cand = cands[rng_.Uniform(cands.size())];
    bool anti = rng_.Bernoulli(0.2);
    if (rng_.Bernoulli(0.5)) {
      b->ExpandInto(w, cand.col->name, {cand.rc.rel}, anti);  // edge w -> p
    } else {
      // Reverse orientation (edge p -> w) when p's label reaches w's.
      for (const RelChoice& pr : RelationsFrom(cand.col->label)) {
        if (pr.dst == wl) {
          b->ExpandInto(cand.col->name, w, {pr.rel}, anti);
          return;
        }
      }
      b->ExpandInto(w, cand.col->name, {cand.rc.rel}, anti);
    }
  }

  // Fetches the int64 "id" property, which every label has and no vertex
  // lacks, of `vertex_col` (a random vertex column when empty).
  void AddGetProperty(PlanBuilder* b, std::string vertex_col = "") {
    if (vertex_col.empty()) {
      vertex_col = vertex_cols_[rng_.Uniform(vertex_cols_.size())].name;
    }
    std::string out = NewCol("p");
    b->GetProperty(vertex_col, ctx_.p_id, ValueType::kInt64, out);
    int_cols_.push_back(out);
    int_source_.push_back(vertex_col);
  }

  // A range filter on an int column; on the id of `vertex_col` when given.
  // Otherwise, after an Expand, at times the newest vertex column itself
  // against one of its label's vertices: on a pointer-join Expand's leaf, a
  // filter on the head of a lazy block.
  void AddFilter(PlanBuilder* b, const std::string& vertex_col = "") {
    if (vertex_col.empty() && vertex_cols_.size() > 1 && rng_.Bernoulli(0.5)) {
      const VertexColumn& vc = vertex_cols_.back();
      std::vector<VertexId> vs;
      fx_.graph.ScanLabel(vc.label, fx_.graph.CurrentVersion(), &vs);
      VertexId pick = vs.empty() ? 0 : vs[rng_.Uniform(vs.size())];
      ExprPtr pivot = Expr::Lit(Value::Vertex(pick));
      switch (rng_.Uniform(3)) {
        case 0:
          b->Filter(Expr::Lt(Expr::Col(vc.name), pivot));
          break;
        case 1:
          b->Filter(Expr::Ge(Expr::Col(vc.name), pivot));
          break;
        default:
          b->Filter(Expr::Ne(Expr::Col(vc.name), pivot));
          break;
      }
      return;
    }
    if (int_cols_.empty() || !vertex_col.empty()) {
      AddGetProperty(b, vertex_col);
    }
    const std::string& col = vertex_col.empty()
                                 ? int_cols_[rng_.Uniform(int_cols_.size())]
                                 : int_cols_.back();
    int64_t bound = static_cast<int64_t>(rng_.Uniform(500));
    ExprPtr pred = rng_.Bernoulli(0.5)
                       ? Expr::Lt(Expr::Col(col), Expr::Lit(Value::Int(bound)))
                       : Expr::Ge(Expr::Col(col), Expr::Lit(Value::Int(bound)));
    b->Filter(std::move(pred));
  }

  // Groups by one key, two keys of one f-Tree node (an int column and the
  // vertex it was read from), or two keys of two nodes (two vertex
  // columns), and counts, with a SUM and a MIN input at times.
  void AddAggregate(PlanBuilder* b) {
    const size_t pick = rng_.Uniform(int_cols_.size());
    std::vector<std::string> group = {int_cols_[pick]};
    switch (rng_.Uniform(3)) {
      case 0:
        group.push_back(int_source_[pick]);
        break;
      case 1:
        if (vertex_cols_.size() > 1) {
          group = {vertex_cols_[0].name, vertex_cols_.back().name};
        }
        break;
      default:
        break;
    }
    std::vector<AggSpec> aggs = {AggSpec{AggSpec::kCount, "", "cnt"}};
    if (rng_.Bernoulli(0.4)) {
      aggs.push_back(AggSpec{AggSpec::kSum,
                             int_cols_[rng_.Uniform(int_cols_.size())], "sum"});
    }
    if (rng_.Bernoulli(0.4)) {
      aggs.push_back(AggSpec{AggSpec::kMin,
                             int_cols_[rng_.Uniform(int_cols_.size())], "min"});
    }
    std::vector<SortKey> keys;
    std::vector<std::string> output = group;
    for (const std::string& g : group) keys.push_back({g, true});
    for (const AggSpec& a : aggs) output.push_back(a.output);
    b->Aggregate(group, std::move(aggs));
    b->OrderBy(std::move(keys), 64);
    b->Output(std::move(output));
  }

  const SnbFixture& fx_;
  const LdbcContext& ctx_;
  Rng rng_;
  std::vector<VertexColumn> vertex_cols_;
  std::vector<std::string> int_cols_;
  std::vector<std::string> int_source_;  // vertex column of each int column
  int next_col_ = 0;
};

// Runs three random plans and one regrouping plan in all four engines and
// requires them to agree.
void ExpectEnginesAgree(const SnbFixture& fx, uint64_t seed, int param) {
  LdbcContext ctx = LdbcContext::Resolve(fx.graph, fx.data.schema);
  RandomPlanGenerator gen(fx, ctx, seed);
  GraphView view(&fx.graph);
  for (int i = 0; i < 4; ++i) {
    Plan plan = i < 3 ? gen.Generate() : gen.GenerateRegroup();
    // Bound runaway cross products: the point is breadth of shapes, not
    // volume, and the Volcano engine is slow by design. The reference run
    // is governed by a per-query budget, so a random plan that would blow
    // up is stopped mid-operator (kMemoryExceeded) and skipped instead of
    // being measured after it has already eaten the machine.
    QueryContext qctx;
    qctx.AttachBudget(std::make_shared<MemoryBudget>(size_t{32} << 20));
    ExecOptions flat_opts;
    flat_opts.context = &qctx;
    QueryResult flat = Executor(ExecMode::kFlat, flat_opts).Run(plan, view);
    if (flat.interrupted == InterruptReason::kMemoryExceeded) continue;
    ASSERT_EQ(flat.interrupted, InterruptReason::kNone);
    auto expected = SortedRows(flat.table);
    for (ExecMode mode : {ExecMode::kVolcano, ExecMode::kFactorized,
                          ExecMode::kFactorizedFused}) {
      QueryResult r = Executor(mode).Run(plan, view);
      EXPECT_EQ(SortedRows(r.table), expected)
          << "mode=" << ExecModeName(mode) << " seed=" << param
          << " plan#" << i;
    }
  }
}

class FuzzPlanTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPlanTest, EnginesAgreeOnRandomPlans) {
  ExpectEnginesAgree(SnbFixture::Shared(), 0xf022 + GetParam() * 131,
                     GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPlanTest, ::testing::Range(0, 20));

// The same oracle on updated storage: reads go through overlay entries,
// compacted (varint) levels and post-bulk vertices, which a counted
// Expand's Degree and the typed-key grouping must read like the neighbor
// lists the other engines enumerate.
class MutatedFuzzPlanTest : public ::testing::TestWithParam<int> {};

TEST_P(MutatedFuzzPlanTest, EnginesAgreeOnRandomPlans) {
  ExpectEnginesAgree(testutil::MutatedSnbFixture(), 0x3a7e + GetParam() * 131,
                     GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutatedFuzzPlanTest, ::testing::Range(0, 20));

// Every vertex of a label, grouped by id, counting its neighbors through a
// counted Expand, with and without a Filter on the source after it: the
// factorized engines' Degree reads must match the lists kFlat enumerates
// for every vertex, on the bulk graph and on the updated one (overlay
// entries, varint levels, post-bulk tail).
TEST(CountedExpandTest, DegreesMatchFlatOnEveryVertex) {
  for (SnbFixture* fx :
       {&SnbFixture::Shared(), &testutil::MutatedSnbFixture()}) {
    LdbcContext ctx = LdbcContext::Resolve(fx->graph, fx->data.schema);
    GraphView view(&fx->graph);
    const SnbSchema& s = ctx.s;
    const std::pair<LabelId, RelationId> hops[] = {
        {s.person, ctx.knows},          {s.person, ctx.person_posts},
        {s.person, ctx.person_member_of}, {s.forum, ctx.forum_posts},
        {s.forum, ctx.forum_members},   {s.post, ctx.post_forum},
        {s.post, ctx.post_replies},     {s.comment, ctx.comment_reply_of_post},
        {s.tag, ctx.tag_posts}};
    for (const auto& [label, rel] : hops) {
      for (bool filter : {false, true}) {
        PlanBuilder b("counted");
        b.ScanByLabel("v", label).Expand("v", "w", {rel});
        b.GetProperty("v", ctx.p_id, ValueType::kInt64, "vid");
        if (filter) {
          b.Filter(Expr::Ge(Expr::Col("vid"), Expr::Lit(Value::Int(7))));
        }
        b.Aggregate({"vid"}, {AggSpec{AggSpec::kCount, "", "cnt"}})
            .Output({"vid", "cnt"});
        Plan plan = b.Build();
        std::vector<std::string> expected =
            SortedRows(Executor(ExecMode::kFlat).Run(plan, view).table);
        ASSERT_FALSE(expected.empty());
        EXPECT_EQ(SortedRows(
                      Executor(ExecMode::kFactorizedFused).Run(plan, view).table),
                  expected)
            << "rel=" << rel << " filter=" << filter;
      }
    }
  }
}

// IC5, whose post Expand is counted and whose grouping takes typed keys,
// returns kFlat's rows in kFlat's order in every engine, on the bulk and
// on the updated graph (it reads only forum ids, which no forum lacks).
TEST(CountedExpandTest, Ic5MatchesFlatInEveryEngine) {
  for (SnbFixture* fx :
       {&SnbFixture::Shared(), &testutil::MutatedSnbFixture()}) {
    LdbcContext ctx = LdbcContext::Resolve(fx->graph, fx->data.schema);
    ParamGen gen(&fx->graph, &fx->data, /*seed=*/55);
    GraphView view(&fx->graph);
    for (int i = 0; i < 5; ++i) {
      Plan plan = BuildIC(5, ctx, gen.Next());
      std::vector<std::string> expected = testutil::OrderedRows(
          Executor(ExecMode::kFlat).Run(plan, view).table);
      for (ExecMode mode : {ExecMode::kVolcano, ExecMode::kFactorized,
                            ExecMode::kFactorizedFused}) {
        EXPECT_EQ(testutil::OrderedRows(Executor(mode).Run(plan, view).table),
                  expected)
            << ExecModeName(mode) << " params#" << i;
      }
    }
  }
}

}  // namespace
}  // namespace ges

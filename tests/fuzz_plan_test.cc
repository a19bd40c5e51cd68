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
    vertex_cols_.clear();
    int_cols_.clear();
    next_col_ = 0;

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
      switch (rng_.Uniform(6)) {
        case 0:
        case 1:
          if (expands < 3) {
            AddExpand(&b);
            ++expands;
          }
          break;
        case 2:
          AddGetProperty(&b);
          break;
        case 3:
          AddFilter(&b);
          break;
        case 4:
          if (!int_cols_.empty() && rng_.Bernoulli(0.5)) {
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
    // explicit outputs; see plan.h).
    if (!aggregated) {
      AddGetProperty(&b);
      std::vector<SortKey> keys;
      std::vector<std::string> output;
      for (const std::string& c : int_cols_) {
        keys.push_back({c, true});
        output.push_back(c);
      }
      for (const VertexColumn& vc : vertex_cols_) {
        keys.push_back({vc.name, true});
        output.push_back(vc.name);
      }
      b.OrderBy(std::move(keys), 64);
      b.Output(std::move(output));
    } else {
      // Aggregate plans already project to {key, cnt}.
    }
    return b.Build();
  }

 private:
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

  void AddExpand(PlanBuilder* b) {
    const VertexColumn& src = vertex_cols_[rng_.Uniform(vertex_cols_.size())];
    auto choices = RelationsFrom(src.label);
    if (choices.empty()) return;
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

  void AddGetProperty(PlanBuilder* b) {
    // Every label has an int64 "id" property.
    const VertexColumn& src = vertex_cols_[rng_.Uniform(vertex_cols_.size())];
    std::string out = NewCol("p");
    b->GetProperty(src.name, ctx_.p_id, ValueType::kInt64, out);
    int_cols_.push_back(out);
  }

  void AddFilter(PlanBuilder* b) {
    if (int_cols_.empty()) {
      AddGetProperty(b);
    }
    const std::string& col = int_cols_[rng_.Uniform(int_cols_.size())];
    int64_t bound = static_cast<int64_t>(rng_.Uniform(500));
    ExprPtr pred = rng_.Bernoulli(0.5)
                       ? Expr::Lt(Expr::Col(col), Expr::Lit(Value::Int(bound)))
                       : Expr::Ge(Expr::Col(col), Expr::Lit(Value::Int(bound)));
    b->Filter(std::move(pred));
  }

  void AddAggregate(PlanBuilder* b) {
    const std::string& key = int_cols_[rng_.Uniform(int_cols_.size())];
    b->Aggregate({key}, {AggSpec{AggSpec::kCount, "", "cnt"}});
    b->OrderBy({{key, true}}, 64);
  }

  const SnbFixture& fx_;
  const LdbcContext& ctx_;
  Rng rng_;
  std::vector<VertexColumn> vertex_cols_;
  std::vector<std::string> int_cols_;
  int next_col_ = 0;
};

class FuzzPlanTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPlanTest, EnginesAgreeOnRandomPlans) {
  SnbFixture& fx = SnbFixture::Shared();
  static LdbcContext* ctx =
      new LdbcContext(LdbcContext::Resolve(fx.graph, fx.data.schema));
  RandomPlanGenerator gen(fx, *ctx, 0xf022 + GetParam() * 131);
  GraphView view(&fx.graph);
  for (int i = 0; i < 3; ++i) {
    Plan plan = gen.Generate();
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
          << "mode=" << ExecModeName(mode) << " seed=" << GetParam()
          << " plan#" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPlanTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace ges

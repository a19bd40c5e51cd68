// Interactive complex read queries IC1-IC14 (LDBC SNB Interactive v1,
// adapted to the synthetic schema; see README for the documented
// simplifications).
#include <algorithm>
#include <unordered_map>

#include "queries/ldbc.h"

namespace ges {

namespace {

using E = Expr;

Value Str(const std::string& s) { return Value::String(s); }
Value I(int64_t v) { return Value::Int(v); }

// IC1: friends (1..3 hops) with a given first name; profile sorted by
// distance, last name, id.
Plan IC1(const LdbcContext& c, const LdbcParams& p) {
  PlanBuilder b("IC1");
  b.NodeByIdSeek("p", c.s.person, p.person)
      .ExpandEx("p", "f", {c.knows}, 1, 3, /*distinct=*/true,
                /*exclude_start=*/true, "dist", "")
      .GetProperty("f", c.s.first_name, ValueType::kString, "f_first")
      .Filter(E::Eq(E::Col("f_first"), E::Lit(Str(p.first_name))))
      .GetProperty("f", c.s.last_name, ValueType::kString, "f_last")
      .GetProperty("f", c.p_id, ValueType::kInt64, "f_id")
      .GetProperty("f", c.s.birthday, ValueType::kDate, "f_birthday")
      .OrderBy({{"dist", true}, {"f_last", true}, {"f_id", true}}, 20)
      .Output({"f_id", "f_last", "dist", "f_birthday"});
  return b.Build();
}

// IC2: recent messages (<= maxDate) of direct friends; newest 20.
Plan IC2(const LdbcContext& c, const LdbcParams& p) {
  PlanBuilder b("IC2");
  b.NodeByIdSeek("p", c.s.person, p.person)
      .Expand("p", "f", {c.knows})
      .Expand("f", "msg", {c.person_posts, c.person_comments})
      .GetProperty("msg", c.p_creation, ValueType::kDate, "m_date")
      .Filter(E::Le(E::Col("m_date"), E::Lit(Value::Date(p.max_date))))
      .GetProperty("msg", c.p_id, ValueType::kInt64, "m_id")
      .GetProperty("f", c.p_id, ValueType::kInt64, "f_id")
      .OrderBy({{"m_date", false}, {"m_id", true}}, 20)
      .Output({"f_id", "m_id", "m_date"});
  return b.Build();
}

// IC3: friends (1..2 hops) whose messages in a window were located in
// countries X and Y; counts per friend, both > 0. The country check makes
// the pattern cyclic in spirit (two correlated counts), so the factorized
// engine de-factors here — matching the paper's Table 2 note on IC3.
Plan IC3(const LdbcContext& c, const LdbcParams& p) {
  int64_t end = p.min_date + p.duration_days * kMillisPerDay;
  PlanBuilder b("IC3");
  b.NodeByIdSeek("p", c.s.person, p.person)
      .Expand("p", "f", {c.knows}, 1, 2, /*distinct=*/true,
              /*exclude_start=*/true)
      .Expand("f", "msg", {c.person_posts, c.person_comments})
      .GetProperty("msg", c.p_creation, ValueType::kDate, "m_date")
      .Filter(E::And(E::Ge(E::Col("m_date"), E::Lit(Value::Date(p.min_date))),
                     E::Lt(E::Col("m_date"), E::Lit(Value::Date(end)))))
      .Expand("msg", "country", {c.post_country, c.comment_country})
      .GetProperty("country", c.p_name, ValueType::kString, "c_name")
      .Filter(E::Or(E::Eq(E::Col("c_name"), E::Lit(Str(p.country_x))),
                    E::Eq(E::Col("c_name"), E::Lit(Str(p.country_y)))))
      .GetProperty("f", c.p_id, ValueType::kInt64, "f_id")
      .Project({}, {ComputedColumn{
                        E::Mul(E::Lit(I(1)),
                               E::Eq(E::Col("c_name"), E::Lit(Str(p.country_x)))),
                        "is_x", ValueType::kInt64},
                    ComputedColumn{
                        E::Mul(E::Lit(I(1)),
                               E::Eq(E::Col("c_name"), E::Lit(Str(p.country_y)))),
                        "is_y", ValueType::kInt64}})
      .Aggregate({"f_id"}, {AggSpec{AggSpec::kSum, "is_x", "cnt_x"},
                            AggSpec{AggSpec::kSum, "is_y", "cnt_y"}})
      .Filter(E::And(E::Gt(E::Col("cnt_x"), E::Lit(I(0))),
                     E::Gt(E::Col("cnt_y"), E::Lit(I(0)))))
      .Project({{"f_id", "f_id"}, {"cnt_x", "cnt_x"}, {"cnt_y", "cnt_y"}},
               {ComputedColumn{E::Add(E::Col("cnt_x"), E::Col("cnt_y")),
                               "total", ValueType::kInt64}})
      .OrderBy({{"total", false}, {"f_id", true}}, 20)
      .Output({"f_id", "cnt_x", "cnt_y", "total"});
  return b.Build();
}

// IC4: tags of posts created by direct friends inside a window; counts.
Plan IC4(const LdbcContext& c, const LdbcParams& p) {
  int64_t end = p.min_date + p.duration_days * kMillisPerDay;
  PlanBuilder b("IC4");
  b.NodeByIdSeek("p", c.s.person, p.person)
      .Expand("p", "f", {c.knows})
      .Expand("f", "post", {c.person_posts})
      .GetProperty("post", c.p_creation, ValueType::kDate, "p_date")
      .Filter(E::And(E::Ge(E::Col("p_date"), E::Lit(Value::Date(p.min_date))),
                     E::Lt(E::Col("p_date"), E::Lit(Value::Date(end)))))
      .Expand("post", "tag", {c.post_tags})
      .GetProperty("tag", c.p_name, ValueType::kString, "t_name")
      .Aggregate({"t_name"}, {AggSpec{AggSpec::kCount, "", "cnt"}})
      .OrderBy({{"cnt", false}, {"t_name", true}}, 10)
      .Output({"t_name", "cnt"});
  return b.Build();
}

// IC5: forums that friends (1..2 hops) joined after minDate; rank forums by
// the number of posts in them (reached through the joining friends). This
// is the paper's showcase for AggregateProjectTop fusion.
Plan IC5(const LdbcContext& c, const LdbcParams& p) {
  PlanBuilder b("IC5");
  b.NodeByIdSeek("p", c.s.person, p.person)
      .Expand("p", "f", {c.knows}, 1, 2, /*distinct=*/true,
              /*exclude_start=*/true)
      .ExpandEx("f", "forum", {c.person_member_of}, 1, 1, false, false, "",
                "joinDate")
      .Filter(E::Gt(E::Col("joinDate"), E::Lit(Value::Date(p.min_date))))
      .Expand("forum", "post", {c.forum_posts})
      .GetProperty("forum", c.p_id, ValueType::kInt64, "forum_id")
      .Aggregate({"forum_id"}, {AggSpec{AggSpec::kCount, "", "cnt"}})
      .OrderBy({{"cnt", false}, {"forum_id", true}}, 20)
      .Output({"forum_id", "cnt"});
  return b.Build();
}

// IC6: tags co-occurring with a given tag on posts of friends (1..2 hops).
Plan IC6(const LdbcContext& c, const LdbcParams& p) {
  PlanBuilder b("IC6");
  b.NodeByIdSeek("p", c.s.person, p.person)
      .Expand("p", "f", {c.knows}, 1, 2, /*distinct=*/true,
              /*exclude_start=*/true)
      .Expand("f", "post", {c.person_posts})
      .Expand("post", "t1", {c.post_tags})
      .GetProperty("t1", c.p_name, ValueType::kString, "t1_name")
      .Filter(E::Eq(E::Col("t1_name"), E::Lit(Str(p.tag_name))))
      .Expand("post", "t2", {c.post_tags})
      .GetProperty("t2", c.p_name, ValueType::kString, "t2_name")
      .Filter(E::Ne(E::Col("t2_name"), E::Lit(Str(p.tag_name))))
      .Aggregate({"t2_name"}, {AggSpec{AggSpec::kCount, "", "cnt"}})
      .OrderBy({{"cnt", false}, {"t2_name", true}}, 10)
      .Output({"t2_name", "cnt"});
  return b.Build();
}

// IC7: most recent likers of the person's messages.
Plan IC7(const LdbcContext& c, const LdbcParams& p) {
  PlanBuilder b("IC7");
  b.NodeByIdSeek("p", c.s.person, p.person)
      .Expand("p", "msg", {c.person_posts, c.person_comments})
      .ExpandEx("msg", "liker", {c.post_likers, c.comment_likers}, 1, 1,
                false, false, "", "likeDate")
      .GetProperty("liker", c.p_id, ValueType::kInt64, "liker_id")
      .GetProperty("msg", c.p_id, ValueType::kInt64, "m_id")
      .OrderBy({{"likeDate", false}, {"liker_id", true}}, 20)
      .Output({"liker_id", "likeDate", "m_id"});
  return b.Build();
}

// IC8: most recent replies to the person's messages.
Plan IC8(const LdbcContext& c, const LdbcParams& p) {
  PlanBuilder b("IC8");
  b.NodeByIdSeek("p", c.s.person, p.person)
      .Expand("p", "msg", {c.person_posts, c.person_comments})
      .Expand("msg", "reply", {c.post_replies, c.comment_replies})
      .GetProperty("reply", c.p_creation, ValueType::kDate, "r_date")
      .GetProperty("reply", c.p_id, ValueType::kInt64, "r_id")
      .OrderBy({{"r_date", false}, {"r_id", true}}, 20)
      .Output({"r_id", "r_date"});
  return b.Build();
}

// IC9: recent messages (< maxDate) by friends within 2 hops; newest 20.
// The paper's running example (Figure 8) has this shape.
Plan IC9(const LdbcContext& c, const LdbcParams& p) {
  PlanBuilder b("IC9");
  b.NodeByIdSeek("p", c.s.person, p.person)
      .Expand("p", "f", {c.knows}, 1, 2, /*distinct=*/true,
              /*exclude_start=*/true)
      .Expand("f", "msg", {c.person_posts, c.person_comments})
      .GetProperty("msg", c.p_creation, ValueType::kDate, "m_date")
      .Filter(E::Lt(E::Col("m_date"), E::Lit(Value::Date(p.max_date))))
      .GetProperty("msg", c.p_id, ValueType::kInt64, "m_id")
      .GetProperty("f", c.p_id, ValueType::kInt64, "f_id")
      .OrderBy({{"m_date", false}, {"m_id", true}}, 20)
      .Output({"f_id", "m_id", "m_date"});
  return b.Build();
}

// IC10: friend recommendation — friends-of-friends born in the given month,
// scored by how many of their posts carry one of the start person's
// interest tags. The interest check is a cyclic edge test (ExpandInto), so
// execution reverts to flat — matching the paper's note on IC10.
Plan IC10(const LdbcContext& c, const LdbcParams& p) {
  PlanBuilder b("IC10");
  b.NodeByIdSeek("p", c.s.person, p.person)
      .Expand("p", "fof", {c.knows}, 2, 2, /*distinct=*/true,
              /*exclude_start=*/true)
      .GetProperty("fof", c.s.birthday_month, ValueType::kInt64, "b_month")
      .Filter(E::Eq(E::Col("b_month"), E::Lit(I(p.month))))
      .Expand("fof", "post", {c.person_posts})
      .Expand("post", "tag", {c.post_tags})
      .ExpandInto("p", "tag", {c.person_interests}, /*anti=*/false)
      .GetProperty("fof", c.p_id, ValueType::kInt64, "fof_id")
      .Aggregate({"fof_id"}, {AggSpec{AggSpec::kCount, "", "common"}})
      .OrderBy({{"common", false}, {"fof_id", true}}, 10)
      .Output({"fof_id", "common"});
  return b.Build();
}

// IC11: friends (1..2 hops) who worked at a company in country X starting
// before the given year.
Plan IC11(const LdbcContext& c, const LdbcParams& p) {
  PlanBuilder b("IC11");
  b.NodeByIdSeek("p", c.s.person, p.person)
      .Expand("p", "f", {c.knows}, 1, 2, /*distinct=*/true,
              /*exclude_start=*/true)
      .ExpandEx("f", "org", {c.person_work_at}, 1, 1, false, false, "",
                "workFrom")
      .Filter(E::Lt(E::Col("workFrom"), E::Lit(I(p.work_year))))
      .Expand("org", "country", {c.org_place})
      .GetProperty("country", c.p_name, ValueType::kString, "c_name")
      .Filter(E::Eq(E::Col("c_name"), E::Lit(Str(p.country_x))))
      .GetProperty("org", c.p_name, ValueType::kString, "o_name")
      .GetProperty("f", c.p_id, ValueType::kInt64, "f_id")
      .OrderBy({{"workFrom", true}, {"f_id", true}, {"o_name", false}}, 10)
      .Output({"f_id", "o_name", "workFrom"});
  return b.Build();
}

// IC12: expert search — direct friends whose comments reply to posts tagged
// with a tag of the given tag class; count distinct comments per friend.
Plan IC12(const LdbcContext& c, const LdbcParams& p) {
  PlanBuilder b("IC12");
  b.NodeByIdSeek("p", c.s.person, p.person)
      .Expand("p", "f", {c.knows})
      .Expand("f", "cmt", {c.person_comments})
      .Expand("cmt", "post", {c.comment_reply_of_post})
      .Expand("post", "tag", {c.post_tags})
      .Expand("tag", "cls", {c.tag_class})
      .GetProperty("cls", c.p_name, ValueType::kString, "cls_name")
      .Filter(E::Eq(E::Col("cls_name"), E::Lit(Str(p.tag_class))))
      .GetProperty("f", c.p_id, ValueType::kInt64, "f_id")
      .Aggregate({"f_id"}, {AggSpec{AggSpec::kCountDistinct, "cmt", "cnt"}})
      .OrderBy({{"cnt", false}, {"f_id", true}}, 20)
      .Output({"f_id", "cnt"});
  return b.Build();
}

// --- IC13 / IC14: path queries, implemented as stored procedures (the
// paper treats traversal operators the same way; their intermediate data is
// not factorizable and is excluded from Table 2 accounting). ---

// Breadth-first search over `knows` from one person. Each reached
// person's distance and BFS rank (discovery order) live in per-thread
// arrays indexed by its dense offset (Graph::OffsetInLabel); persons
// created after the bulk load sit in a small side map. The destructor
// resets exactly the entries the search set, so the arrays are reused
// query after query on one thread. Only persons may be looked up.
class KnowsBfs {
 public:
  struct Mark {
    int dist = -1;  // -1: not reached
    uint32_t rank = 0;
    int tag = -1;   // caller scratch; set it only on reached persons
  };

  KnowsBfs(const GraphView& view, const LdbcContext& ctx)
      : view_(view),
        ctx_(ctx),
        bulk_(view.graph().bulk_vertex_count()),
        s_(Local()) {
    const size_t persons = view.graph().NumBulkVertices(ctx.s.person);
    if (s_.dense.size() < persons) s_.dense.resize(persons);
  }
  ~KnowsBfs() {
    for (VertexId v : s_.order) {
      if (v < bulk_) s_.dense[view_.graph().OffsetInLabel(v)] = Mark{};
    }
    s_.order.clear();
    s_.side.clear();
  }
  KnowsBfs(const KnowsBfs&) = delete;
  KnowsBfs& operator=(const KnowsBfs&) = delete;

  // Hop distance from `src` to `dst`, -1 if unreachable. Stops at dst's
  // discovery: every person closer than dst already has its final
  // distance and rank, which is all the shortest paths need.
  int Run(VertexId src, VertexId dst) {
    At(src).dist = 0;
    s_.order.push_back(src);
    if (src == dst) return 0;
    for (size_t i = 0; i < s_.order.size(); ++i) {
      const VertexId v = s_.order[i];
      const int d = At(v).dist + 1;
      AdjSpan span = view_.Neighbors(ctx_.knows, v, &s_.adj);
      for (uint32_t j = 0; j < span.size; ++j) {
        const VertexId w = span.ids[j];
        Mark& m = At(w);
        if (m.dist >= 0) continue;
        m.dist = d;
        m.rank = static_cast<uint32_t>(s_.order.size());
        s_.order.push_back(w);
        if (w == dst) return d;
      }
    }
    return -1;
  }

  // The mark of `v`; null for a post-bulk person the search never reached.
  Mark* Find(VertexId v) {
    if (v < bulk_) return &s_.dense[view_.graph().OffsetInLabel(v)];
    auto it = s_.side.find(v);
    return it == s_.side.end() ? nullptr : &it->second;
  }

  // Predecessors of a reached `v` other than the source on its shortest
  // paths: the in-neighbours one hop closer, in BFS-rank order — the
  // order in which the search expanded them toward `v`.
  void Preds(VertexId v, std::vector<std::pair<uint32_t, VertexId>>* out) {
    out->clear();
    const int d = Find(v)->dist - 1;
    AdjSpan span = view_.Neighbors(ctx_.knows_in, v, &s_.adj);
    for (uint32_t i = 0; i < span.size; ++i) {
      const Mark* m = Find(span.ids[i]);
      if (m != nullptr && m->dist == d) out->emplace_back(m->rank, span.ids[i]);
    }
    std::sort(out->begin(), out->end());
  }

 private:
  struct State {
    std::vector<Mark> dense;  // by OffsetInLabel of bulk persons
    std::unordered_map<VertexId, Mark> side;
    std::vector<VertexId> order;  // reached persons by rank: the BFS queue
    AdjScratch adj;
  };
  static State& Local() {
    static thread_local State state;
    return state;
  }
  Mark& At(VertexId v) {
    return v < bulk_ ? s_.dense[view_.graph().OffsetInLabel(v)] : s_.side[v];
  }

  const GraphView& view_;
  const LdbcContext& ctx_;
  const size_t bulk_;
  State& s_;
};

Plan IC13(const LdbcContext& c, const LdbcParams& p) {
  PlanBuilder b("IC13");
  LdbcContext ctx = c;
  int64_t p1 = p.person;
  int64_t p2 = p.person2;
  b.Procedure([ctx, p1, p2](const GraphView& view) {
    Schema s;
    s.Add("length", ValueType::kInt64);
    FlatBlock out(s);
    VertexId a = view.FindByExtId(ctx.s.person, p1);
    VertexId bb = view.FindByExtId(ctx.s.person, p2);
    int d = (a == kInvalidVertex || bb == kInvalidVertex)
                ? -1
                : KnowsBfs(view, ctx).Run(a, bb);
    out.AppendRow({Value::Int(d)});
    return out;
  });
  b.Output({"length"});
  return b.Build();
}

// IC14: all shortest paths between two persons (capped), each weighted by
// the reply interactions along the path: a comment replying to a post adds
// 1.0, a comment replying to a comment adds 0.5, counted in both directions
// for every adjacent person pair.
Plan IC14(const LdbcContext& c, const LdbcParams& p) {
  PlanBuilder b("IC14");
  LdbcContext ctx = c;
  int64_t p1 = p.person;
  int64_t p2 = p.person2;
  b.Procedure([ctx, p1, p2](const GraphView& view) {
    constexpr size_t kMaxPaths = 100;
    Schema s;
    s.Add("weight", ValueType::kDouble);
    s.Add("length", ValueType::kInt64);
    FlatBlock out(s);
    VertexId src = view.FindByExtId(ctx.s.person, p1);
    VertexId dst = view.FindByExtId(ctx.s.person, p2);
    if (src == kInvalidVertex || dst == kInvalidVertex) return out;

    KnowsBfs bfs(view, ctx);
    if (bfs.Run(src, dst) < 0) return out;

    // Enumerate shortest paths depth-first from dst over predecessors,
    // capped. preds[i] lists cur[i]'s predecessors, next[i] the one to try.
    std::vector<std::vector<VertexId>> paths;
    std::vector<VertexId> cur;
    std::vector<std::vector<std::pair<uint32_t, VertexId>>> preds;
    std::vector<size_t> next;
    auto push = [&](VertexId v) {
      cur.push_back(v);
      preds.emplace_back();
      next.push_back(0);
      if (v == src) {
        paths.emplace_back(cur.rbegin(), cur.rend());
      } else {
        bfs.Preds(v, &preds.back());
      }
    };
    push(dst);
    while (!cur.empty() && paths.size() < kMaxPaths) {
      if (next.back() < preds.back().size()) {
        push(preds.back()[next.back()++].second);
      } else {
        cur.pop_back();
        preds.pop_back();
        next.pop_back();
      }
    }

    // Reply weight of each person x toward each path neighbour y: one pass
    // over x's comments adds 1.0 per reply to a post of y and 0.5 per
    // reply to a comment of y. A pair weighs arc(x, y) + arc(y, x); the
    // weights are multiples of 0.5, so every sum is exact. While x is
    // scanned, each y's tag holds the index of arc (x, y).
    std::vector<std::pair<VertexId, VertexId>> arcs;
    for (const auto& path : paths) {
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        arcs.emplace_back(path[i], path[i + 1]);
        arcs.emplace_back(path[i + 1], path[i]);
      }
    }
    std::sort(arcs.begin(), arcs.end());
    arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
    std::vector<double> arc_weight(arcs.size(), 0);
    // Three nesting levels of live spans (comments -> reply targets ->
    // creator), so each level gets its own decode scratch; the post
    // targets are drained before the comment targets are fetched, so the
    // middle level shares one.
    AdjScratch adj_comments, adj_reply, adj_creator;
    auto add_replies = [&](AdjSpan targets, RelationId creator_rel,
                           double w) {
      for (uint32_t j = 0; j < targets.size; ++j) {
        AdjSpan creator =
            view.Neighbors(creator_rel, targets.ids[j], &adj_creator);
        for (uint32_t k = 0; k < creator.size; ++k) {
          const KnowsBfs::Mark* m = bfs.Find(creator.ids[k]);
          if (m != nullptr && m->tag >= 0) arc_weight[m->tag] += w;
        }
      }
    };
    for (size_t lo = 0, hi = 0; lo < arcs.size(); lo = hi) {
      const VertexId x = arcs[lo].first;
      for (hi = lo; hi < arcs.size() && arcs[hi].first == x; ++hi) {
        bfs.Find(arcs[hi].second)->tag = static_cast<int>(hi);
      }
      AdjSpan comments = view.Neighbors(ctx.person_comments, x, &adj_comments);
      for (uint32_t i = 0; i < comments.size; ++i) {
        const VertexId cmt = comments.ids[i];
        add_replies(view.Neighbors(ctx.comment_reply_of_post, cmt, &adj_reply),
                    ctx.post_has_creator, 1.0);
        add_replies(
            view.Neighbors(ctx.comment_reply_of_comment, cmt, &adj_reply),
            ctx.comment_has_creator, 0.5);
      }
      for (size_t k = lo; k < hi; ++k) bfs.Find(arcs[k].second)->tag = -1;
    }
    auto arc = [&](VertexId x, VertexId y) {
      return arc_weight[std::lower_bound(arcs.begin(), arcs.end(),
                                         std::make_pair(x, y)) -
                        arcs.begin()];
    };

    std::vector<std::pair<double, int64_t>> rows;
    for (const auto& path : paths) {
      double w = 0;
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        w += arc(path[i], path[i + 1]) + arc(path[i + 1], path[i]);
      }
      rows.emplace_back(w, static_cast<int64_t>(path.size() - 1));
    }
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.first > b.first;
    });
    for (const auto& [w, len] : rows) {
      out.AppendRow({Value::Double(w), Value::Int(len)});
    }
    return out;
  });
  b.Output({"weight", "length"});
  return b.Build();
}

}  // namespace

Plan BuildIC(int k, const LdbcContext& ctx, const LdbcParams& p) {
  switch (k) {
    case 1:
      return IC1(ctx, p);
    case 2:
      return IC2(ctx, p);
    case 3:
      return IC3(ctx, p);
    case 4:
      return IC4(ctx, p);
    case 5:
      return IC5(ctx, p);
    case 6:
      return IC6(ctx, p);
    case 7:
      return IC7(ctx, p);
    case 8:
      return IC8(ctx, p);
    case 9:
      return IC9(ctx, p);
    case 10:
      return IC10(ctx, p);
    case 11:
      return IC11(ctx, p);
    case 12:
      return IC12(ctx, p);
    case 13:
      return IC13(ctx, p);
    case 14:
      return IC14(ctx, p);
    default:
      return Plan{};
  }
}

}  // namespace ges

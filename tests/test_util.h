// Shared helpers for the GES test suite.
#ifndef GES_TESTS_TEST_UTIL_H_
#define GES_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "datagen/snb_generator.h"
#include "executor/executor.h"
#include "executor/flatblock.h"
#include "queries/ldbc.h"
#include "storage/graph.h"

namespace ges::testutil {

// Renders a flat block as sorted rows of strings: order-insensitive
// comparison across engines.
inline std::vector<std::string> SortedRows(const FlatBlock& block) {
  std::vector<std::string> rows;
  rows.reserve(block.NumRows());
  for (const auto& row : block.rows()) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += '|';
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Rows in original order (for ORDER BY verification).
inline std::vector<std::string> OrderedRows(const FlatBlock& block) {
  std::vector<std::string> rows;
  rows.reserve(block.NumRows());
  for (const auto& row : block.rows()) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += '|';
    }
    rows.push_back(std::move(s));
  }
  return rows;
}

// A tiny, fully deterministic graph shared by operator tests: the paper's
// Figure 8 data graph. Persons p0..p3, messages m0..m5.
//
//   knows:       p0->p1, p0->p2, p1->p3, p2->p3 (and reverse edges)
//   has_creator: m0->p1, m1->p1, m2->p2, m3->p3, m4->p3, m5->p3
//   msg.len:     m0:140, m1:123, m2:120, m3:130, m4:100, m5:126
struct TinyGraph {
  std::unique_ptr<Graph> graph;
  LabelId person, message;
  LabelId knows, has_creator;
  PropertyId id, len;
  RelationId knows_out;        // PERSON -> PERSON
  RelationId person_messages;  // PERSON <- MESSAGE
  RelationId msg_creator;      // MESSAGE -> PERSON
  std::vector<VertexId> persons;
  std::vector<VertexId> messages;

  TinyGraph() : graph(std::make_unique<Graph>()) {
    Catalog& c = graph->catalog();
    person = c.AddVertexLabel("PERSON");
    message = c.AddVertexLabel("MESSAGE");
    knows = c.AddEdgeLabel("KNOWS");
    has_creator = c.AddEdgeLabel("HAS_CREATOR");
    id = c.AddProperty(person, "id", ValueType::kInt64);
    c.AddProperty(message, "id", ValueType::kInt64);
    len = c.AddProperty(message, "len", ValueType::kInt64);
    graph->RegisterRelation(person, knows, person, /*has_stamp=*/true);
    graph->RegisterRelation(message, has_creator, person);

    for (int i = 0; i < 4; ++i) {
      VertexId v = graph->AddVertexBulk(person, i);
      graph->SetPropertyBulk(v, id, Value::Int(i));
      persons.push_back(v);
    }
    static const int kLens[6] = {140, 123, 120, 130, 100, 126};
    static const int kCreators[6] = {1, 1, 2, 3, 3, 3};
    for (int i = 0; i < 6; ++i) {
      VertexId v = graph->AddVertexBulk(message, i);
      graph->SetPropertyBulk(v, id, Value::Int(i));
      graph->SetPropertyBulk(v, len, Value::Int(kLens[i]));
      messages.push_back(v);
      graph->AddEdgeBulk(has_creator, v, persons[kCreators[i]]);
    }
    auto know = [&](int a, int b) {
      graph->AddEdgeBulk(knows, persons[a], persons[b], 100 + a * 10 + b);
      graph->AddEdgeBulk(knows, persons[b], persons[a], 100 + a * 10 + b);
    };
    know(0, 1);
    know(0, 2);
    know(1, 3);
    know(2, 3);
    graph->FinalizeBulk();

    knows_out = graph->FindRelation(person, knows, person, Direction::kOut);
    person_messages =
        graph->FindRelation(person, has_creator, message, Direction::kIn);
    msg_creator =
        graph->FindRelation(message, has_creator, person, Direction::kOut);
  }
};

// A small generated SNB graph (cached per process) for workload tests.
struct SnbFixture {
  Graph graph;
  SnbData data;

  explicit SnbFixture(double sf = 0.01, uint64_t seed = 42) {
    SnbConfig config;
    config.scale_factor = sf;
    config.seed = seed;
    data = GenerateSnb(config, &graph);
  }

  static SnbFixture& Shared() {
    static SnbFixture* fixture = new SnbFixture();
    return *fixture;
  }
};

// A second copy of the shared fixture's graph, updated and cached per
// process: 1500 seeded IUs (IU6 adds posts to forums), a forced compaction of
// forum_posts, post_forum and knows, 1500 more IUs, then a GC pass. Reads
// of it go through overlay entries, varint levels and the post-bulk tail.
// Every vertex an IU creates has its "id" property.
inline SnbFixture& MutatedSnbFixture() {
  static SnbFixture* fixture = [] {
    auto* fx = new SnbFixture();
    LdbcContext ctx = LdbcContext::Resolve(fx->graph, fx->data.schema);
    ParamGen params(&fx->graph, &fx->data, /*seed=*/99);
    auto run_ius = [&](uint64_t seed) {
      for (int i = 0; i < 1500; ++i) {
        RunIU(1 + i % 8, ctx, &fx->graph, &params, seed + i);
      }
    };
    run_ius(1);
    CompactionOptions force;
    force.force = true;
    force.only = {ctx.forum_posts, ctx.post_forum, ctx.knows};
    fx->graph.CompactRelations(force);
    run_ius(100000);
    fx->graph.PruneVersions();
    return fx;
  }();
  return *fixture;
}

}  // namespace ges::testutil

#endif  // GES_TESTS_TEST_UTIL_H_

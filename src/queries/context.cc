#include <cassert>

#include "queries/ldbc.h"

namespace ges {

LdbcContext LdbcContext::Resolve(const Graph& graph, const SnbSchema& s) {
  LdbcContext c;
  c.s = s;
  auto rel = [&](LabelId from, LabelId edge, LabelId to, Direction d) {
    RelationId r = graph.FindRelation(from, edge, to, d);
    assert(r != kInvalidRelation && "relation not registered");
    return r;
  };
  using D = Direction;
  c.knows = rel(s.person, s.knows, s.person, D::kOut);
  c.knows_in = rel(s.person, s.knows, s.person, D::kIn);
  c.post_has_creator = rel(s.post, s.has_creator, s.person, D::kOut);
  c.comment_has_creator = rel(s.comment, s.has_creator, s.person, D::kOut);
  c.person_posts = rel(s.person, s.has_creator, s.post, D::kIn);
  c.person_comments = rel(s.person, s.has_creator, s.comment, D::kIn);
  c.person_likes_post = rel(s.person, s.likes, s.post, D::kOut);
  c.person_likes_comment = rel(s.person, s.likes, s.comment, D::kOut);
  c.post_likers = rel(s.post, s.likes, s.person, D::kIn);
  c.comment_likers = rel(s.comment, s.likes, s.person, D::kIn);
  c.comment_reply_of_post = rel(s.comment, s.reply_of, s.post, D::kOut);
  c.comment_reply_of_comment = rel(s.comment, s.reply_of, s.comment, D::kOut);
  c.post_replies = rel(s.post, s.reply_of, s.comment, D::kIn);
  c.comment_replies = rel(s.comment, s.reply_of, s.comment, D::kIn);
  c.post_tags = rel(s.post, s.has_tag, s.tag, D::kOut);
  c.comment_tags = rel(s.comment, s.has_tag, s.tag, D::kOut);
  c.tag_posts = rel(s.tag, s.has_tag, s.post, D::kIn);
  c.tag_comments = rel(s.tag, s.has_tag, s.comment, D::kIn);
  c.person_interests = rel(s.person, s.has_interest, s.tag, D::kOut);
  c.forum_members = rel(s.forum, s.has_member, s.person, D::kOut);
  c.person_member_of = rel(s.person, s.has_member, s.forum, D::kIn);
  c.forum_moderator = rel(s.forum, s.has_moderator, s.person, D::kOut);
  c.forum_posts = rel(s.forum, s.container_of, s.post, D::kOut);
  c.post_forum = rel(s.post, s.container_of, s.forum, D::kIn);
  c.person_city = rel(s.person, s.is_located_in, s.place, D::kOut);
  c.post_country = rel(s.post, s.is_located_in, s.place, D::kOut);
  c.comment_country = rel(s.comment, s.is_located_in, s.place, D::kOut);
  c.city_country = rel(s.place, s.is_part_of, s.place, D::kOut);
  c.tag_class = rel(s.tag, s.has_type, s.tagclass, D::kOut);
  c.person_study_at = rel(s.person, s.study_at, s.organisation, D::kOut);
  c.person_work_at = rel(s.person, s.work_at, s.organisation, D::kOut);
  c.org_place = rel(s.organisation, s.is_located_in, s.place, D::kOut);

  c.p_id = s.id;
  c.p_name = s.name;
  c.p_title = s.title;
  c.p_creation = s.creation_date;
  c.p_content = s.content;
  c.p_length = s.length;
  return c;
}

ParamGen::ParamGen(const Graph* graph, const SnbData* data, uint64_t seed)
    : graph_(graph),
      data_(data),
      rng_(seed),
      next_person_(data->next_person_ext),
      next_post_(data->next_post_ext),
      next_comment_(data->next_comment_ext),
      next_forum_(data->next_forum_ext) {}

LdbcParams ParamGen::Next() {
  std::lock_guard<std::mutex> lock(mu_);
  const SnbData& d = *data_;
  GraphView view(graph_);
  LdbcParams p;
  // Start persons are drawn from the bulk population (as in the LDBC
  // parameter curation, which picks persons with stable neighborhoods).
  p.person = static_cast<int64_t>(rng_.Uniform(d.persons.size()));
  do {
    p.person2 = static_cast<int64_t>(rng_.Uniform(d.persons.size()));
  } while (p.person2 == p.person && d.persons.size() > 1);
  p.post = static_cast<int64_t>(rng_.Uniform(d.posts.size()));

  // A first name that actually occurs.
  VertexId someone = d.persons[rng_.Uniform(d.persons.size())];
  p.first_name = view.Property(someone, d.schema.first_name).AsString();

  // Two distinct countries.
  size_t cx = rng_.Uniform(d.num_countries);
  size_t cy = (cx + 1 + rng_.Uniform(d.num_countries - 1)) % d.num_countries;
  p.country_x =
      view.Property(d.places[d.num_cities + cx], d.schema.name).AsString();
  p.country_y =
      view.Property(d.places[d.num_cities + cy], d.schema.name).AsString();

  p.tag_name = view
                   .Property(d.tags[rng_.Uniform(d.tags.size())],
                             d.schema.name)
                   .AsString();
  p.tag_class = view
                    .Property(d.tagclasses[rng_.Uniform(d.tagclasses.size())],
                              d.schema.name)
                    .AsString();

  int64_t window = kSimEnd - kSimStart;
  p.min_date = kSimStart + static_cast<int64_t>(rng_.NextDouble() * 0.5 *
                                                static_cast<double>(window));
  p.duration_days = 30 + static_cast<int64_t>(rng_.Uniform(70));
  p.max_date = kSimStart + static_cast<int64_t>(
                               (0.6 + 0.4 * rng_.NextDouble()) *
                               static_cast<double>(window));
  p.work_year = 2000 + static_cast<int64_t>(rng_.Uniform(13));
  p.month = 1 + static_cast<int64_t>(rng_.Uniform(12));
  return p;
}

}  // namespace ges

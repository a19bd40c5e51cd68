// The LDBC SNB Interactive workload: 14 complex reads (IC), 7 short reads
// (IS) and 8 updates (IU), implemented against the GES plan API.
//
// Read queries are engine-neutral Plans (interpreted by every ExecMode);
// update queries are MV2PL write transactions. Query semantics follow the
// LDBC SNB Interactive v1 specification adapted to the synthetic schema;
// deliberate simplifications are listed in DESIGN.md / README.
#ifndef GES_QUERIES_LDBC_H_
#define GES_QUERIES_LDBC_H_

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/snb_generator.h"
#include "executor/plan.h"
#include "storage/graph.h"

namespace ges {

// All adjacency tables the workload traverses, resolved once per graph.
// Naming: the table is indexed by the *first* entity; e.g. person_posts maps
// a PERSON to the POSTs that HAS_CREATOR-point at it (IN direction).
struct LdbcContext {
  SnbSchema s;

  RelationId knows;                    // PERSON -KNOWS-> PERSON
  RelationId knows_in;                 // PERSON <-KNOWS- PERSON
  RelationId post_has_creator;         // POST -> PERSON
  RelationId comment_has_creator;      // COMMENT -> PERSON
  RelationId person_posts;             // PERSON <- POST
  RelationId person_comments;          // PERSON <- COMMENT
  RelationId person_likes_post;        // PERSON -> POST
  RelationId person_likes_comment;     // PERSON -> COMMENT
  RelationId post_likers;              // POST <- PERSON
  RelationId comment_likers;           // COMMENT <- PERSON
  RelationId comment_reply_of_post;    // COMMENT -> POST
  RelationId comment_reply_of_comment; // COMMENT -> COMMENT
  RelationId post_replies;             // POST <- COMMENT
  RelationId comment_replies;          // COMMENT <- COMMENT
  RelationId post_tags;                // POST -> TAG
  RelationId comment_tags;             // COMMENT -> TAG
  RelationId tag_posts;                // TAG <- POST
  RelationId tag_comments;             // TAG <- COMMENT
  RelationId person_interests;         // PERSON -> TAG
  RelationId forum_members;            // FORUM -> PERSON
  RelationId person_member_of;         // PERSON <- FORUM
  RelationId forum_moderator;          // FORUM -> PERSON
  RelationId forum_posts;              // FORUM -> POST
  RelationId post_forum;               // POST <- FORUM
  RelationId person_city;              // PERSON -> PLACE
  RelationId post_country;             // POST -> PLACE
  RelationId comment_country;          // COMMENT -> PLACE
  RelationId city_country;             // PLACE -> PLACE (is_part_of)
  RelationId tag_class;                // TAG -> TAGCLASS
  RelationId person_study_at;          // PERSON -> ORGANISATION
  RelationId person_work_at;           // PERSON -> ORGANISATION
  RelationId org_place;                // ORGANISATION -> PLACE

  PropertyId p_id, p_name, p_title, p_creation, p_content, p_length;

  static LdbcContext Resolve(const Graph& graph, const SnbSchema& schema);
};

// ---------------------------------------------------------------------------
// Parameters: drawn deterministically from the generated data, mirroring the
// LDBC parameter-curation step (start persons with non-trivial
// neighborhoods, dates inside the simulation window, names/tags that occur).
// ---------------------------------------------------------------------------

struct LdbcParams {
  int64_t person;        // start person (external id)
  int64_t person2;       // second person (IC13/IC14)
  int64_t post;          // a post (IS4-7)
  std::string first_name;  // IC1
  std::string country_x;   // IC3
  std::string country_y;   // IC3
  std::string tag_name;    // IC6
  std::string tag_class;   // IC12
  int64_t max_date;      // upper bound date params
  int64_t min_date;      // lower bound / window start
  int64_t duration_days; // window length
  int64_t work_year;     // IC11
  int64_t month;         // IC10 (1..12)
};

class ParamGen {
 public:
  ParamGen(const Graph* graph, const SnbData* data, uint64_t seed);

  // Fresh parameters for a query instance (all fields filled).
  // Thread-safe: the driver shares one generator across worker threads.
  LdbcParams Next();

  // --- update-stream counters (shared across driver threads) ---
  int64_t NextPersonExt() { return next_person_.fetch_add(1); }
  int64_t NextPostExt() { return next_post_.fetch_add(1); }
  int64_t NextCommentExt() { return next_comment_.fetch_add(1); }
  int64_t NextForumExt() { return next_forum_.fetch_add(1); }

  const SnbData& data() const { return *data_; }

 private:
  const Graph* graph_;
  const SnbData* data_;
  std::mutex mu_;
  Rng rng_;
  std::atomic<int64_t> next_person_;
  std::atomic<int64_t> next_post_;
  std::atomic<int64_t> next_comment_;
  std::atomic<int64_t> next_forum_;
};

// ---------------------------------------------------------------------------
// Query builders. BuildIC(k, ...) with k in [1, 14]; BuildIS(k, ...) with k
// in [1, 7]. Each returns a fresh Plan for the given parameters.
// ---------------------------------------------------------------------------

Plan BuildIC(int k, const LdbcContext& ctx, const LdbcParams& p);
Plan BuildIS(int k, const LdbcContext& ctx, const LdbcParams& p);
// BI-flavored cyclic censuses (k in [1, 3]): BI1 triangle census, BI2
// diamond census, BI3 4-cycle census — the analytic workload tier whose
// plans the optimizer rewrites to IntersectExpand (DESIGN.md §12).
Plan BuildBI(int k, const LdbcContext& ctx, const LdbcParams& p);

// Runs update query IU k (1..8) as an MV2PL transaction against `graph`.
// Returns the commit version.
Version RunIU(int k, const LdbcContext& ctx, Graph* graph, ParamGen* params,
              uint64_t seed);

}  // namespace ges

#endif  // GES_QUERIES_LDBC_H_

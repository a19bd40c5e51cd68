#include "executor/plan.h"

namespace ges {

const char* OpTypeName(OpType t) {
  switch (t) {
    case OpType::kNodeByIdSeek:
      return "NodeByIdSeek";
    case OpType::kScanByLabel:
      return "ScanByLabel";
    case OpType::kExpand:
      return "Expand";
    case OpType::kGetProperty:
      return "GetProperty";
    case OpType::kFilter:
      return "Filter";
    case OpType::kProject:
      return "Project";
    case OpType::kOrderBy:
      return "OrderBy";
    case OpType::kAggregate:
      return "Aggregate";
    case OpType::kLimit:
      return "Limit";
    case OpType::kDistinct:
      return "Distinct";
    case OpType::kExpandInto:
      return "ExpandInto";
    case OpType::kProcedure:
      return "Procedure";
    case OpType::kExpandFiltered:
      return "ExpandFiltered";
    case OpType::kTopK:
      return "TopK";
    case OpType::kAggProjectTop:
      return "AggProjectTop";
    case OpType::kIntersectExpand:
      return "IntersectExpand";
  }
  return "?";
}

std::vector<std::string> ConsumedColumns(const PlanOp& op) {
  std::vector<std::string> out;
  switch (op.type) {
    case OpType::kExpand:
    case OpType::kExpandFiltered:
    case OpType::kGetProperty:
      out.push_back(op.in_column);
      break;
    case OpType::kExpandInto:
      out.push_back(op.in_column);
      out.push_back(op.other_column);
      break;
    case OpType::kIntersectExpand:
      out.push_back(op.in_column);
      for (const std::string& p : op.probe_columns) out.push_back(p);
      break;
    case OpType::kFilter:
      op.predicate->CollectColumns(&out);
      break;
    case OpType::kProject:
      for (const auto& [col, as] : op.selections) out.push_back(col);
      for (const ComputedColumn& c : op.computed) {
        c.expr->CollectColumns(&out);
      }
      break;
    case OpType::kOrderBy:
    case OpType::kTopK:
      for (const SortKey& k : op.sort_keys) out.push_back(k.column);
      break;
    case OpType::kAggregate:
    case OpType::kAggProjectTop:
      for (const std::string& g : op.group_by) out.push_back(g);
      for (const AggSpec& a : op.aggs) {
        if (!a.input.empty()) out.push_back(a.input);
      }
      break;
    default:
      break;
  }
  return out;
}

PlanBuilder& PlanBuilder::NodeByIdSeek(std::string out, LabelId label,
                                       int64_t ext_id) {
  PlanOp op;
  op.type = OpType::kNodeByIdSeek;
  op.out_column = std::move(out);
  op.label = label;
  op.seek_ext_id = ext_id;
  plan_.ops.push_back(std::move(op));
  return *this;
}

PlanBuilder& PlanBuilder::NodeByIdSeekParam(std::string out, LabelId label,
                                            int param, int64_t hint) {
  NodeByIdSeek(std::move(out), label, hint);
  plan_.ops.back().seek_param = param;
  return *this;
}

PlanBuilder& PlanBuilder::ScanByLabel(std::string out, LabelId label) {
  PlanOp op;
  op.type = OpType::kScanByLabel;
  op.out_column = std::move(out);
  op.label = label;
  plan_.ops.push_back(std::move(op));
  return *this;
}

PlanBuilder& PlanBuilder::Expand(std::string in, std::string out,
                                 std::vector<RelationId> rels, int min_hops,
                                 int max_hops, bool distinct,
                                 bool exclude_start) {
  return ExpandEx(std::move(in), std::move(out), std::move(rels), min_hops,
                  max_hops, distinct, exclude_start, "", "");
}

PlanBuilder& PlanBuilder::ExpandEx(std::string in, std::string out,
                                   std::vector<RelationId> rels, int min_hops,
                                   int max_hops, bool distinct,
                                   bool exclude_start,
                                   std::string distance_column,
                                   std::string stamp_column) {
  PlanOp op;
  op.type = OpType::kExpand;
  op.in_column = std::move(in);
  op.out_column = std::move(out);
  op.rels = std::move(rels);
  op.min_hops = min_hops;
  op.max_hops = max_hops;
  op.distinct = distinct;
  op.exclude_start = exclude_start;
  op.distance_column = std::move(distance_column);
  op.stamp_column = std::move(stamp_column);
  plan_.ops.push_back(std::move(op));
  return *this;
}

PlanBuilder& PlanBuilder::GetProperty(std::string vertex_col, PropertyId prop,
                                      ValueType type, std::string out) {
  PlanOp op;
  op.type = OpType::kGetProperty;
  op.in_column = std::move(vertex_col);
  op.out_column = std::move(out);
  op.property = prop;
  op.property_type = type;
  plan_.ops.push_back(std::move(op));
  return *this;
}

PlanBuilder& PlanBuilder::Filter(ExprPtr predicate) {
  PlanOp op;
  op.type = OpType::kFilter;
  op.predicate = std::move(predicate);
  plan_.ops.push_back(std::move(op));
  return *this;
}

PlanBuilder& PlanBuilder::Project(
    std::vector<std::pair<std::string, std::string>> sel,
    std::vector<ComputedColumn> computed) {
  PlanOp op;
  op.type = OpType::kProject;
  op.selections = std::move(sel);
  op.computed = std::move(computed);
  plan_.ops.push_back(std::move(op));
  return *this;
}

PlanBuilder& PlanBuilder::OrderBy(std::vector<SortKey> keys, uint64_t limit) {
  PlanOp op;
  op.type = OpType::kOrderBy;
  op.sort_keys = std::move(keys);
  op.limit = limit;
  plan_.ops.push_back(std::move(op));
  return *this;
}

PlanBuilder& PlanBuilder::Aggregate(std::vector<std::string> group_by,
                                    std::vector<AggSpec> aggs) {
  PlanOp op;
  op.type = OpType::kAggregate;
  op.group_by = std::move(group_by);
  op.aggs = std::move(aggs);
  plan_.ops.push_back(std::move(op));
  return *this;
}

PlanBuilder& PlanBuilder::Limit(uint64_t n) {
  PlanOp op;
  op.type = OpType::kLimit;
  op.limit = n;
  plan_.ops.push_back(std::move(op));
  return *this;
}

PlanBuilder& PlanBuilder::Distinct() {
  PlanOp op;
  op.type = OpType::kDistinct;
  plan_.ops.push_back(std::move(op));
  return *this;
}

PlanBuilder& PlanBuilder::ExpandInto(std::string a, std::string b,
                                     std::vector<RelationId> rels, bool anti) {
  PlanOp op;
  op.type = OpType::kExpandInto;
  op.in_column = std::move(a);
  op.other_column = std::move(b);
  op.rels = std::move(rels);
  op.anti = anti;
  plan_.ops.push_back(std::move(op));
  return *this;
}

PlanBuilder& PlanBuilder::IntersectExpand(
    std::string in, std::string out, std::vector<RelationId> rels,
    std::vector<std::string> probe_columns,
    std::vector<std::vector<RelationId>> probe_rels) {
  PlanOp op;
  op.type = OpType::kIntersectExpand;
  op.in_column = std::move(in);
  op.out_column = std::move(out);
  op.rels = std::move(rels);
  op.probe_columns = std::move(probe_columns);
  op.probe_rels = std::move(probe_rels);
  plan_.ops.push_back(std::move(op));
  return *this;
}

PlanBuilder& PlanBuilder::Procedure(
    std::function<FlatBlock(const GraphView&)> fn) {
  PlanOp op;
  op.type = OpType::kProcedure;
  op.procedure = std::move(fn);
  plan_.ops.push_back(std::move(op));
  return *this;
}

PlanBuilder& PlanBuilder::Output(std::vector<std::string> columns) {
  plan_.output = std::move(columns);
  return *this;
}

}  // namespace ges

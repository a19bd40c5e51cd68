#include "executor/explain.h"

#include <set>
#include <sstream>

namespace ges {

namespace {

// Columns an operator introduces.
std::vector<std::string> ProducedColumns(const PlanOp& op) {
  std::vector<std::string> out;
  switch (op.type) {
    case OpType::kNodeByIdSeek:
    case OpType::kScanByLabel:
      out.push_back(op.out_column);
      break;
    case OpType::kExpand:
      out.push_back(op.out_column);
      if (!op.distance_column.empty()) out.push_back(op.distance_column);
      if (!op.stamp_column.empty()) out.push_back(op.stamp_column);
      break;
    case OpType::kExpandFiltered:
      out.push_back(op.out_column);
      if (op.keep_property) out.push_back(op.other_column);
      break;
    case OpType::kIntersectExpand:
      out.push_back(op.out_column);
      break;
    case OpType::kGetProperty:
      out.push_back(op.out_column);
      break;
    case OpType::kProject:
      for (const auto& [col, as] : op.selections) {
        if (!as.empty() && as != col) out.push_back(as);
      }
      for (const ComputedColumn& c : op.computed) out.push_back(c.name);
      break;
    case OpType::kAggregate:
    case OpType::kAggProjectTop:
      for (const AggSpec& a : op.aggs) out.push_back(a.output);
      for (const ComputedColumn& c : op.computed) out.push_back(c.name);
      break;
    default:
      break;
  }
  return out;
}

bool IsLeaf(OpType t) {
  return t == OpType::kNodeByIdSeek || t == OpType::kScanByLabel ||
         t == OpType::kProcedure;
}

// " keys=[a asc, b desc]", then " limit=n" when the op has one.
void DescribeSort(const PlanOp& op, std::ostringstream& os) {
  if (!op.sort_keys.empty()) {
    os << " keys=[";
    for (size_t i = 0; i < op.sort_keys.size(); ++i) {
      os << (i > 0 ? ", " : "") << op.sort_keys[i].column
         << (op.sort_keys[i].ascending ? " asc" : " desc");
    }
    os << "]";
  }
  if (op.limit != UINT64_MAX) os << " limit=" << op.limit;
}

std::string DescribeOp(const PlanOp& op) {
  std::ostringstream os;
  os << OpTypeName(op.type);
  switch (op.type) {
    case OpType::kNodeByIdSeek:
      os << " label=" << op.label << " id=" << op.seek_ext_id;
      break;
    case OpType::kScanByLabel:
      os << " label=" << op.label;
      break;
    case OpType::kExpand:
    case OpType::kExpandFiltered: {
      os << " " << op.in_column << " -[";
      for (size_t i = 0; i < op.rels.size(); ++i) {
        os << (i > 0 ? "," : "") << "rel" << op.rels[i];
      }
      os << "]-> " << op.out_column;
      if (op.min_hops != 1 || op.max_hops != 1) {
        os << " (*" << op.min_hops << ".." << op.max_hops << ")";
      }
      if (op.distinct) os << " distinct";
      if (op.counted) os << " counted";
      if (op.deferred) os << " deferred";
      if (op.type == OpType::kExpandFiltered) {
        os << " fused-filter(" << op.other_column << ")";
      }
      break;
    }
    case OpType::kGetProperty:
      os << " " << op.in_column << ".#" << op.property << " -> "
         << op.out_column;
      if (op.deferred) os << " deferred";
      break;
    case OpType::kFilter:
      os << " " << op.predicate->ToString();
      break;
    case OpType::kOrderBy:
    case OpType::kTopK:
      DescribeSort(op, os);
      break;
    case OpType::kAggregate:
    case OpType::kAggProjectTop: {
      os << " group=[";
      for (size_t i = 0; i < op.group_by.size(); ++i) {
        os << (i > 0 ? ", " : "") << op.group_by[i];
      }
      os << "] aggs=[";
      for (size_t i = 0; i < op.aggs.size(); ++i) {
        os << (i > 0 ? ", " : "") << op.aggs[i].output;
      }
      os << "]";
      if (!op.computed.empty()) {
        os << " computed=[";
        for (size_t i = 0; i < op.computed.size(); ++i) {
          os << (i > 0 ? ", " : "") << op.computed[i].name << " = "
             << op.computed[i].expr->ToString();
        }
        os << "]";
      }
      DescribeSort(op, os);
      if (!op.group_vertex.empty()) os << " by-vertex " << op.group_vertex;
      break;
    }
    case OpType::kLimit:
      os << " " << op.limit;
      break;
    case OpType::kExpandInto:
      os << " " << op.in_column << (op.anti ? " -!-> " : " --> ")
         << op.other_column;
      break;
    case OpType::kIntersectExpand: {
      os << " " << op.in_column << " -[";
      for (size_t i = 0; i < op.rels.size(); ++i) {
        os << (i > 0 ? "," : "") << "rel" << op.rels[i];
      }
      os << "]-> " << op.out_column << " intersect [";
      for (size_t i = 0; i < op.probe_columns.size(); ++i) {
        os << (i > 0 ? ", " : "") << "N(" << op.probe_columns[i] << ")";
      }
      os << "]";
      break;
    }
    default:
      break;
  }
  return os.str();
}

}  // namespace

std::string ExplainPlan(const Plan& plan) {
  std::ostringstream os;
  os << "Plan";
  if (!plan.name.empty()) os << " [" << plan.name << "]";
  os << ":\n";
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    os << "  " << (i + 1) << ". " << DescribeOp(plan.ops[i]);
    std::vector<std::string> produced = ProducedColumns(plan.ops[i]);
    if (!produced.empty()) {
      os << "  -> [";
      for (size_t k = 0; k < produced.size(); ++k) {
        os << (k > 0 ? ", " : "") << produced[k];
      }
      os << "]";
    }
    os << "\n";
  }
  if (!plan.output.empty()) {
    os << "  output: [";
    for (size_t k = 0; k < plan.output.size(); ++k) {
      os << (k > 0 ? ", " : "") << plan.output[k];
    }
    os << "]\n";
  }
  return os.str();
}

std::string ExplainAnalyze(const Plan& plan, const QueryResult& result) {
  std::ostringstream os;
  os << ExplainPlan(plan);
  os << "Analyze:\n";
  for (const OpStats& s : result.stats.ops) {
    os << "  " << s.op << ": rows=" << s.rows;
    if (s.est_rows >= 0) {
      os << " est=" << static_cast<uint64_t>(s.est_rows + 0.5);
    }
    os << " millis=" << s.millis << " bytes=" << s.intermediate_bytes;
    if (s.intersect.Any()) {
      os << " probes=" << s.intersect.probes
         << " gallops=" << s.intersect.gallops
         << " skipped=" << s.intersect.skipped
         << " emitted=" << s.intersect.emitted;
    }
    os << "\n";
  }
  os << "  total: millis=" << result.stats.total_millis
     << " peak_bytes=" << result.stats.peak_intermediate_bytes;
  if (result.stats.peak_memory_bytes > 0) {
    // Governor accounting (DESIGN.md §15): peak bytes charged against the
    // query's MemoryBudget, a superset of the per-op intermediate gauge
    // (it also sees transient expansion scratch and flatten pre-sizing).
    os << " peak_memory=" << result.stats.peak_memory_bytes;
  }
  const IntersectOpStats& t = result.stats.intersect;
  if (t.Any()) {
    os << " probes=" << t.probes << " gallops=" << t.gallops
       << " skipped=" << t.skipped << " emitted=" << t.emitted;
  }
  os << "\n";
  return os.str();
}

Status ValidatePlan(const Plan& plan) {
  if (plan.ops.empty()) return Status::InvalidArgument("plan has no ops");
  if (!IsLeaf(plan.ops[0].type)) {
    return Status::InvalidArgument(
        std::string("first operator must be a leaf, got ") +
        OpTypeName(plan.ops[0].type));
  }
  std::set<std::string> live;
  bool procedural = plan.ops[0].type == OpType::kProcedure;
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const PlanOp& op = plan.ops[i];
    if (i > 0 && IsLeaf(op.type) && op.type != OpType::kProcedure) {
      return Status::InvalidArgument("leaf operator in pipeline position");
    }
    if (!procedural) {
      for (const std::string& c : ConsumedColumns(op)) {
        if (live.count(c) == 0) {
          return Status::InvalidArgument(
              "op " + std::to_string(i + 1) + " (" + OpTypeName(op.type) +
              ") consumes unknown column '" + c + "'");
        }
      }
    }
    // Aggregations replace the live set with keys + outputs.
    if (op.type == OpType::kAggregate || op.type == OpType::kAggProjectTop) {
      std::set<std::string> next(op.group_by.begin(), op.group_by.end());
      for (const std::string& c : ProducedColumns(op)) next.insert(c);
      live = std::move(next);
      continue;
    }
    // Projection with explicit selections also replaces the live set.
    if (op.type == OpType::kProject && !op.selections.empty()) {
      std::set<std::string> next;
      for (const auto& [col, as] : op.selections) {
        next.insert(as.empty() ? col : as);
      }
      for (const ComputedColumn& c : op.computed) next.insert(c.name);
      live = std::move(next);
      continue;
    }
    if (op.type == OpType::kIntersectExpand) {
      if (op.probe_columns.empty()) {
        return Status::InvalidArgument(
            "IntersectExpand needs at least one probe column");
      }
      if (op.probe_columns.size() != op.probe_rels.size()) {
        return Status::InvalidArgument(
            "IntersectExpand probe_columns/probe_rels size mismatch");
      }
    }
    for (const std::string& c : ProducedColumns(op)) {
      if (!live.insert(c).second) {
        return Status::InvalidArgument("column '" + c + "' produced twice");
      }
    }
  }
  if (!procedural) {
    for (const std::string& c : plan.output) {
      if (live.count(c) == 0) {
        return Status::InvalidArgument("output references unknown column '" +
                                       c + "'");
      }
    }
  }
  return Status::OK();
}

}  // namespace ges

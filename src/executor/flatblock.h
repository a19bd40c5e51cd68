// Row-oriented flat block: the classical fully-materialized intermediate
// representation ("flat representation" in the paper) and the universal
// result format.
#ifndef GES_EXECUTOR_FLATBLOCK_H_
#define GES_EXECUTOR_FLATBLOCK_H_

#include <vector>

#include "common/value.h"
#include "executor/schema.h"

namespace ges {

class FlatBlock {
 public:
  FlatBlock() = default;
  explicit FlatBlock(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  Schema* mutable_schema() { return &schema_; }

  size_t NumRows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  void AppendRow(std::vector<Value> row) { rows_.push_back(std::move(row)); }
  void Reserve(size_t n) { rows_.reserve(n); }
  void Clear() { rows_.clear(); }

  const std::vector<Value>& Row(size_t i) const { return rows_[i]; }
  const Value& At(size_t row, size_t col) const { return rows_[row][col]; }

  std::vector<std::vector<Value>>& rows() { return rows_; }
  const std::vector<std::vector<Value>>& rows() const { return rows_; }

  // Approximate heap footprint (intermediate-result accounting, Table 2).
  size_t MemoryBytes() const {
    size_t bytes = rows_.capacity() * sizeof(std::vector<Value>);
    for (const auto& row : rows_) {
      bytes += row.capacity() * sizeof(Value);
      for (const Value& v : row) {
        if (v.type() == ValueType::kString) bytes += v.AsString().capacity();
      }
    }
    return bytes;
  }

  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<std::vector<Value>> rows_;
};

}  // namespace ges

#endif  // GES_EXECUTOR_FLATBLOCK_H_

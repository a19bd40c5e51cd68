// Columnar vertex property tables.
//
// Per the paper (Section 5): "For vertex properties, we organize them in a
// columnar table, with each row corresponding to a vertex and each column
// representing a property." There is one table per vertex label; rows are
// addressed by the vertex's dense offset within its label.
//
// String columns are dictionary-encoded against the graph's shared
// StringDict: cells hold uint32 codes, and Set() interns new strings during
// the (single-threaded) bulk-load phase. After Graph::FinalizeBulk the
// tables and the dictionary are immutable.
#ifndef GES_STORAGE_PROPERTY_STORE_H_
#define GES_STORAGE_PROPERTY_STORE_H_

#include <string_view>
#include <vector>

#include "common/string_dict.h"
#include "common/types.h"
#include "common/value.h"
#include "storage/catalog.h"

namespace ges {

class PropertyTable {
 public:
  // `dict` (owned by the graph) backs every kString column; may be null
  // only for tables without string columns.
  PropertyTable(std::vector<ValueType> column_types, StringDict* dict)
      : dict_(dict) {
    columns_.reserve(column_types.size());
    for (ValueType t : column_types) {
      ValueVector col(t);
      if (t == ValueType::kString) col.InitDict(dict);
      columns_.push_back(std::move(col));
    }
  }

  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  size_t num_columns() const { return columns_.size(); }

  // Appends a row of nulls/zeroes; returns its offset.
  size_t AppendRow();

  const ValueVector& Column(int slot) const { return columns_[slot]; }

  Value Get(size_t row, int slot) const { return columns_[slot].GetValue(row); }
  void Set(size_t row, int slot, const Value& v) {
    if (columns_[slot].dict_encoded()) {
      columns_[slot].SetCode(row, dict_->Intern(v.AsString()));
      return;
    }
    columns_[slot].SetValue(row, v);
  }
  // Bulk-load fast path for string cells: interns without boxing a Value.
  void SetString(size_t row, int slot, std::string_view s) {
    if (columns_[slot].dict_encoded()) {
      columns_[slot].SetCode(row, dict_->Intern(s));
      return;
    }
    columns_[slot].SetString(row, std::string(s));
  }

  size_t MemoryBytes() const;

 private:
  std::vector<ValueVector> columns_;
  StringDict* dict_;
};

}  // namespace ges

#endif  // GES_STORAGE_PROPERTY_STORE_H_

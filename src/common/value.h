// Tagged property value and typed columnar vector.
//
// Value is the row-oriented cell used by flat blocks and query results.
// ValueVector is the column-oriented storage used by f-Blocks and the
// columnar property store: one ValueVector stores singletons of a single
// type in a consecutive chunk of memory (Section 4.2, "column-oriented
// storage").
#ifndef GES_COMMON_VALUE_H_
#define GES_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_dict.h"
#include "common/types.h"

namespace ges {

enum class ValueType : uint8_t {
  kNull = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
  kDate,    // days or milliseconds since epoch, stored as int64
  kVertex,  // internal VertexId
};

// Returns true for types whose physical representation is an int64 slot.
inline bool IsIntegerPhysical(ValueType t) {
  return t == ValueType::kBool || t == ValueType::kInt64 ||
         t == ValueType::kDate || t == ValueType::kVertex;
}

// A single tagged value. Strings are owned.
class Value {
 public:
  Value() : type_(ValueType::kNull), i_(0) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(ValueType::kBool, b ? 1 : 0); }
  static Value Int(int64_t i) { return Value(ValueType::kInt64, i); }
  static Value Double(double d) {
    Value v;
    v.type_ = ValueType::kDouble;
    v.d_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = ValueType::kString;
    v.s_ = std::move(s);
    return v;
  }
  static Value Date(int64_t millis) { return Value(ValueType::kDate, millis); }
  static Value Vertex(VertexId id) {
    return Value(ValueType::kVertex, static_cast<int64_t>(id));
  }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  bool AsBool() const { return i_ != 0; }
  int64_t AsInt() const { return i_; }
  double AsDouble() const {
    return type_ == ValueType::kDouble ? d_ : static_cast<double>(i_);
  }
  const std::string& AsString() const { return s_; }
  VertexId AsVertex() const { return static_cast<VertexId>(i_); }

  // Total order used by OrderBy and comparisons in tests: nulls first, then
  // by type, then by value.
  int Compare(const Value& other) const;
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  size_t Hash() const;
  std::string ToString() const;

 private:
  Value(ValueType t, int64_t i) : type_(t), i_(i) {}

  ValueType type_;
  union {
    int64_t i_;
    double d_;
  };
  std::string s_;
};

// A typed column of singletons. All rows share type(); the physical storage
// is one contiguous vector chosen by the type. This is the building block of
// the f-Block and of the columnar property store.
//
// String columns have two physical representations:
//   * owned   — a std::vector<std::string> (results, ad-hoc intermediates);
//   * dict    — a std::vector<uint32_t> of codes into a shared StringDict
//               (base property columns and everything gathered from them).
// Dict columns decode transparently through GetString/GetValue. Appending a
// string that is not in the (immutable) dictionary decays the column to the
// owned representation — see DecayToOwned().
class ValueVector {
 public:
  ValueVector() : type_(ValueType::kNull) {}
  explicit ValueVector(ValueType type) : type_(type) {}

  ValueType type() const { return type_; }
  size_t size() const {
    if (type_ == ValueType::kString) {
      return dict_ != nullptr ? codes_.size() : strings_.size();
    }
    if (type_ == ValueType::kDouble) return doubles_.size();
    return ints_.size();
  }
  bool empty() const { return size() == 0; }

  void Reserve(size_t n);
  void Clear();
  void Resize(size_t n);

  void AppendInt(int64_t v) { ints_.push_back(v); }
  void AppendDouble(double v) { doubles_.push_back(v); }
  void AppendString(std::string v);
  void AppendVertex(VertexId v) { ints_.push_back(static_cast<int64_t>(v)); }
  void AppendValue(const Value& v);
  // Appends the zero placeholder for this type (0 / 0.0 / ""), identical to
  // AppendValue(Value::Null()) but without boxing.
  void AppendZero() {
    if (type_ == ValueType::kString) {
      if (dict_ != nullptr) {
        codes_.push_back(0);  // code 0 always decodes to ""
      } else {
        strings_.emplace_back();
      }
    } else if (type_ == ValueType::kDouble) {
      doubles_.push_back(0.0);
    } else {
      ints_.push_back(0);
    }
  }
  // Appends rows [begin, end) of `other` (same type) to this column.
  void AppendRange(const ValueVector& other, size_t begin, size_t end);
  // Appends row `i` of `other` (same type), preserving dict codes when both
  // sides share the dictionary.
  void AppendFrom(const ValueVector& other, size_t i);

  int64_t GetInt(size_t i) const { return ints_[i]; }
  double GetDouble(size_t i) const { return doubles_[i]; }
  const std::string& GetString(size_t i) const {
    return dict_ != nullptr ? dict_->Get(codes_[i]) : strings_[i];
  }
  VertexId GetVertex(size_t i) const {
    return static_cast<VertexId>(ints_[i]);
  }
  Value GetValue(size_t i) const;

  void SetInt(size_t i, int64_t v) { ints_[i] = v; }
  void SetString(size_t i, std::string v);
  void SetValue(size_t i, const Value& v);

  // --- dictionary-encoded string columns ---
  // Puts this (empty, kString) column in dict mode: rows are uint32 codes
  // into `dict`, which must outlive the column and stay immutable while
  // the column reads through it.
  void InitDict(const StringDict* dict);
  bool dict_encoded() const { return dict_ != nullptr; }
  const StringDict* dict() const { return dict_; }
  uint32_t GetCode(size_t i) const { return codes_[i]; }
  void SetCode(size_t i, uint32_t code) { codes_[i] = code; }
  // Converts a dict column to the owned representation (decoding every
  // row). Called when a value outside the dictionary must be stored (e.g.
  // an MVCC overlay string written after bulk load).
  void DecayToOwned();

  // Raw access used by vectorized kernels and the pointer-based join.
  const int64_t* ints_data() const { return ints_.data(); }
  const double* doubles_data() const { return doubles_.data(); }
  const uint32_t* codes_data() const { return codes_.data(); }

  // Approximate heap footprint in bytes; used for the intermediate-result
  // accounting behind Table 2.
  size_t MemoryBytes() const;

 private:
  ValueType type_;
  std::vector<int64_t> ints_;  // bool / int64 / date / vertex
  std::vector<double> doubles_;
  std::vector<std::string> strings_;    // owned strings (dict_ == nullptr)
  std::vector<uint32_t> codes_;         // dict codes (dict_ != nullptr)
  const StringDict* dict_ = nullptr;
};

}  // namespace ges

#endif  // GES_COMMON_VALUE_H_

#include "common/value.h"

#include <cassert>
#include <functional>

namespace ges {

int Value::Compare(const Value& other) const {
  if (type_ != other.type_) {
    // Numeric cross-type comparison: every int-physical type (int64, date,
    // bool, vertex) and double compare by value — a DATE column filtered
    // against an integer literal must behave numerically. Other mixed-type
    // pairs order by type tag so the order stays total.
    bool num_a = IsIntegerPhysical(type_) || type_ == ValueType::kDouble;
    bool num_b =
        IsIntegerPhysical(other.type_) || other.type_ == ValueType::kDouble;
    if (num_a && num_b) {
      if (type_ != ValueType::kDouble && other.type_ != ValueType::kDouble) {
        if (i_ < other.i_) return -1;
        if (i_ > other.i_) return 1;
        return 0;
      }
      double a = AsDouble();
      double b = other.AsDouble();
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    return type_ < other.type_ ? -1 : 1;
  }
  switch (type_) {
    case ValueType::kNull:
      return 0;
    case ValueType::kDouble:
      if (d_ < other.d_) return -1;
      if (d_ > other.d_) return 1;
      return 0;
    case ValueType::kString:
      return s_.compare(other.s_) < 0 ? -1 : (s_ == other.s_ ? 0 : 1);
    default:
      if (i_ < other.i_) return -1;
      if (i_ > other.i_) return 1;
      return 0;
  }
}

size_t Value::Hash() const {
  size_t h = static_cast<size_t>(type_) * 0x9e3779b97f4a7c15ULL;
  switch (type_) {
    case ValueType::kNull:
      return h;
    case ValueType::kDouble:
      return h ^ std::hash<double>()(d_);
    case ValueType::kString:
      return h ^ std::hash<std::string>()(s_);
    default:
      return h ^ std::hash<int64_t>()(i_);
  }
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return i_ ? "true" : "false";
    case ValueType::kInt64:
    case ValueType::kDate:
      return std::to_string(i_);
    case ValueType::kDouble:
      return std::to_string(d_);
    case ValueType::kString:
      return s_;
    case ValueType::kVertex: {
      std::string out = "v";
      out += std::to_string(i_);
      return out;
    }
  }
  return "?";
}

void ValueVector::Reserve(size_t n) {
  if (type_ == ValueType::kString) {
    if (dict_ != nullptr) {
      codes_.reserve(n);
    } else {
      strings_.reserve(n);
    }
  } else if (type_ == ValueType::kDouble) {
    doubles_.reserve(n);
  } else {
    ints_.reserve(n);
  }
}

void ValueVector::Clear() {
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  codes_.clear();
}

void ValueVector::Resize(size_t n) {
  if (type_ == ValueType::kString) {
    // Dict columns grow with code 0, which decodes to "".
    if (dict_ != nullptr) {
      codes_.resize(n);
    } else {
      strings_.resize(n);
    }
  } else if (type_ == ValueType::kDouble) {
    doubles_.resize(n);
  } else {
    ints_.resize(n);
  }
}

void ValueVector::InitDict(const StringDict* dict) {
  assert(type_ == ValueType::kString && empty());
  dict_ = dict;
}

void ValueVector::DecayToOwned() {
  if (dict_ == nullptr) return;
  strings_.reserve(codes_.size());
  for (uint32_t code : codes_) strings_.push_back(dict_->Get(code));
  codes_.clear();
  codes_.shrink_to_fit();
  dict_ = nullptr;
}

void ValueVector::AppendString(std::string v) {
  if (dict_ != nullptr) {
    uint32_t code = dict_->Find(v);
    if (code != StringDict::kInvalidCode) {
      codes_.push_back(code);
      return;
    }
    DecayToOwned();
  }
  strings_.push_back(std::move(v));
}

void ValueVector::SetString(size_t i, std::string v) {
  if (dict_ != nullptr) {
    uint32_t code = dict_->Find(v);
    if (code != StringDict::kInvalidCode) {
      codes_[i] = code;
      return;
    }
    DecayToOwned();
  }
  strings_[i] = std::move(v);
}

void ValueVector::AppendValue(const Value& v) {
  switch (type_) {
    case ValueType::kDouble:
      doubles_.push_back(v.AsDouble());
      break;
    case ValueType::kString:
      AppendString(v.AsString());
      break;
    default:
      ints_.push_back(v.AsInt());
      break;
  }
}

void ValueVector::AppendRange(const ValueVector& other, size_t begin,
                              size_t end) {
  switch (type_) {
    case ValueType::kDouble:
      doubles_.insert(doubles_.end(), other.doubles_.begin() + begin,
                      other.doubles_.begin() + end);
      break;
    case ValueType::kString:
      if (dict_ != nullptr && other.dict_ == dict_) {
        codes_.insert(codes_.end(), other.codes_.begin() + begin,
                      other.codes_.begin() + end);
      } else if (other.dict_ != nullptr) {
        // Different (or no) dictionary on this side: append decoded.
        for (size_t i = begin; i < end; ++i) {
          AppendString(other.dict_->Get(other.codes_[i]));
        }
      } else {
        if (dict_ != nullptr) DecayToOwned();
        strings_.insert(strings_.end(), other.strings_.begin() + begin,
                        other.strings_.begin() + end);
      }
      break;
    default:
      ints_.insert(ints_.end(), other.ints_.begin() + begin,
                   other.ints_.begin() + end);
      break;
  }
}

void ValueVector::AppendFrom(const ValueVector& other, size_t i) {
  switch (type_) {
    case ValueType::kDouble:
      doubles_.push_back(other.doubles_[i]);
      break;
    case ValueType::kString:
      if (dict_ != nullptr && other.dict_ == dict_) {
        codes_.push_back(other.codes_[i]);
      } else {
        AppendString(other.GetString(i));
      }
      break;
    default:
      ints_.push_back(other.ints_[i]);
      break;
  }
}

Value ValueVector::GetValue(size_t i) const {
  switch (type_) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool:
      return Value::Bool(ints_[i] != 0);
    case ValueType::kInt64:
      return Value::Int(ints_[i]);
    case ValueType::kDouble:
      return Value::Double(doubles_[i]);
    case ValueType::kString:
      return Value::String(GetString(i));
    case ValueType::kDate:
      return Value::Date(ints_[i]);
    case ValueType::kVertex:
      return Value::Vertex(static_cast<VertexId>(ints_[i]));
  }
  return Value::Null();
}

void ValueVector::SetValue(size_t i, const Value& v) {
  switch (type_) {
    case ValueType::kDouble:
      doubles_[i] = v.AsDouble();
      break;
    case ValueType::kString:
      SetString(i, v.AsString());
      break;
    default:
      ints_[i] = v.AsInt();
      break;
  }
}

size_t ValueVector::MemoryBytes() const {
  size_t bytes = ints_.capacity() * sizeof(int64_t) +
                 doubles_.capacity() * sizeof(double) +
                 codes_.capacity() * sizeof(uint32_t);
  // The dictionary itself is shared, graph-owned state; it is accounted
  // once by Graph::MemoryBytes, not per column.
  for (const std::string& s : strings_) {
    bytes += sizeof(std::string) + s.capacity();
  }
  bytes += (strings_.capacity() - strings_.size()) * sizeof(std::string);
  return bytes;
}

}  // namespace ges

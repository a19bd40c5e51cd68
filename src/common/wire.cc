#include "common/wire.h"

namespace ges {

void WireBuf::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<char>(static_cast<uint8_t>(v) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<char>(v));
}

uint64_t WireReader::GetVarint() {
  uint64_t v = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    uint8_t c = GetU8();
    if (!ok_) return 0;
    v |= static_cast<uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) return v;
  }
  ok_ = false;  // more than 10 bytes: not a varint this codec wrote
  return 0;
}

void PutValue(WireBuf* out, const Value& v) {
  out->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kDouble:
      out->PutDouble(v.AsDouble());
      break;
    case ValueType::kString:
      out->PutString(v.AsString());
      break;
    default:  // bool / int64 / date / vertex: one int64 slot
      out->PutI64(v.AsInt());
  }
}

Value GetValue(WireReader* in) {
  ValueType t = static_cast<ValueType>(in->GetU8());
  switch (t) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool:
      return Value::Bool(in->GetI64() != 0);
    case ValueType::kDouble:
      return Value::Double(in->GetDouble());
    case ValueType::kString:
      return Value::String(in->GetString());
    case ValueType::kDate:
      return Value::Date(in->GetI64());
    case ValueType::kVertex:
      return Value::Vertex(static_cast<VertexId>(in->GetU64()));
    case ValueType::kInt64:
      return Value::Int(in->GetI64());
  }
  in->MarkBad();  // unknown tag: the stream position is unknowable
  return Value::Null();
}

}  // namespace ges

// The one little-endian byte codec in GES (DESIGN.md §8). The service wire
// protocol, the WAL and the snapshot file all encode through it, so a WAL
// record shipped inside a replication frame is the same bytes on disk and
// on the wire.
//
// Encodings:
//   fixed-width integers   little-endian u8/u16/u32/u64 (i64 as u64)
//   double                 IEEE-754 bits as u64
//   string                 u32 length + bytes
//   varint                 unsigned LEB128 (at most 10 bytes)
//   zigzag                 varint of (v << 1) ^ (v >> 63)
//   Value                  u8 ValueType tag, then nothing for kNull, a
//                          double for kDouble, a string for kString and one
//                          i64 slot for every integer-physical type
#ifndef GES_COMMON_WIRE_H_
#define GES_COMMON_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/value.h"

namespace ges {

// Append-only encoder. The fixed-width puts are inline: the WAL commit
// path and result-frame encoding call them per field.
class WireBuf {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutLittleEndian(v, 2); }
  void PutU32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutU64(uint64_t v) { PutLittleEndian(v, 8); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  void PutString(std::string_view s) {  // u32 length + bytes
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  void PutVarint(uint64_t v);
  void PutZigZag(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }
  void PutBytes(std::string_view s) { buf_.append(s); }  // no length prefix

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void PutLittleEndian(uint64_t v, int n) {
    char bytes[8];
    for (int i = 0; i < n; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
    buf_.append(bytes, n);
  }

  std::string buf_;
};

// Bounds-checked decoder over a borrowed buffer. Every Get* returns a
// default value once `ok()` is false; callers check ok() after parsing a
// body. No Get* allocates more than the bytes left in the buffer.
class WireReader {
 public:
  WireReader(const char* data, size_t size) : p_(data), end_(data + size) {}
  explicit WireReader(std::string_view s) : WireReader(s.data(), s.size()) {}

  uint8_t GetU8() { return static_cast<uint8_t>(GetLittleEndian(1)); }
  uint16_t GetU16() { return static_cast<uint16_t>(GetLittleEndian(2)); }
  uint32_t GetU32() { return static_cast<uint32_t>(GetLittleEndian(4)); }
  uint64_t GetU64() { return GetLittleEndian(8); }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetDouble() {
    uint64_t bits = GetU64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string GetString() { return std::string(GetBytes(GetU32())); }
  uint64_t GetVarint();
  int64_t GetZigZag() {
    uint64_t v = GetVarint();
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
  }
  // The next `n` bytes as a view into the buffer (empty once poisoned).
  std::string_view GetBytes(uint64_t n) {
    if (!Need(n)) return std::string_view();
    std::string_view s(p_, static_cast<size_t>(n));
    p_ += n;
    return s;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return p_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  // Poisons the reader: a decoder that meets an unknown tag cannot know
  // where the next field starts, so the whole buffer is rejected.
  void MarkBad() { ok_ = false; }

 private:
  bool Need(uint64_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  uint64_t GetLittleEndian(int n) {
    if (!Need(n)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(p_[i])) << (8 * i);
    }
    p_ += n;
    return v;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

// Tagged Value (see the header comment). GetValue poisons the reader on an
// unknown tag.
void PutValue(WireBuf* out, const Value& v);
Value GetValue(WireReader* in);

}  // namespace ges

#endif  // GES_COMMON_WIRE_H_

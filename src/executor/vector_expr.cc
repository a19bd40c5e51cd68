#include "executor/vector_expr.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>

#include "common/string_dict.h"
#include "executor/optimizer.h"

namespace ges {
namespace vexpr {

namespace {

// Value stores int64/double in a union; AsBool/AsInt on a double value read
// the raw bits. Kernels replicate that with an explicit bit copy.
inline int64_t UnionBits(double d) {
  int64_t i;
  std::memcpy(&i, &d, sizeof(d));
  return i;
}

inline bool IsNumeric(ValueType t) {
  return IsIntegerPhysical(t) || t == ValueType::kDouble;
}

// Comparison verdict from a three-way sign, matching BoundExpr::Eval.
inline bool CmpResult(ExprOp op, int c) {
  switch (op) {
    case ExprOp::kEq:
      return c == 0;
    case ExprOp::kNe:
      return c != 0;
    case ExprOp::kLt:
      return c < 0;
    case ExprOp::kLe:
      return c <= 0;
    case ExprOp::kGt:
      return c > 0;
    default:
      return c >= 0;
  }
}

// Mirrors op across operand swap: (k OP v) == (v FlipOp(op) k).
inline ExprOp FlipOp(ExprOp op) {
  switch (op) {
    case ExprOp::kLt:
      return ExprOp::kGt;
    case ExprOp::kLe:
      return ExprOp::kGe;
    case ExprOp::kGt:
      return ExprOp::kLt;
    case ExprOp::kGe:
      return ExprOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

// Static selectivity guess per comparison op (no table statistics yet);
// only used to order AND/OR operands, so rough is fine.
inline double CmpEst(ExprOp op) {
  switch (op) {
    case ExprOp::kEq:
      return 0.1;
    case ExprOp::kNe:
      return 0.9;
    case ExprOp::kLt:
    case ExprOp::kGt:
      return 0.4;
    default:
      return 0.6;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Value nodes: a typed sub-expression evaluated over a row range. Every node
// exposes the two views the interpreter's Value union supports — EvalI (the
// raw int64 slot: AsInt/AsBool semantics, doubles bit-reinterpreted) and
// EvalD (AsDouble: numeric promotion, 0.0 for strings/nulls).
// ---------------------------------------------------------------------------

struct ValNode {
  ValueType type = ValueType::kNull;
  virtual ~ValNode() = default;
  virtual void EvalI(size_t lo, size_t hi, int64_t* out) const = 0;
  virtual void EvalD(size_t lo, size_t hi, double* out) const = 0;
  // Non-null when this node is a plain column reference (zero-copy views).
  virtual const ValueVector* column() const { return nullptr; }
  // Non-null when this node is a constant.
  virtual const Value* constant() const { return nullptr; }
};

using ValPtr = std::unique_ptr<ValNode>;

namespace {

// p[r - lo] = union-int of row r; zero-copy for int-physical columns.
const int64_t* IView(const ValNode& n, size_t lo, size_t hi,
                     std::vector<int64_t>* storage) {
  const ValueVector* c = n.column();
  if (c != nullptr && IsIntegerPhysical(c->type())) {
    return c->ints_data() + lo;
  }
  storage->resize(hi - lo);
  n.EvalI(lo, hi, storage->data());
  return storage->data();
}

// p[r - lo] = AsDouble of row r; zero-copy for double columns.
const double* DView(const ValNode& n, size_t lo, size_t hi,
                    std::vector<double>* storage) {
  const ValueVector* c = n.column();
  if (c != nullptr && c->type() == ValueType::kDouble) {
    return c->doubles_data() + lo;
  }
  storage->resize(hi - lo);
  n.EvalD(lo, hi, storage->data());
  return storage->data();
}

struct ColumnNode final : ValNode {
  const ValueVector* col;
  explicit ColumnNode(const ValueVector* c) : col(c) { type = c->type(); }
  const ValueVector* column() const override { return col; }
  void EvalI(size_t lo, size_t hi, int64_t* out) const override {
    switch (type) {
      case ValueType::kDouble: {
        const double* d = col->doubles_data();
        for (size_t r = lo; r < hi; ++r) out[r - lo] = UnionBits(d[r]);
        break;
      }
      case ValueType::kString:
      case ValueType::kNull:
        // String/null Values carry 0 in the int slot.
        std::fill(out, out + (hi - lo), int64_t{0});
        break;
      default:
        std::memcpy(out, col->ints_data() + lo, (hi - lo) * sizeof(int64_t));
        break;
    }
  }
  void EvalD(size_t lo, size_t hi, double* out) const override {
    switch (type) {
      case ValueType::kDouble:
        std::memcpy(out, col->doubles_data() + lo,
                    (hi - lo) * sizeof(double));
        break;
      case ValueType::kString:
      case ValueType::kNull:
        std::fill(out, out + (hi - lo), 0.0);
        break;
      default: {
        const int64_t* p = col->ints_data() + lo;
        for (size_t i = 0; i < hi - lo; ++i) {
          out[i] = static_cast<double>(p[i]);
        }
        break;
      }
    }
  }
};

// The head column of a lazy (pointer-join) block. It has no vector, so
// each call copies the ids of its rows from the block's adjacency segments
// into the caller's per-call storage (IView/DView).
struct LazyHeadNode final : ValNode {
  const FBlock* block;
  explicit LazyHeadNode(const FBlock* b) : block(b) {
    type = ValueType::kVertex;
  }
  void EvalI(size_t lo, size_t hi, int64_t* out) const override {
    block->CopyHeadIds(lo, hi, out);
  }
  void EvalD(size_t lo, size_t hi, double* out) const override {
    std::vector<int64_t> ids(hi - lo);
    block->CopyHeadIds(lo, hi, ids.data());
    for (size_t i = 0; i < hi - lo; ++i) out[i] = static_cast<double>(ids[i]);
  }
};

struct ConstNode final : ValNode {
  Value v;
  explicit ConstNode(Value val) : v(std::move(val)) { type = v.type(); }
  const Value* constant() const override { return &v; }
  void EvalI(size_t lo, size_t hi, int64_t* out) const override {
    std::fill(out, out + (hi - lo), v.AsInt());
  }
  void EvalD(size_t lo, size_t hi, double* out) const override {
    std::fill(out, out + (hi - lo), v.AsDouble());
  }
};

struct ArithNode final : ValNode {
  ValPtr a, b;
  ExprOp op;
  ArithNode(ValPtr x, ValPtr y, ExprOp o)
      : a(std::move(x)), b(std::move(y)), op(o) {
    // Interpreter promotion: double if either side is double, else int64.
    // Static types are exact (typed vectors), so this is decidable here.
    type = (a->type == ValueType::kDouble || b->type == ValueType::kDouble)
               ? ValueType::kDouble
               : ValueType::kInt64;
  }
  void EvalD(size_t lo, size_t hi, double* out) const override {
    if (type == ValueType::kDouble) {
      std::vector<double> sa, sb;
      const double* x = DView(*a, lo, hi, &sa);
      const double* y = DView(*b, lo, hi, &sb);
      size_t n = hi - lo;
      switch (op) {
        case ExprOp::kAdd:
          for (size_t i = 0; i < n; ++i) out[i] = x[i] + y[i];
          break;
        case ExprOp::kSub:
          for (size_t i = 0; i < n; ++i) out[i] = x[i] - y[i];
          break;
        default:
          for (size_t i = 0; i < n; ++i) out[i] = x[i] * y[i];
          break;
      }
    } else {
      // Value::Int(x op y).AsDouble() — compute in int64, then widen.
      std::vector<int64_t> tmp(hi - lo);
      EvalI(lo, hi, tmp.data());
      for (size_t i = 0; i < hi - lo; ++i) {
        out[i] = static_cast<double>(tmp[i]);
      }
    }
  }
  void EvalI(size_t lo, size_t hi, int64_t* out) const override {
    if (type == ValueType::kDouble) {
      // AsInt of a double result reinterprets the bits.
      std::vector<double> tmp(hi - lo);
      EvalD(lo, hi, tmp.data());
      for (size_t i = 0; i < hi - lo; ++i) out[i] = UnionBits(tmp[i]);
      return;
    }
    std::vector<int64_t> sa, sb;
    const int64_t* x = IView(*a, lo, hi, &sa);
    const int64_t* y = IView(*b, lo, hi, &sb);
    size_t n = hi - lo;
    switch (op) {
      case ExprOp::kAdd:
        for (size_t i = 0; i < n; ++i) out[i] = x[i] + y[i];
        break;
      case ExprOp::kSub:
        for (size_t i = 0; i < n; ++i) out[i] = x[i] - y[i];
        break;
      default:
        for (size_t i = 0; i < n; ++i) out[i] = x[i] * y[i];
        break;
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Boolean nodes. Two evaluation entry points:
//  * Refine — sel[r - base] &= predicate(r): in-place selection-vector
//    refinement, the hot path for filters. Already-deselected rows may be
//    skipped by expensive kernels.
//  * Mask — m[i - lo] = predicate(row i): full mask, used where a result
//    per row is needed (OR operands, NOT, bool-valued projections). Rows
//    flagged in `done` (may be null) are ignored by the caller and may be
//    skipped; implementations must write every row when done == nullptr.
// ---------------------------------------------------------------------------

struct BoolNode {
  // Estimated fraction of rows passing; orders AND/OR operand evaluation.
  double est = 0.5;
  virtual ~BoolNode() = default;
  virtual void Mask(uint8_t* m, size_t lo, size_t hi,
                    const uint8_t* done) const = 0;
  virtual void Refine(uint8_t* s, size_t base, size_t lo, size_t hi) const {
    std::vector<uint8_t> done(hi - lo);
    for (size_t r = lo; r < hi; ++r) {
      done[r - lo] = s[r - base] == 0 ? 1 : 0;
    }
    std::vector<uint8_t> m(hi - lo);
    Mask(m.data(), lo, hi, done.data());
    for (size_t r = lo; r < hi; ++r) {
      if (done[r - lo] == 0) s[r - base] &= m[r - lo];
    }
  }
};

using BoolPtr = std::unique_ptr<BoolNode>;

namespace {

struct ConstBoolNode final : BoolNode {
  bool value;
  explicit ConstBoolNode(bool b) : value(b) { est = b ? 1.0 : 0.0; }
  void Mask(uint8_t* m, size_t lo, size_t hi,
            const uint8_t*) const override {
    std::fill(m, m + (hi - lo), static_cast<uint8_t>(value ? 1 : 0));
  }
  void Refine(uint8_t* s, size_t base, size_t lo,
              size_t hi) const override {
    if (!value) std::memset(s + (lo - base), 0, hi - lo);
  }
};

// A value used in boolean position: AsBool == raw int slot != 0 (doubles
// test their bit pattern, matching the interpreter's union read).
struct ValAsBoolNode final : BoolNode {
  ValPtr v;
  explicit ValAsBoolNode(ValPtr val) : v(std::move(val)) {}
  void Mask(uint8_t* m, size_t lo, size_t hi,
            const uint8_t*) const override {
    std::vector<int64_t> storage;
    const int64_t* p = IView(*v, lo, hi, &storage);
    for (size_t i = 0; i < hi - lo; ++i) m[i] = p[i] != 0 ? 1 : 0;
  }
  void Refine(uint8_t* s, size_t base, size_t lo,
              size_t hi) const override {
    std::vector<int64_t> storage;
    const int64_t* p = IView(*v, lo, hi, &storage);
    for (size_t r = lo; r < hi; ++r) s[r - base] &= p[r - lo] != 0;
  }
};

// Numeric comparison. Int64 compare when both sides are int-physical,
// double compare (NaN-tolerant, like Value::Compare) when either side is a
// double. Constant operands use scalar fast paths.
struct NumCmpNode final : BoolNode {
  ValPtr a, b;
  ExprOp op;
  bool dbl;
  NumCmpNode(ValPtr x, ValPtr y, ExprOp o)
      : a(std::move(x)), b(std::move(y)), op(o) {
    dbl = a->type == ValueType::kDouble || b->type == ValueType::kDouble;
    est = CmpEst(op);
  }

  template <typename XFn, typename YFn, typename Emit>
  static void LoopI(ExprOp op, size_t lo, size_t hi, XFn x, YFn y,
                    Emit emit) {
    switch (op) {
      case ExprOp::kEq:
        for (size_t r = lo; r < hi; ++r) emit(r, x(r) == y(r));
        break;
      case ExprOp::kNe:
        for (size_t r = lo; r < hi; ++r) emit(r, x(r) != y(r));
        break;
      case ExprOp::kLt:
        for (size_t r = lo; r < hi; ++r) emit(r, x(r) < y(r));
        break;
      case ExprOp::kLe:
        for (size_t r = lo; r < hi; ++r) emit(r, x(r) <= y(r));
        break;
      case ExprOp::kGt:
        for (size_t r = lo; r < hi; ++r) emit(r, x(r) > y(r));
        break;
      default:
        for (size_t r = lo; r < hi; ++r) emit(r, x(r) >= y(r));
        break;
    }
  }
  // Value::Compare returns 0 when neither side is less — so NaN compares
  // equal to everything. Spelled out per-op to preserve that.
  template <typename XFn, typename YFn, typename Emit>
  static void LoopD(ExprOp op, size_t lo, size_t hi, XFn x, YFn y,
                    Emit emit) {
    switch (op) {
      case ExprOp::kEq:
        for (size_t r = lo; r < hi; ++r) {
          emit(r, !(x(r) < y(r)) && !(x(r) > y(r)));
        }
        break;
      case ExprOp::kNe:
        for (size_t r = lo; r < hi; ++r) {
          emit(r, x(r) < y(r) || x(r) > y(r));
        }
        break;
      case ExprOp::kLt:
        for (size_t r = lo; r < hi; ++r) emit(r, x(r) < y(r));
        break;
      case ExprOp::kLe:
        for (size_t r = lo; r < hi; ++r) emit(r, !(x(r) > y(r)));
        break;
      case ExprOp::kGt:
        for (size_t r = lo; r < hi; ++r) emit(r, x(r) > y(r));
        break;
      default:
        for (size_t r = lo; r < hi; ++r) emit(r, !(x(r) < y(r)));
        break;
    }
  }

  template <typename Emit>
  void Run(size_t lo, size_t hi, Emit emit) const {
    if (dbl) {
      std::vector<double> sa, sb;
      if (const Value* cb = b->constant()) {
        double y = cb->AsDouble();
        const double* x = DView(*a, lo, hi, &sa);
        LoopD(
            op, lo, hi, [x, lo](size_t r) { return x[r - lo]; },
            [y](size_t) { return y; }, emit);
      } else if (const Value* ca = a->constant()) {
        double x = ca->AsDouble();
        const double* y = DView(*b, lo, hi, &sb);
        LoopD(
            op, lo, hi, [x](size_t) { return x; },
            [y, lo](size_t r) { return y[r - lo]; }, emit);
      } else {
        const double* x = DView(*a, lo, hi, &sa);
        const double* y = DView(*b, lo, hi, &sb);
        LoopD(
            op, lo, hi, [x, lo](size_t r) { return x[r - lo]; },
            [y, lo](size_t r) { return y[r - lo]; }, emit);
      }
    } else {
      std::vector<int64_t> sa, sb;
      if (const Value* cb = b->constant()) {
        int64_t y = cb->AsInt();
        const int64_t* x = IView(*a, lo, hi, &sa);
        LoopI(
            op, lo, hi, [x, lo](size_t r) { return x[r - lo]; },
            [y](size_t) { return y; }, emit);
      } else if (const Value* ca = a->constant()) {
        int64_t x = ca->AsInt();
        const int64_t* y = IView(*b, lo, hi, &sb);
        LoopI(
            op, lo, hi, [x](size_t) { return x; },
            [y, lo](size_t r) { return y[r - lo]; }, emit);
      } else {
        const int64_t* x = IView(*a, lo, hi, &sa);
        const int64_t* y = IView(*b, lo, hi, &sb);
        LoopI(
            op, lo, hi, [x, lo](size_t r) { return x[r - lo]; },
            [y, lo](size_t r) { return y[r - lo]; }, emit);
      }
    }
  }

  void Mask(uint8_t* m, size_t lo, size_t hi,
            const uint8_t*) const override {
    Run(lo, hi, [m, lo](size_t r, bool v) {
      m[r - lo] = static_cast<uint8_t>(v);
    });
  }
  void Refine(uint8_t* s, size_t base, size_t lo,
              size_t hi) const override {
    Run(lo, hi, [s, base](size_t r, bool v) { s[r - base] &= v; });
  }
};

// String column OP constant. Dict-encoded equality compares uint32 codes
// (the headline win: one integer compare per row, no byte-wise compare, no
// decode); ordering ops and owned columns compare decoded strings.
struct StrCmpColConstNode final : BoolNode {
  const ValueVector* col;
  std::string k;
  ExprOp op;  // normalized: column on the left
  uint32_t kcode = StringDict::kInvalidCode;
  StrCmpColConstNode(const ValueVector* c, std::string key, ExprOp o)
      : col(c), k(std::move(key)), op(o) {
    if (col->dict_encoded()) kcode = col->dict()->Find(k);
    est = CmpEst(op);
  }

  bool DictEqPath() const {
    return col->dict_encoded() &&
           (op == ExprOp::kEq || op == ExprOp::kNe);
  }

  void Mask(uint8_t* m, size_t lo, size_t hi,
            const uint8_t* done) const override {
    if (DictEqPath()) {
      const uint32_t* codes = col->codes_data();
      if (kcode == StringDict::kInvalidCode) {
        // Constant not in the dictionary: no row can ever equal it.
        std::fill(m, m + (hi - lo),
                  static_cast<uint8_t>(op == ExprOp::kNe ? 1 : 0));
      } else if (op == ExprOp::kEq) {
        for (size_t r = lo; r < hi; ++r) m[r - lo] = codes[r] == kcode;
      } else {
        for (size_t r = lo; r < hi; ++r) m[r - lo] = codes[r] != kcode;
      }
      return;
    }
    for (size_t r = lo; r < hi; ++r) {
      if (done != nullptr && done[r - lo] != 0) continue;
      int c = col->GetString(r).compare(k);
      m[r - lo] = CmpResult(op, c < 0 ? -1 : (c == 0 ? 0 : 1));
    }
  }
  void Refine(uint8_t* s, size_t base, size_t lo,
              size_t hi) const override {
    if (DictEqPath()) {
      const uint32_t* codes = col->codes_data();
      if (kcode == StringDict::kInvalidCode) {
        if (op == ExprOp::kEq) std::memset(s + (lo - base), 0, hi - lo);
      } else if (op == ExprOp::kEq) {
        for (size_t r = lo; r < hi; ++r) s[r - base] &= codes[r] == kcode;
      } else {
        for (size_t r = lo; r < hi; ++r) s[r - base] &= codes[r] != kcode;
      }
      return;
    }
    for (size_t r = lo; r < hi; ++r) {
      if (s[r - base] == 0) continue;
      int c = col->GetString(r).compare(k);
      s[r - base] = CmpResult(op, c < 0 ? -1 : (c == 0 ? 0 : 1)) ? 1 : 0;
    }
  }
};

// String column OP string column. Shared-dictionary equality compares
// codes; everything else compares decoded strings.
struct StrCmpColColNode final : BoolNode {
  const ValueVector* a;
  const ValueVector* b;
  ExprOp op;
  StrCmpColColNode(const ValueVector* x, const ValueVector* y, ExprOp o)
      : a(x), b(y), op(o) {
    est = CmpEst(op);
  }
  bool CodePath() const {
    return a->dict_encoded() && a->dict() == b->dict() &&
           (op == ExprOp::kEq || op == ExprOp::kNe);
  }
  void Mask(uint8_t* m, size_t lo, size_t hi,
            const uint8_t* done) const override {
    if (CodePath()) {
      const uint32_t* xa = a->codes_data();
      const uint32_t* xb = b->codes_data();
      if (op == ExprOp::kEq) {
        for (size_t r = lo; r < hi; ++r) m[r - lo] = xa[r] == xb[r];
      } else {
        for (size_t r = lo; r < hi; ++r) m[r - lo] = xa[r] != xb[r];
      }
      return;
    }
    for (size_t r = lo; r < hi; ++r) {
      if (done != nullptr && done[r - lo] != 0) continue;
      int c = a->GetString(r).compare(b->GetString(r));
      m[r - lo] = CmpResult(op, c < 0 ? -1 : (c == 0 ? 0 : 1));
    }
  }
  void Refine(uint8_t* s, size_t base, size_t lo,
              size_t hi) const override {
    if (CodePath()) {
      const uint32_t* xa = a->codes_data();
      const uint32_t* xb = b->codes_data();
      if (op == ExprOp::kEq) {
        for (size_t r = lo; r < hi; ++r) s[r - base] &= xa[r] == xb[r];
      } else {
        for (size_t r = lo; r < hi; ++r) s[r - base] &= xa[r] != xb[r];
      }
      return;
    }
    for (size_t r = lo; r < hi; ++r) {
      if (s[r - base] == 0) continue;
      int c = a->GetString(r).compare(b->GetString(r));
      s[r - base] = CmpResult(op, c < 0 ? -1 : (c == 0 ? 0 : 1)) ? 1 : 0;
    }
  }
};

// Numeric IN. An int-physical probe matches int-physical list entries by
// int64 equality and double entries by promoted, NaN-tolerant comparison —
// exactly Value::Compare's cross-type rules.
struct NumInNode final : BoolNode {
  ValPtr v;
  bool dbl;
  std::vector<int64_t> icands;
  std::vector<double> dcands;
  NumInNode(ValPtr val, const std::vector<Value>& list)
      : v(std::move(val)) {
    dbl = v->type == ValueType::kDouble;
    for (const Value& c : list) {
      if (dbl) {
        if (IsNumeric(c.type())) dcands.push_back(c.AsDouble());
      } else if (IsIntegerPhysical(c.type())) {
        icands.push_back(c.AsInt());
      } else if (c.type() == ValueType::kDouble) {
        dcands.push_back(c.AsDouble());
      }
      // Non-numeric entries can never equal a numeric probe (type-tag
      // ordering) — dropped at compile time.
    }
    est = std::min(0.9, 0.1 * (icands.size() + dcands.size()));
  }
  bool HitI(int64_t x) const {
    bool hit = false;
    for (int64_t c : icands) hit = hit || (x == c);
    if (!dcands.empty()) {
      double dx = static_cast<double>(x);
      for (double c : dcands) hit = hit || (!(dx < c) && !(dx > c));
    }
    return hit;
  }
  bool HitD(double x) const {
    bool hit = false;
    for (double c : dcands) hit = hit || (!(x < c) && !(x > c));
    return hit;
  }
  // active(r) -> bool: false rows are skipped (their output is ignored).
  template <typename Active, typename Emit>
  void Run(size_t lo, size_t hi, Active active, Emit emit) const {
    if (dbl) {
      std::vector<double> storage;
      const double* p = DView(*v, lo, hi, &storage);
      for (size_t r = lo; r < hi; ++r) {
        if (!active(r)) continue;
        emit(r, HitD(p[r - lo]));
      }
    } else {
      std::vector<int64_t> storage;
      const int64_t* p = IView(*v, lo, hi, &storage);
      for (size_t r = lo; r < hi; ++r) {
        if (!active(r)) continue;
        emit(r, HitI(p[r - lo]));
      }
    }
  }
  void Mask(uint8_t* m, size_t lo, size_t hi,
            const uint8_t* done) const override {
    Run(
        lo, hi,
        [done, lo](size_t r) {
          return done == nullptr || done[r - lo] == 0;
        },
        [m, lo](size_t r, bool v2) { m[r - lo] = static_cast<uint8_t>(v2); });
  }
  void Refine(uint8_t* s, size_t base, size_t lo,
              size_t hi) const override {
    Run(
        lo, hi, [s, base](size_t r) { return s[r - base] != 0; },
        [s, base](size_t r, bool v2) { s[r - base] = v2 ? 1 : 0; });
  }
};

// String IN. Dict columns probe a small pre-resolved code set (entries
// missing from the dictionary can never match and are dropped).
struct StrInNode final : BoolNode {
  const ValueVector* col;
  std::vector<uint32_t> codes;
  std::vector<std::string> cands;
  StrInNode(const ValueVector* c, const std::vector<Value>& list) : col(c) {
    for (const Value& v : list) {
      if (v.type() != ValueType::kString) continue;
      if (col->dict_encoded()) {
        uint32_t code = col->dict()->Find(v.AsString());
        if (code != StringDict::kInvalidCode) codes.push_back(code);
      } else {
        cands.push_back(v.AsString());
      }
    }
    est = std::min(0.9, 0.1 * (codes.size() + cands.size()));
  }
  template <typename Emit>
  void Run(size_t lo, size_t hi, const uint8_t* skip, Emit emit) const {
    if (col->dict_encoded()) {
      const uint32_t* p = col->codes_data();
      for (size_t r = lo; r < hi; ++r) {
        if (skip != nullptr && skip[r - lo] != 0) continue;
        uint32_t x = p[r];
        bool hit = false;
        for (uint32_t c : codes) hit = hit || (x == c);
        emit(r, hit);
      }
      return;
    }
    for (size_t r = lo; r < hi; ++r) {
      if (skip != nullptr && skip[r - lo] != 0) continue;
      const std::string& x = col->GetString(r);
      bool hit = false;
      for (const std::string& c : cands) hit = hit || (x == c);
      emit(r, hit);
    }
  }
  void Mask(uint8_t* m, size_t lo, size_t hi,
            const uint8_t* done) const override {
    Run(lo, hi, done, [m, lo](size_t r, bool v) {
      m[r - lo] = static_cast<uint8_t>(v);
    });
  }
  void Refine(uint8_t* s, size_t base, size_t lo,
              size_t hi) const override {
    for (size_t r = lo; r < hi; ++r) {
      if (s[r - base] == 0) continue;
      bool hit = false;
      if (col->dict_encoded()) {
        uint32_t x = col->GetCode(r);
        for (uint32_t c : codes) hit = hit || (x == c);
      } else {
        const std::string& x = col->GetString(r);
        for (const std::string& c : cands) hit = hit || (x == c);
      }
      s[r - base] = hit ? 1 : 0;
    }
  }
};

struct StartsWithNode final : BoolNode {
  const ValueVector* col;
  std::string prefix;
  StartsWithNode(const ValueVector* c, std::string p)
      : col(c), prefix(std::move(p)) {
    est = 0.2;
  }
  bool Match(size_t r) const {
    const std::string& s = col->GetString(r);
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
  }
  void Mask(uint8_t* m, size_t lo, size_t hi,
            const uint8_t* done) const override {
    for (size_t r = lo; r < hi; ++r) {
      if (done != nullptr && done[r - lo] != 0) continue;
      m[r - lo] = Match(r) ? 1 : 0;
    }
  }
  void Refine(uint8_t* s, size_t base, size_t lo,
              size_t hi) const override {
    for (size_t r = lo; r < hi; ++r) {
      if (s[r - base] == 0) continue;
      s[r - base] = Match(r) ? 1 : 0;
    }
  }
};

struct NotNode final : BoolNode {
  BoolPtr child;
  explicit NotNode(BoolPtr c) : child(std::move(c)) {
    est = 1.0 - child->est;
  }
  void Mask(uint8_t* m, size_t lo, size_t hi,
            const uint8_t* done) const override {
    child->Mask(m, lo, hi, done);
    for (size_t i = 0; i < hi - lo; ++i) m[i] = m[i] != 0 ? 0 : 1;
  }
};

// Conjunction: sequential selection-vector refinement. Operands are sorted
// ascending by estimated selectivity so the cheapest-to-kill predicate runs
// first and later (possibly expensive) operands see a sparser vector.
struct AndNode final : BoolNode {
  std::vector<BoolPtr> kids;
  explicit AndNode(std::vector<BoolPtr> k) : kids(std::move(k)) {
    std::stable_sort(
        kids.begin(), kids.end(),
        [](const BoolPtr& a, const BoolPtr& b) { return a->est < b->est; });
    est = 1.0;
    for (const BoolPtr& c : kids) est *= c->est;
  }
  void Refine(uint8_t* s, size_t base, size_t lo,
              size_t hi) const override {
    for (const BoolPtr& c : kids) c->Refine(s, base, lo, hi);
  }
  void Mask(uint8_t* m, size_t lo, size_t hi,
            const uint8_t*) const override {
    std::fill(m, m + (hi - lo), 1);
    for (const BoolPtr& c : kids) c->Refine(m, lo, lo, hi);
  }
};

// Disjunction: operands sorted descending by estimated selectivity; rows
// already decided true are marked done and skipped by later operands.
struct OrNode final : BoolNode {
  std::vector<BoolPtr> kids;
  explicit OrNode(std::vector<BoolPtr> k) : kids(std::move(k)) {
    std::stable_sort(
        kids.begin(), kids.end(),
        [](const BoolPtr& a, const BoolPtr& b) { return a->est > b->est; });
    double miss = 1.0;
    for (const BoolPtr& c : kids) miss *= 1.0 - c->est;
    est = 1.0 - miss;
  }
  void Mask(uint8_t* m, size_t lo, size_t hi,
            const uint8_t* done) const override {
    size_t n = hi - lo;
    std::fill(m, m + n, 0);
    kids[0]->Mask(m, lo, hi, done);
    if (kids.size() == 1) return;
    std::vector<uint8_t> dn(n), tmp(n);
    for (size_t k = 1; k < kids.size(); ++k) {
      for (size_t i = 0; i < n; ++i) {
        dn[i] = ((done != nullptr && done[i] != 0) || m[i] != 0) ? 1 : 0;
      }
      kids[k]->Mask(tmp.data(), lo, hi, dn.data());
      for (size_t i = 0; i < n; ++i) {
        if (dn[i] == 0) m[i] = tmp[i] != 0 ? 1 : 0;
      }
    }
  }
};

// Boolean expression used in value position: Value::Bool(b) carries 0/1 in
// the int slot.
struct BoolWrapNode final : ValNode {
  BoolPtr p;
  explicit BoolWrapNode(BoolPtr b) : p(std::move(b)) {
    type = ValueType::kBool;
  }
  void EvalI(size_t lo, size_t hi, int64_t* out) const override {
    std::vector<uint8_t> m(hi - lo);
    p->Mask(m.data(), lo, hi, nullptr);
    for (size_t i = 0; i < hi - lo; ++i) out[i] = m[i] != 0 ? 1 : 0;
  }
  void EvalD(size_t lo, size_t hi, double* out) const override {
    std::vector<uint8_t> m(hi - lo);
    p->Mask(m.data(), lo, hi, nullptr);
    for (size_t i = 0; i < hi - lo; ++i) out[i] = m[i] != 0 ? 1.0 : 0.0;
  }
};

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

struct CompileCtx {
  const FBlock* block;
  // Optional per-column NDV/min-max statistics; when present, comparison
  // nodes get stats-driven selectivity estimates instead of CmpEst guesses.
  const std::unordered_map<std::string, ColumnStat>* stats = nullptr;
};

BoolPtr CompileBool(const Expr& e, const CompileCtx& ctx);

ValPtr CompileVal(const Expr& e, const CompileCtx& ctx) {
  switch (e.op) {
    case ExprOp::kColumn: {
      int idx = ctx.block->schema().IndexOf(e.column);
      assert(idx >= 0 && "column not bindable against schema");
      if (ctx.block->lazy() && idx == 0) {
        return std::make_unique<LazyHeadNode>(ctx.block);
      }
      return std::make_unique<ColumnNode>(&ctx.block->Column(idx));
    }
    case ExprOp::kConst:
      return std::make_unique<ConstNode>(e.constant);
    case ExprOp::kParam:
      // An unbound placeholder inside a kernelized plan: BindPlanParams
      // substitutes before execution, so (like BoundExpr) fall back to the
      // first-seen literal hint defensively.
      return std::make_unique<ConstNode>(e.constant);
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kMul: {
      return std::make_unique<ArithNode>(CompileVal(*e.args[0], ctx),
                                         CompileVal(*e.args[1], ctx), e.op);
    }
    default:
      return std::make_unique<BoolWrapNode>(CompileBool(e, ctx));
  }
}

// Flattens nested kAnd/kOr into one operand list (associativity) so the
// selectivity ordering sees all operands at once.
void CollectOperands(const Expr& e, ExprOp op, const CompileCtx& ctx,
                     std::vector<BoolPtr>* out) {
  for (const ExprPtr& a : e.args) {
    if (a->op == op) {
      CollectOperands(*a, op, ctx, out);
    } else {
      out->push_back(CompileBool(*a, ctx));
    }
  }
}

BoolPtr CompileCmpNode(const Expr& e, const CompileCtx& ctx) {
  ValPtr a = CompileVal(*e.args[0], ctx);
  ValPtr b = CompileVal(*e.args[1], ctx);
  const Value* ca = a->constant();
  const Value* cb = b->constant();
  if (ca != nullptr && cb != nullptr) {
    return std::make_unique<ConstBoolNode>(
        CmpResult(e.op, ca->Compare(*cb)));
  }
  ValueType ta = a->type;
  ValueType tb = b->type;
  if (IsNumeric(ta) && IsNumeric(tb)) {
    return std::make_unique<NumCmpNode>(std::move(a), std::move(b), e.op);
  }
  if (ta == ValueType::kString && tb == ValueType::kString) {
    // Non-constant string nodes are always column references.
    if (cb != nullptr) {
      return std::make_unique<StrCmpColConstNode>(a->column(),
                                                  cb->AsString(), e.op);
    }
    if (ca != nullptr) {
      return std::make_unique<StrCmpColConstNode>(
          b->column(), ca->AsString(), FlipOp(e.op));
    }
    return std::make_unique<StrCmpColColNode>(a->column(), b->column(),
                                              e.op);
  }
  // Mixed non-numeric types order by type tag — constant per static types.
  int c = ta == tb ? 0 : (ta < tb ? -1 : 1);
  return std::make_unique<ConstBoolNode>(CmpResult(e.op, c));
}

BoolPtr CompileCmp(const Expr& e, const CompileCtx& ctx) {
  BoolPtr node = CompileCmpNode(e, ctx);
  if (ctx.stats != nullptr &&
      dynamic_cast<ConstBoolNode*>(node.get()) == nullptr) {
    // EstimateSelectivity falls back to the same static guesses as the
    // node constructors, so this only changes the AND/OR ordering when the
    // statistics actually know something about the compared column.
    node->est = EstimateSelectivity(e, *ctx.stats);
  }
  return node;
}

BoolPtr CompileBool(const Expr& e, const CompileCtx& ctx) {
  switch (e.op) {
    case ExprOp::kAnd:
    case ExprOp::kOr: {
      std::vector<BoolPtr> kids;
      CollectOperands(e, e.op, ctx, &kids);
      bool is_and = e.op == ExprOp::kAnd;
      std::vector<BoolPtr> keep;
      for (BoolPtr& k : kids) {
        if (auto* cb = dynamic_cast<ConstBoolNode*>(k.get())) {
          if (cb->value != is_and) {
            // Dominant constant: false in AND / true in OR decides all.
            return std::make_unique<ConstBoolNode>(!is_and);
          }
          continue;  // neutral constant, drop
        }
        keep.push_back(std::move(k));
      }
      if (keep.empty()) return std::make_unique<ConstBoolNode>(is_and);
      if (keep.size() == 1) return std::move(keep[0]);
      if (is_and) return std::make_unique<AndNode>(std::move(keep));
      return std::make_unique<OrNode>(std::move(keep));
    }
    case ExprOp::kNot: {
      BoolPtr c = CompileBool(*e.args[0], ctx);
      if (auto* cb = dynamic_cast<ConstBoolNode*>(c.get())) {
        return std::make_unique<ConstBoolNode>(!cb->value);
      }
      return std::make_unique<NotNode>(std::move(c));
    }
    case ExprOp::kIsNull: {
      ValPtr v = CompileVal(*e.args[0], ctx);
      // Typed vectors never hold nulls, so the static type decides.
      return std::make_unique<ConstBoolNode>(v->type == ValueType::kNull);
    }
    case ExprOp::kIn: {
      ValPtr v = CompileVal(*e.args[0], ctx);
      if (const Value* cv = v->constant()) {
        bool hit = false;
        for (const Value& c : e.list) hit = hit || (*cv == c);
        return std::make_unique<ConstBoolNode>(hit);
      }
      if (v->type == ValueType::kString) {
        return std::make_unique<StrInNode>(v->column(), e.list);
      }
      if (IsNumeric(v->type)) {
        return std::make_unique<NumInNode>(std::move(v), e.list);
      }
      // kNull probe equals only null entries.
      bool hit = false;
      for (const Value& c : e.list) hit = hit || c.is_null();
      return std::make_unique<ConstBoolNode>(hit);
    }
    case ExprOp::kStartsWith: {
      ValPtr v = CompileVal(*e.args[0], ctx);
      const std::string& p = e.constant.AsString();
      if (const Value* cv = v->constant()) {
        const std::string& s = cv->AsString();
        return std::make_unique<ConstBoolNode>(
            s.size() >= p.size() && s.compare(0, p.size(), p) == 0);
      }
      if (v->type != ValueType::kString) {
        // AsString of a non-string value is "" — prefix match iff empty.
        return std::make_unique<ConstBoolNode>(p.empty());
      }
      return std::make_unique<StartsWithNode>(v->column(), p);
    }
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe:
      return CompileCmp(e, ctx);
    default: {  // value expression in boolean position
      ValPtr v = CompileVal(e, ctx);
      if (const Value* cv = v->constant()) {
        return std::make_unique<ConstBoolNode>(cv->AsBool());
      }
      if (v->type == ValueType::kString || v->type == ValueType::kNull) {
        // The int slot of string/null values is always 0 — never true.
        return std::make_unique<ConstBoolNode>(false);
      }
      return std::make_unique<ValAsBoolNode>(std::move(v));
    }
  }
}

}  // namespace
}  // namespace vexpr

CompiledExpr::CompiledExpr(std::unique_ptr<vexpr::BoolNode> b,
                           std::unique_ptr<vexpr::ValNode> v)
    : bool_root_(std::move(b)), val_root_(std::move(v)) {}

CompiledExpr::~CompiledExpr() = default;

std::unique_ptr<CompiledExpr> CompiledExpr::CompileFilter(
    const Expr& expr, const FBlock& block,
    const std::unordered_map<std::string, ColumnStat>* column_stats) {
  vexpr::CompileCtx ctx{&block, column_stats};
  return std::unique_ptr<CompiledExpr>(
      new CompiledExpr(vexpr::CompileBool(expr, ctx), nullptr));
}

std::unique_ptr<CompiledExpr> CompiledExpr::CompileProject(
    const Expr& expr, const FBlock& block) {
  vexpr::CompileCtx ctx{&block};
  return std::unique_ptr<CompiledExpr>(
      new CompiledExpr(nullptr, vexpr::CompileVal(expr, ctx)));
}

void CompiledExpr::EvalFilter(uint8_t* sel, size_t lo, size_t hi) const {
  bool_root_->Refine(sel, /*base=*/0, lo, hi);
}

ValueType CompiledExpr::result_type() const { return val_root_->type; }

void CompiledExpr::EvalProject(size_t lo, size_t hi,
                               ValueVector* out) const {
  const vexpr::ValNode& root = *val_root_;
  size_t n = hi - lo;
  switch (out->type()) {
    case ValueType::kDouble: {
      std::vector<double> storage;
      const double* p = vexpr::DView(root, lo, hi, &storage);
      for (size_t i = 0; i < n; ++i) out->AppendDouble(p[i]);
      break;
    }
    case ValueType::kString: {
      const ValueVector* col = root.column();
      if (col != nullptr && col->type() == ValueType::kString) {
        if (out->empty() && col->dict_encoded() && !out->dict_encoded()) {
          out->InitDict(col->dict());
        }
        out->AppendRange(*col, lo, hi);
      } else if (const Value* cv = root.constant()) {
        for (size_t i = 0; i < n; ++i) out->AppendString(cv->AsString());
      } else {
        // AsString of non-string results is "".
        for (size_t i = 0; i < n; ++i) out->AppendString(std::string());
      }
      break;
    }
    default: {  // int-physical output: union-int view
      std::vector<int64_t> storage;
      const int64_t* p = vexpr::IView(root, lo, hi, &storage);
      for (size_t i = 0; i < n; ++i) out->AppendInt(p[i]);
      break;
    }
  }
}

}  // namespace ges

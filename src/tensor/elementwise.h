// The elementwise op table: the one definition of every elementwise op's
// scalar semantics. The eager kernels (ops_elementwise.cc) and their graph
// kernel registrations (runtime/kernels_math.cc), the fused-region block
// interpreter (runtime/fusion.cc), plan-time in-place planning
// (runtime/memory_plan.cc) and MiniPy's host int arithmetic
// (frontend/interpreter.cc) all read it, so fused and unfused execution
// compute the same bits by construction rather than by copying.
//
// Each op is a struct. Its static functions F32, I64 and Bool are the scalar
// functors for float32, int64 and bool (uint8 storage: 0 or 1) operands; an
// op without the functor for a dtype rejects operands of that dtype. The
// functor's return type is the result dtype. Flags default from Unary or
// Binary and are overridden where an op differs.
#ifndef JANUS_TENSOR_ELEMENTWISE_H_
#define JANUS_TENSOR_ELEMENTWISE_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>

#include "common/error.h"
#include "tensor/tensor.h"

namespace janus::elementwise {

// int64 arithmetic wraps in two's complement, as numpy's does: it is done in
// uint64, whose overflow is defined, and converted back (modular since
// C++20). Signed overflow would be undefined behaviour.
constexpr std::uint64_t Bits(std::int64_t x) {
  return static_cast<std::uint64_t>(x);
}
constexpr std::int64_t Wrap(std::uint64_t x) {
  return static_cast<std::int64_t>(x);
}

// int64 -> float32 exactly as ops::Cast converts (through double), so int64
// true division rounds as Div(Cast(a), Cast(b)) does.
inline float IntToFloat(std::int64_t x) {
  return static_cast<float>(static_cast<double>(x));
}

struct Unary {
  static constexpr int kArity = 1;
  // Binary operands may broadcast; false requires identical shapes.
  static constexpr bool kBroadcast = false;
  // The output may overwrite a dying operand of the same byte size.
  static constexpr bool kInPlace = true;
  // The op may join a fused region.
  static constexpr bool kFusable = true;
  // The int64 functor may throw on some operand values (a zero divisor).
  static constexpr bool kIntMayThrow = false;
};

struct Binary : Unary {
  static constexpr int kArity = 2;
  static constexpr bool kBroadcast = true;
};

// ---- Unary ----

struct Neg : Unary {
  static constexpr const char* kName = "Neg";
  static float F32(float x) { return -x; }
  static std::int64_t I64(std::int64_t x) { return Wrap(0 - Bits(x)); }
};

struct Abs : Unary {
  static constexpr const char* kName = "Abs";
  static float F32(float x) { return std::fabs(x); }
  static std::int64_t I64(std::int64_t x) {
    return x < 0 ? Wrap(0 - Bits(x)) : x;
  }
};

struct Sign : Unary {
  static constexpr const char* kName = "Sign";
  static float F32(float x) {
    return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
  }
};

struct Exp : Unary {
  static constexpr const char* kName = "Exp";
  static float F32(float x) { return std::exp(x); }
};

struct Log : Unary {
  static constexpr const char* kName = "Log";
  static float F32(float x) { return std::log(x); }
};

struct Sqrt : Unary {
  static constexpr const char* kName = "Sqrt";
  static float F32(float x) { return std::sqrt(x); }
};

struct Square : Unary {
  static constexpr const char* kName = "Square";
  static float F32(float x) { return x * x; }
};

struct Tanh : Unary {
  static constexpr const char* kName = "Tanh";
  static float F32(float x) { return std::tanh(x); }
};

struct Sigmoid : Unary {
  static constexpr const char* kName = "Sigmoid";
  static float F32(float x) { return 1.0f / (1.0f + std::exp(-x)); }
};

struct Relu : Unary {
  static constexpr const char* kName = "Relu";
  static float F32(float x) { return x > 0.0f ? x : 0.0f; }
};

struct LogicalNot : Unary {
  static constexpr const char* kName = "LogicalNot";
  static std::uint8_t Bool(std::uint8_t x) { return x != 0 ? 0 : 1; }
};

// ---- Binary arithmetic ----

struct Add : Binary {
  static constexpr const char* kName = "Add";
  static float F32(float x, float y) { return x + y; }
  static std::int64_t I64(std::int64_t x, std::int64_t y) {
    return Wrap(Bits(x) + Bits(y));
  }
};

struct Sub : Binary {
  static constexpr const char* kName = "Sub";
  static float F32(float x, float y) { return x - y; }
  static std::int64_t I64(std::int64_t x, std::int64_t y) {
    return Wrap(Bits(x) - Bits(y));
  }
};

struct Mul : Binary {
  static constexpr const char* kName = "Mul";
  static float F32(float x, float y) { return x * y; }
  static std::int64_t I64(std::int64_t x, std::int64_t y) {
    return Wrap(Bits(x) * Bits(y));
  }
};

// True division: int64 operands promote to float32, as in Python 3.
struct Div : Binary {
  static constexpr const char* kName = "Div";
  static float F32(float x, float y) { return x / y; }
  static float I64(std::int64_t x, std::int64_t y) {
    return F32(IntToFloat(x), IntToFloat(y));
  }
};

// Floor division. INT64_MIN // -1 wraps to INT64_MIN, as numpy's does; the
// hardware division would trap.
struct FloorDiv : Binary {
  static constexpr const char* kName = "FloorDiv";
  static constexpr bool kIntMayThrow = true;
  static float F32(float x, float y) { return std::floor(x / y); }
  static std::int64_t I64(std::int64_t x, std::int64_t y) {
    if (y == 0) throw InvalidArgument("integer division by zero");
    if (y == -1) return Wrap(0 - Bits(x));
    std::int64_t q = x / y;
    if ((x % y != 0) && ((x < 0) != (y < 0))) --q;
    return q;
  }
};

// Modulo with the divisor's sign (Python's %). INT64_MIN % -1 is 0.
struct Mod : Binary {
  static constexpr const char* kName = "Mod";
  static constexpr bool kIntMayThrow = true;
  static float F32(float x, float y) { return x - y * std::floor(x / y); }
  static std::int64_t I64(std::int64_t x, std::int64_t y) {
    if (y == 0) throw InvalidArgument("integer modulo by zero");
    if (y == -1) return 0;
    std::int64_t r = x % y;
    if (r != 0 && ((r < 0) != (y < 0))) r += y;
    return r;
  }
};

// int64 Pow is x multiplied y times modulo 2^64 (1 for y <= 0), computed by
// squaring so a large exponent costs O(log y).
struct Pow : Binary {
  static constexpr const char* kName = "Pow";
  static float F32(float x, float y) { return std::pow(x, y); }
  static std::int64_t I64(std::int64_t x, std::int64_t y) {
    std::uint64_t result = 1;
    std::uint64_t base = Bits(x);
    for (std::uint64_t e = y < 0 ? 0 : Bits(y); e != 0; e >>= 1) {
      if ((e & 1) != 0) result *= base;
      base *= base;
    }
    return Wrap(result);
  }
};

struct Maximum : Binary {
  static constexpr const char* kName = "Maximum";
  static float F32(float x, float y) { return x > y ? x : y; }
  static std::int64_t I64(std::int64_t x, std::int64_t y) {
    return x > y ? x : y;
  }
};

struct Minimum : Binary {
  static constexpr const char* kName = "Minimum";
  static float F32(float x, float y) { return x < y ? x : y; }
  static std::int64_t I64(std::int64_t x, std::int64_t y) {
    return x < y ? x : y;
  }
};

// d/dx relu(x) given the upstream gradient g: g where x > 0, else 0.
struct ReluGrad : Binary {
  static constexpr const char* kName = "ReluGrad";
  static constexpr bool kBroadcast = false;
  static float F32(float g, float x) { return x > 0.0f ? g : 0.0f; }
};

// ---- Comparisons (bool result) ----

template <typename Cmp>
struct Comparison : Binary {
  static std::uint8_t F32(float x, float y) { return Cmp{}(x, y) ? 1 : 0; }
  static std::uint8_t I64(std::int64_t x, std::int64_t y) {
    return Cmp{}(x, y) ? 1 : 0;
  }
  // Bool operands compare by truthiness.
  static std::uint8_t Bool(std::uint8_t x, std::uint8_t y) {
    return Cmp{}(x != 0, y != 0) ? 1 : 0;
  }
};

struct Equal : Comparison<std::equal_to<>> {
  static constexpr const char* kName = "Equal";
};
struct NotEqual : Comparison<std::not_equal_to<>> {
  static constexpr const char* kName = "NotEqual";
};
struct Less : Comparison<std::less<>> {
  static constexpr const char* kName = "Less";
};
struct LessEqual : Comparison<std::less_equal<>> {
  static constexpr const char* kName = "LessEqual";
};
struct Greater : Comparison<std::greater<>> {
  static constexpr const char* kName = "Greater";
};
struct GreaterEqual : Comparison<std::greater_equal<>> {
  static constexpr const char* kName = "GreaterEqual";
};

// ---- Logical (bool operands) ----

struct LogicalAnd : Binary {
  static constexpr const char* kName = "LogicalAnd";
  static std::uint8_t Bool(std::uint8_t x, std::uint8_t y) {
    return (x != 0 && y != 0) ? 1 : 0;
  }
};

struct LogicalOr : Binary {
  static constexpr const char* kName = "LogicalOr";
  static std::uint8_t Bool(std::uint8_t x, std::uint8_t y) {
    return (x != 0 || y != 0) ? 1 : 0;
  }
};

// ---- The table ----

// A block kernel: out[i] = op(a[i], b[i]) for i in [0, count), over raw
// element storage of the row's operand and result dtypes. Unary kernels
// ignore b.
using BlockFn = void (*)(const char* a, const char* b, char* out,
                         std::int64_t count);

// One table row, instantiated from an op struct above.
struct OpRow {
  std::string_view name;
  int arity = 1;
  bool broadcast = false;
  bool in_place = false;
  bool fusable = false;
  bool int_may_throw = false;
  // Indexed by operand DType. A null block kernel means the row rejects
  // that dtype; otherwise `result` is the output dtype.
  std::array<BlockFn, 3> block{};
  std::array<DType, 3> result{};
  // The eager kernel (ops::<name>) of the row's arity.
  Tensor (*unary)(const Tensor&) = nullptr;
  Tensor (*binary)(const Tensor&, const Tensor&) = nullptr;
};

// Every row, unary ops first.
std::span<const OpRow> Rows();
// The row named `op`, or nullptr when `op` is not an elementwise op.
const OpRow* FindRow(std::string_view op);

}  // namespace janus::elementwise

#endif  // JANUS_TENSOR_ELEMENTWISE_H_

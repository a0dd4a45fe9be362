// Broadcasting elementwise kernels, comparisons, logical ops, and unary math:
// the eager kernels and the fused block kernels, both instantiated from the
// op table in elementwise.h.
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "tensor/elementwise.h"
#include "tensor/ops.h"

namespace janus::ops {
namespace {

// Iterates an output shape, mapping each output linear index to the linear
// indices of two broadcast inputs (stride 0 on size-1 dims).
class BroadcastIndexer {
 public:
  BroadcastIndexer(const Shape& a, const Shape& b, const Shape& out)
      : rank_(out.rank()), out_dims_(out.dims()) {
    const auto pad_strides = [&](const Shape& s) {
      std::vector<std::int64_t> strides(static_cast<std::size_t>(rank_), 0);
      const auto native = s.Strides();
      const int offset = rank_ - s.rank();
      for (int i = 0; i < s.rank(); ++i) {
        const auto out_axis = static_cast<std::size_t>(offset + i);
        strides[out_axis] =
            s.dim(i) == 1 ? 0 : native[static_cast<std::size_t>(i)];
      }
      return strides;
    };
    a_strides_ = pad_strides(a);
    b_strides_ = pad_strides(b);
  }

  // Computes (a_index, b_index) for the given output linear index.
  std::pair<std::int64_t, std::int64_t> Map(std::int64_t out_index) const {
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t rem = out_index;
    for (int axis = rank_ - 1; axis >= 0; --axis) {
      const auto i = static_cast<std::size_t>(axis);
      const std::int64_t coord = rem % out_dims_[i];
      rem /= out_dims_[i];
      a += coord * a_strides_[i];
      b += coord * b_strides_[i];
    }
    return {a, b};
  }

 private:
  int rank_;
  std::vector<std::int64_t> out_dims_;
  std::vector<std::int64_t> a_strides_;
  std::vector<std::int64_t> b_strides_;
};

void CheckSameDType(const Tensor& a, const Tensor& b, const char* op) {
  if (a.dtype() != b.dtype()) {
    throw InvalidArgument(std::string(op) + ": dtype mismatch (" +
                          DTypeName(a.dtype()) + " vs " +
                          DTypeName(b.dtype()) + ")");
  }
}

// ---- Instantiating the op table (elementwise.h) ----

// Storage type T <-> DType: float32, int64, bool as uint8.
template <typename T>
constexpr DType kDTypeOf = std::is_same_v<T, float>          ? DType::kFloat32
                           : std::is_same_v<T, std::int64_t> ? DType::kInt64
                                                             : DType::kBool;

// Whether Op has a functor for operands of storage type T.
template <typename Op, typename T>
concept Accepts =
    (std::is_same_v<T, float> && requires { &Op::F32; }) ||
    (std::is_same_v<T, std::int64_t> && requires { &Op::I64; }) ||
    (std::is_same_v<T, std::uint8_t> && requires { &Op::Bool; });

// Op's functor for operand type T, called directly so it inlines into the
// element loops.
template <typename Op, typename T, typename... Args>
auto Apply(Args... args) {
  if constexpr (std::is_same_v<T, float>) {
    return Op::F32(args...);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    return Op::I64(args...);
  } else {
    return Op::Bool(args...);
  }
}

template <typename Op, typename T>
auto ResultOf() {
  if constexpr (Op::kArity == 1) {
    return Apply<Op, T>(T{});
  } else {
    return Apply<Op, T>(T{}, T{});
  }
}
// The result storage type of Op on operands of type T.
template <typename Op, typename T>
using Result = decltype(ResultOf<Op, T>());

// Calls fn with a value of the storage type of `dtype` (its type selects the
// functor) when Op accepts that dtype; throws InvalidArgument otherwise.
template <typename Op, typename F>
Tensor WithType(DType dtype, F fn) {
  switch (dtype) {
    case DType::kFloat32:
      if constexpr (Accepts<Op, float>) return fn(float{});
      break;
    case DType::kInt64:
      if constexpr (Accepts<Op, std::int64_t>) return fn(std::int64_t{});
      break;
    case DType::kBool:
      if constexpr (Accepts<Op, std::uint8_t>) return fn(std::uint8_t{});
      break;
  }
  throw InvalidArgument(std::string(Op::kName) + ": " + DTypeName(dtype) +
                        " operands unsupported");
}

template <typename Op, typename T>
Tensor UnaryImpl(const Tensor& a) {
  using O = Result<Op, T>;
  Tensor out = Tensor::OutputBuffer({&a}, kDTypeOf<O>, a.shape());
  const auto av = a.data<T>();
  auto ov = out.mutable_data<O>();
  for (std::size_t i = 0; i < av.size(); ++i) ov[i] = Apply<Op, T>(av[i]);
  return out;
}

template <typename Op, typename T>
Tensor BinaryImpl(const Tensor& a, const Tensor& b) {
  using O = Result<Op, T>;
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  const auto av = a.data<T>();
  const auto bv = b.data<T>();
  const std::int64_t n = out_shape.num_elements();
  // With identical operand shapes every write to output element i reads only
  // operand element i, so (under an active InPlaceScope) the output may
  // overwrite a dying operand's buffer, and no index mapping is needed.
  // Broadcast outputs must not alias an operand: stride-0 dims re-read
  // elements after earlier writes.
  if (a.shape() == b.shape()) {
    Tensor out = Tensor::OutputBuffer({&a, &b}, kDTypeOf<O>, out_shape);
    auto ov = out.mutable_data<O>();
    for (std::int64_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      ov[u] = Apply<Op, T>(av[u], bv[u]);
    }
    return out;
  }
  Tensor out = Tensor::Uninitialized(kDTypeOf<O>, out_shape);
  auto ov = out.mutable_data<O>();
  const BroadcastIndexer indexer(a.shape(), b.shape(), out_shape);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto [ai, bi] = indexer.Map(i);
    ov[static_cast<std::size_t>(i)] = Apply<Op, T>(
        av[static_cast<std::size_t>(ai)], bv[static_cast<std::size_t>(bi)]);
  }
  return out;
}

template <typename Op>
Tensor Eager(const Tensor& a) {
  return WithType<Op>(a.dtype(), [&](auto tag) {
    return UnaryImpl<Op, decltype(tag)>(a);
  });
}

template <typename Op>
Tensor Eager(const Tensor& a, const Tensor& b) {
  CheckSameDType(a, b, Op::kName);
  if (!Op::kBroadcast && a.shape() != b.shape()) {
    throw InvalidArgument(std::string(Op::kName) + ": shape mismatch");
  }
  return WithType<Op>(a.dtype(), [&](auto tag) {
    return BinaryImpl<Op, decltype(tag)>(a, b);
  });
}

template <typename Op, typename T>
void Block(const char* a, [[maybe_unused]] const char* b, char* out,
           std::int64_t count) {
  const T* x = reinterpret_cast<const T*>(a);
  auto* o = reinterpret_cast<Result<Op, T>*>(out);
  if constexpr (Op::kArity == 1) {
    for (std::int64_t i = 0; i < count; ++i) o[i] = Apply<Op, T>(x[i]);
  } else {
    const T* y = reinterpret_cast<const T*>(b);
    for (std::int64_t i = 0; i < count; ++i) o[i] = Apply<Op, T>(x[i], y[i]);
  }
}

template <typename Op, typename T>
constexpr void AddDType(elementwise::OpRow& row) {
  if constexpr (Accepts<Op, T>) {
    const auto d = static_cast<std::size_t>(kDTypeOf<T>);
    row.block[d] = &Block<Op, T>;
    row.result[d] = kDTypeOf<Result<Op, T>>;
  }
}

template <typename Op>
constexpr elementwise::OpRow MakeRow() {
  elementwise::OpRow row;
  row.name = Op::kName;
  row.arity = Op::kArity;
  row.broadcast = Op::kBroadcast;
  row.in_place = Op::kInPlace;
  row.fusable = Op::kFusable;
  row.int_may_throw = Op::kIntMayThrow;
  AddDType<Op, float>(row);
  AddDType<Op, std::int64_t>(row);
  AddDType<Op, std::uint8_t>(row);
  if constexpr (Op::kArity == 1) {
    row.unary = &Eager<Op>;
  } else {
    row.binary = &Eager<Op>;
  }
  return row;
}

namespace ew = elementwise;

constexpr elementwise::OpRow kRows[] = {
    MakeRow<ew::Neg>(),       MakeRow<ew::Abs>(),
    MakeRow<ew::Sign>(),      MakeRow<ew::Exp>(),
    MakeRow<ew::Log>(),       MakeRow<ew::Sqrt>(),
    MakeRow<ew::Square>(),    MakeRow<ew::Tanh>(),
    MakeRow<ew::Sigmoid>(),   MakeRow<ew::Relu>(),
    MakeRow<ew::LogicalNot>(),
    MakeRow<ew::Add>(),       MakeRow<ew::Sub>(),
    MakeRow<ew::Mul>(),       MakeRow<ew::Div>(),
    MakeRow<ew::FloorDiv>(),  MakeRow<ew::Mod>(),
    MakeRow<ew::Pow>(),       MakeRow<ew::Maximum>(),
    MakeRow<ew::Minimum>(),   MakeRow<ew::ReluGrad>(),
    MakeRow<ew::Equal>(),     MakeRow<ew::NotEqual>(),
    MakeRow<ew::Less>(),      MakeRow<ew::LessEqual>(),
    MakeRow<ew::Greater>(),   MakeRow<ew::GreaterEqual>(),
    MakeRow<ew::LogicalAnd>(), MakeRow<ew::LogicalOr>(),
};

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) { return Eager<ew::Add>(a, b); }
Tensor Sub(const Tensor& a, const Tensor& b) { return Eager<ew::Sub>(a, b); }
Tensor Mul(const Tensor& a, const Tensor& b) { return Eager<ew::Mul>(a, b); }
Tensor Div(const Tensor& a, const Tensor& b) { return Eager<ew::Div>(a, b); }
Tensor FloorDiv(const Tensor& a, const Tensor& b) {
  return Eager<ew::FloorDiv>(a, b);
}
Tensor Mod(const Tensor& a, const Tensor& b) { return Eager<ew::Mod>(a, b); }
Tensor Pow(const Tensor& a, const Tensor& b) { return Eager<ew::Pow>(a, b); }
Tensor Maximum(const Tensor& a, const Tensor& b) {
  return Eager<ew::Maximum>(a, b);
}
Tensor Minimum(const Tensor& a, const Tensor& b) {
  return Eager<ew::Minimum>(a, b);
}
Tensor Equal(const Tensor& a, const Tensor& b) {
  return Eager<ew::Equal>(a, b);
}
Tensor NotEqual(const Tensor& a, const Tensor& b) {
  return Eager<ew::NotEqual>(a, b);
}
Tensor Less(const Tensor& a, const Tensor& b) { return Eager<ew::Less>(a, b); }
Tensor LessEqual(const Tensor& a, const Tensor& b) {
  return Eager<ew::LessEqual>(a, b);
}
Tensor Greater(const Tensor& a, const Tensor& b) {
  return Eager<ew::Greater>(a, b);
}
Tensor GreaterEqual(const Tensor& a, const Tensor& b) {
  return Eager<ew::GreaterEqual>(a, b);
}
Tensor LogicalAnd(const Tensor& a, const Tensor& b) {
  return Eager<ew::LogicalAnd>(a, b);
}
Tensor LogicalOr(const Tensor& a, const Tensor& b) {
  return Eager<ew::LogicalOr>(a, b);
}
Tensor LogicalNot(const Tensor& a) { return Eager<ew::LogicalNot>(a); }
Tensor Neg(const Tensor& a) { return Eager<ew::Neg>(a); }
Tensor Abs(const Tensor& a) { return Eager<ew::Abs>(a); }
Tensor Sign(const Tensor& a) { return Eager<ew::Sign>(a); }
Tensor Exp(const Tensor& a) { return Eager<ew::Exp>(a); }
Tensor Log(const Tensor& a) { return Eager<ew::Log>(a); }
Tensor Sqrt(const Tensor& a) { return Eager<ew::Sqrt>(a); }
Tensor Square(const Tensor& a) { return Eager<ew::Square>(a); }
Tensor Tanh(const Tensor& a) { return Eager<ew::Tanh>(a); }
Tensor Sigmoid(const Tensor& a) { return Eager<ew::Sigmoid>(a); }
Tensor Relu(const Tensor& a) { return Eager<ew::Relu>(a); }
Tensor ReluGrad(const Tensor& grad, const Tensor& x) {
  return Eager<ew::ReluGrad>(grad, x);
}

Tensor Select(const Tensor& cond, const Tensor& a, const Tensor& b) {
  if (cond.dtype() != DType::kBool) {
    throw InvalidArgument("Select: condition must be bool");
  }
  CheckSameDType(a, b, "Select");
  const Shape out_shape =
      BroadcastShapes(BroadcastShapes(cond.shape(), a.shape()), b.shape());
  const Tensor cb = BroadcastTo(cond, out_shape);
  const Tensor ab = BroadcastTo(a, out_shape);
  const Tensor bb = BroadcastTo(b, out_shape);
  Tensor out(a.dtype(), out_shape);
  const auto cv = cb.data<std::uint8_t>();
  const std::int64_t n = out_shape.num_elements();
  const auto pick = [&](auto av, auto bv, auto ov) {
    for (std::int64_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      ov[u] = cv[u] != 0 ? av[u] : bv[u];
    }
  };
  switch (a.dtype()) {
    case DType::kFloat32:
      pick(ab.data<float>(), bb.data<float>(), out.mutable_data<float>());
      break;
    case DType::kInt64:
      pick(ab.data<std::int64_t>(), bb.data<std::int64_t>(),
           out.mutable_data<std::int64_t>());
      break;
    case DType::kBool:
      pick(ab.data<std::uint8_t>(), bb.data<std::uint8_t>(),
           out.mutable_data<std::uint8_t>());
      break;
  }
  return out;
}

Tensor RandomNormal(const Shape& shape, float mean, float stddev, Rng& rng) {
  Tensor out(DType::kFloat32, shape);
  for (float& v : out.mutable_data<float>())
    v = static_cast<float>(rng.Normal(mean, stddev));
  return out;
}

Tensor RandomUniform(const Shape& shape, float lo, float hi, Rng& rng) {
  Tensor out(DType::kFloat32, shape);
  for (float& v : out.mutable_data<float>())
    v = static_cast<float>(rng.Uniform(lo, hi));
  return out;
}

}  // namespace janus::ops

namespace janus::elementwise {

std::span<const OpRow> Rows() { return ops::kRows; }

const OpRow* FindRow(std::string_view op) {
  static const auto* by_name = [] {
    auto* map = new std::unordered_map<std::string_view, const OpRow*>;
    for (const OpRow& row : ops::kRows) map->emplace(row.name, &row);
    return map;
  }();
  const auto it = by_name->find(op);
  return it == by_name->end() ? nullptr : it->second;
}

}  // namespace janus::elementwise

// The dense Tensor type used across the whole system: imperative executor,
// dataflow graph runtime, autodiff, and benchmarks.
//
// A Tensor is a shape + dtype + shared immutable buffer. Copying a Tensor is
// cheap (buffer is refcounted); kernels allocate fresh outputs through the
// pooled allocator (buffer_pool.h) — or, inside an InPlaceScope, may steal a
// dying input's buffer via OutputBuffer. The only intentional aliasing
// mutation is Variable update in the runtime, which replaces the buffer
// wholesale.
#ifndef JANUS_TENSOR_TENSOR_H_
#define JANUS_TENSOR_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "tensor/buffer.h"
#include "tensor/shape.h"

namespace janus {

enum class DType : std::uint8_t { kFloat32, kInt64, kBool };

const char* DTypeName(DType dtype);
std::size_t DTypeSize(DType dtype);

// RAII opt-in for in-place buffer reuse on the current thread. The graph
// executors establish a scope around each kernel invocation whose node the
// memory plan marked in-place capable; inside it, Tensor::OutputBuffer may
// hand a kernel a dying input's buffer as its output storage. Everywhere
// else (eager dispatch, direct ops:: calls) the scope is inactive and every
// output is freshly allocated, so a uniquely-referenced caller tensor can
// never be mutated behind the caller's back.
class InPlaceScope {
 public:
  explicit InPlaceScope(bool enabled);
  InPlaceScope(const InPlaceScope&) = delete;
  InPlaceScope& operator=(const InPlaceScope&) = delete;
  ~InPlaceScope();

  static bool Active();

 private:
  bool saved_;
};

class Tensor {
 public:
  // Default: float32 scalar 0, sharing one process-global immutable buffer
  // (a placeholder value, allocation-free to construct). Assign a real
  // tensor over it; never write its elements through mutable_data().
  Tensor();

  // Allocates a tensor with UNINITIALIZED contents (use the factories below
  // instead where possible; prefer the explicit Uninitialized name in new
  // code).
  Tensor(DType dtype, Shape shape);

  // Uninitialized storage: for kernels that overwrite every element. The
  // payload may hold a recycled buffer's old data — never read before
  // writing.
  static Tensor Uninitialized(DType dtype, const Shape& shape);
  static Tensor Zeros(DType dtype, const Shape& shape);

  // Output-allocation helper for elementwise kernels: inside an active
  // InPlaceScope, returns a tensor sharing the first reuse candidate that is
  // uniquely referenced and byte-size compatible (the kernel then writes the
  // output over the dead input, index for index); otherwise returns
  // Uninitialized(dtype, shape). Candidates must only be written by loops
  // where output element i depends on nothing but candidate element i.
  static Tensor OutputBuffer(
      std::initializer_list<const Tensor*> reuse_candidates, DType dtype,
      const Shape& shape);
  // As above, for candidate lists built at run time (fused-region execution
  // collects its full-size external inputs dynamically).
  static Tensor OutputBuffer(std::span<const Tensor* const> reuse_candidates,
                             DType dtype, const Shape& shape);
  static Tensor Full(const Shape& shape, float value);
  static Tensor FullInt(const Shape& shape, std::int64_t value);
  static Tensor Scalar(float value);
  static Tensor ScalarInt(std::int64_t value);
  static Tensor ScalarBool(bool value);
  static Tensor FromVector(const std::vector<float>& values, Shape shape);
  static Tensor FromVectorInt(const std::vector<std::int64_t>& values,
                              Shape shape);

  DType dtype() const { return dtype_; }
  const Shape& shape() const { return shape_; }
  std::int64_t num_elements() const { return shape_.num_elements(); }
  int rank() const { return shape_.rank(); }
  std::int64_t dim(int axis) const { return shape_.dim(axis); }
  std::size_t byte_size() const {
    return static_cast<std::size_t>(num_elements()) * DTypeSize(dtype_);
  }

  // True when this tensor holds the only reference to its buffer.
  bool BufferUnique() const { return buffer_.unique(); }
  bool SharesBufferWith(const Tensor& other) const {
    return buffer_.id() == other.buffer_.id();
  }

  // Typed element access. The requested type must match dtype().
  template <typename T>
  std::span<const T> data() const {
    CheckType<T>();
    return {static_cast<const T*>(raw()), static_cast<std::size_t>(num_elements())};
  }

  template <typename T>
  std::span<T> mutable_data() {
    CheckType<T>();
    return {static_cast<T*>(raw()), static_cast<std::size_t>(num_elements())};
  }

  // Scalar convenience readers (tensor must have exactly one element).
  float ScalarValue() const;
  std::int64_t ScalarIntValue() const;
  bool ScalarBoolValue() const;
  // Reads element 0 of any dtype as double (for metrics/printing).
  double ElementAsDouble(std::int64_t index) const;

  // Returns a tensor sharing this buffer but with a different shape of the
  // same element count.
  Tensor Reshaped(Shape new_shape) const;

  // Deep equality (dtype, shape, and every element's bytes).
  bool ElementsEqual(const Tensor& other) const;

  // The elements' raw bytes (byte_size() of them), for bitwise hashing.
  std::span<const std::byte> bytes() const {
    return {static_cast<const std::byte*>(raw()), byte_size()};
  }

  // Identity of the underlying buffer (shared across Reshaped views). Used
  // by the eager tape to associate produced tensors with graph nodes.
  const void* data_id() const { return buffer_.id(); }

  std::string ToString(std::int64_t max_elements = 16) const;

 private:
  template <typename T>
  void CheckType() const {
    const bool ok = (std::is_same_v<T, float> && dtype_ == DType::kFloat32) ||
                    (std::is_same_v<T, std::int64_t> && dtype_ == DType::kInt64) ||
                    (std::is_same_v<T, std::uint8_t> && dtype_ == DType::kBool);
    if (!ok) {
      throw InternalError(std::string("tensor dtype mismatch: tensor is ") +
                          DTypeName(dtype_));
    }
  }

  const void* raw() const { return buffer_.data(); }
  void* raw() { return buffer_.data(); }

  DType dtype_;
  Shape shape_;
  Buffer buffer_;
};

}  // namespace janus

#endif  // JANUS_TENSOR_TENSOR_H_

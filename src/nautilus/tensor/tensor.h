#ifndef NAUTILUS_TENSOR_TENSOR_H_
#define NAUTILUS_TENSOR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nautilus/tensor/shape.h"
#include "nautilus/util/logging.h"
#include "nautilus/util/random.h"

namespace nautilus {

/// Dense float32 tensor with row-major layout. Copyable and movable; large
/// tensors should be passed by const reference or moved.
///
/// A tensor either owns its elements (the default) or *borrows* them from
/// external storage — a refcounted file mapping or a cache entry — via
/// FromBorrowed. Borrowed tensors are read-only views with copy-on-write
/// semantics: const accessors read the borrowed bytes in place (zero-copy),
/// while any mutating accessor first detaches into owned storage, so every
/// existing call site stays correct regardless of where a tensor came from.
///
/// Owned storage is rented from the process-wide util::BufferPool (only the
/// adopting constructor takes a caller's vector instead), and every owned
/// buffer a tensor lets go of (destruction, assignment) goes back to it.
/// Constructing, copying and reshaping therefore reuse the buffers of the
/// previous training step instead of faulting in fresh pages, and the pool
/// stays at one step's working set instead of filling its budget.
class Tensor {
 public:
  /// In-memory tensors are always f32; every stride/byte computation must go
  /// through this constant instead of a bare sizeof(float) so call sites that
  /// slice external storage (e.g. the shard reader, which also handles int8
  /// and f16 payloads) are explicit about WHICH element size they mean.
  static constexpr int64_t kElementBytes =
      static_cast<int64_t>(sizeof(float));

  Tensor() = default;
  /// Zero-filled tensor on rented storage.
  explicit Tensor(Shape shape);
  /// Adopts `data` as this tensor's storage.
  Tensor(Shape shape, std::vector<float> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    NAUTILUS_CHECK_EQ(static_cast<int64_t>(data_.size()),
                      shape_.NumElements());
  }

  /// Deep copy into rented storage. A borrowed view copies no bytes: the
  /// copy shares the view and its holder.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;

  /// Returns owned storage to the buffer pool.
  ~Tensor() { Release(); }

  /// Tensor filled with normal noise; used for weight initialization.
  static Tensor Randn(const Shape& shape, Rng* rng, float stddev);
  static Tensor Zeros(const Shape& shape) { return Tensor(shape); }
  static Tensor Full(const Shape& shape, float value);

  /// Tensor whose elements are ARBITRARY (not zero): storage is rented from
  /// the buffer pool without clearing. Use only when every element is
  /// overwritten before being read — kernel outputs, scratch buffers. Ops
  /// that accumulate into their output must use Tensor(shape) instead.
  static Tensor Uninitialized(const Shape& shape);

  /// Non-owning view over `shape.NumElements()` floats at `data`. `holder`
  /// keeps the backing storage (an mmap-ed file, a cache entry) alive for as
  /// long as this tensor — or any copy of it — exists. Copies share the
  /// holder; mutation detaches (copies the bytes into owned storage) first.
  /// `data` MUST point at f32 elements (kElementBytes apart): quantized shard
  /// payloads are decoded to f32 before they can back a view.
  static Tensor FromBorrowed(const float* data, Shape shape,
                             std::shared_ptr<const void> holder);

  /// True when this tensor currently aliases external storage.
  bool IsView() const { return view_ != nullptr; }

  const Shape& shape() const { return shape_; }
  int64_t NumElements() const { return shape_.NumElements(); }
  int64_t SizeBytes() const { return NumElements() * kElementBytes; }
  bool empty() const {
    return view_ == nullptr ? data_.empty() : NumElements() == 0;
  }

  float* data() {
    EnsureOwned();
    return data_.data();
  }
  const float* data() const {
    return view_ != nullptr ? view_ : data_.data();
  }

  float at(int64_t i) const {
    NAUTILUS_CHECK_GE(i, 0);
    NAUTILUS_CHECK_LT(i, NumElements());
    return data()[i];
  }
  float& at(int64_t i) {
    NAUTILUS_CHECK_GE(i, 0);
    NAUTILUS_CHECK_LT(i, NumElements());
    return data()[i];
  }

  /// Reinterprets the tensor with a new shape of the same element count.
  /// The lvalue form copies; the rvalue form moves the storage, so
  /// reshaping a temporary (`ops::MatMul(a, b).Reshaped(s)`) copies nothing.
  Tensor Reshaped(const Shape& new_shape) const&;
  Tensor Reshaped(const Shape& new_shape) &&;

  /// Rows [begin, end) along the batch (first) dimension, copied out.
  Tensor SliceRows(int64_t begin, int64_t end) const;

  /// Copies `rows.size()` records selected by index along the batch dim.
  Tensor GatherRows(const std::vector<int64_t>& rows) const;

  /// Appends the rows of `other` (same per-record shape) after this
  /// tensor's rows. Used for incremental feature materialization.
  void AppendRows(const Tensor& other);

  void Fill(float value);
  void SetZero() { Fill(0.0f); }

  /// Largest absolute elementwise difference; used by equivalence tests.
  static float MaxAbsDiff(const Tensor& a, const Tensor& b);

  std::string DebugString(int max_elements = 8) const;

 private:
  /// Detaches a borrowed view into owned storage (no-op when already owned).
  void EnsureOwned();
  /// Hands owned storage back to the buffer pool, leaving `data_` empty.
  void Release();

  Shape shape_;
  std::vector<float> data_;
  /// Borrowed storage (copy-on-write): when non-null, elements live at
  /// `view_` and `holder_` pins them; `data_` is empty until detach.
  const float* view_ = nullptr;
  std::shared_ptr<const void> holder_;
};

}  // namespace nautilus

#endif  // NAUTILUS_TENSOR_TENSOR_H_

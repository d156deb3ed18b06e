#include "nautilus/tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "nautilus/util/buffer_pool.h"

namespace nautilus {

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(util::BufferPool::Global().RentZeroed(shape_.NumElements())) {}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), view_(other.view_), holder_(other.holder_) {
  if (view_ == nullptr) {
    data_ = util::BufferPool::Global().RentCopy(
        other.data_.data(), static_cast<int64_t>(other.data_.size()));
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) *this = Tensor(other);
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)),
      data_(std::move(other.data_)),
      view_(std::exchange(other.view_, nullptr)),
      holder_(std::move(other.holder_)) {}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    Release();
    shape_ = std::move(other.shape_);
    data_ = std::move(other.data_);
    view_ = std::exchange(other.view_, nullptr);
    holder_ = std::move(other.holder_);
  }
  return *this;
}

void Tensor::Release() {
  std::vector<float> buf = std::move(data_);
  if (static_cast<int64_t>(buf.capacity()) >=
      util::BufferPool::kMinPooledFloats) {
    util::BufferPool::Global().Recycle(std::move(buf));
  }
}

Tensor Tensor::Uninitialized(const Shape& shape) {
  Tensor t;
  t.shape_ = shape;
  t.data_ = util::BufferPool::Global().Rent(shape.NumElements());
  return t;
}

std::string Shape::ToString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) os << ", ";
    os << dims_[i];
  }
  os << "]";
  return os.str();
}

Tensor Tensor::Randn(const Shape& shape, Rng* rng, float stddev) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    t.data_[static_cast<size_t>(i)] = rng->Normal(stddev);
  }
  return t;
}

Tensor Tensor::Full(const Shape& shape, float value) {
  Tensor t(shape);
  t.Fill(value);
  return t;
}

Tensor Tensor::FromBorrowed(const float* data, Shape shape,
                            std::shared_ptr<const void> holder) {
  NAUTILUS_CHECK(data != nullptr || shape.NumElements() == 0);
  Tensor t;
  t.shape_ = std::move(shape);
  t.view_ = data;
  t.holder_ = std::move(holder);
  return t;
}

void Tensor::EnsureOwned() {
  if (view_ == nullptr) return;
  data_.assign(view_, view_ + NumElements());
  view_ = nullptr;
  holder_.reset();
}

Tensor Tensor::Reshaped(const Shape& new_shape) const& {
  return Tensor(*this).Reshaped(new_shape);
}

Tensor Tensor::Reshaped(const Shape& new_shape) && {
  NAUTILUS_CHECK_EQ(new_shape.NumElements(), NumElements())
      << "reshape " << shape_.ToString() << " -> " << new_shape.ToString();
  Tensor t = std::move(*this);
  t.shape_ = new_shape;
  return t;
}

Tensor Tensor::SliceRows(int64_t begin, int64_t end) const {
  NAUTILUS_CHECK_GE(shape_.rank(), 1);
  NAUTILUS_CHECK_GE(begin, 0);
  NAUTILUS_CHECK_LE(begin, end);
  NAUTILUS_CHECK_LE(end, shape_.dim(0));
  const int64_t stride = shape_.ElementsPerRecord();
  Tensor out(shape_.WithBatch(end - begin));
  const float* src = data();
  std::copy(src + begin * stride, src + end * stride, out.data_.begin());
  return out;
}

Tensor Tensor::GatherRows(const std::vector<int64_t>& rows) const {
  NAUTILUS_CHECK_GE(shape_.rank(), 1);
  const int64_t stride = shape_.ElementsPerRecord();
  Tensor out(shape_.WithBatch(static_cast<int64_t>(rows.size())));
  const float* base = data();
  for (size_t r = 0; r < rows.size(); ++r) {
    const int64_t src = rows[r];
    NAUTILUS_CHECK_GE(src, 0);
    NAUTILUS_CHECK_LT(src, shape_.dim(0));
    std::copy(base + src * stride, base + (src + 1) * stride,
              out.data_.begin() + static_cast<int64_t>(r) * stride);
  }
  return out;
}

void Tensor::AppendRows(const Tensor& other) {
  if (empty()) {
    *this = other;
    return;
  }
  NAUTILUS_CHECK_EQ(shape_.rank(), other.shape_.rank());
  NAUTILUS_CHECK_EQ(shape_.ElementsPerRecord(),
                    other.shape_.ElementsPerRecord());
  EnsureOwned();
  const float* src = other.data();
  data_.insert(data_.end(), src, src + other.NumElements());
  shape_ = shape_.WithBatch(shape_.dim(0) + other.shape_.dim(0));
}

void Tensor::Fill(float value) {
  EnsureOwned();
  std::fill(data_.begin(), data_.end(), value);
}

float Tensor::MaxAbsDiff(const Tensor& a, const Tensor& b) {
  NAUTILUS_CHECK_EQ(a.NumElements(), b.NumElements());
  float m = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.NumElements(); ++i) {
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  }
  return m;
}

std::string Tensor::DebugString(int max_elements) const {
  std::ostringstream os;
  os << "Tensor" << shape_.ToString() << " {";
  const int64_t n = std::min<int64_t>(NumElements(), max_elements);
  const float* p = data();
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << p[i];
  }
  if (NumElements() > n) os << ", ...";
  os << "}";
  return os.str();
}

}  // namespace nautilus

#include "nautilus/nn/basic.h"

#include <cmath>

#include "nautilus/tensor/ops.h"
#include "nautilus/util/logging.h"

namespace nautilus {
namespace nn {

// ---------------------------------------------------------------------------
// InputLayer
// ---------------------------------------------------------------------------

Shape InputLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  return inputs[0];
}

Tensor InputLayer::Forward(const std::vector<const Tensor*>& inputs,
                           std::unique_ptr<LayerCache>* cache) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  if (cache != nullptr) cache->reset();
  return *inputs[0];
}

std::vector<Tensor> InputLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>&,
    const LayerCache&, const std::vector<bool>& needs_input_grad) {
  return {needs_input_grad[0] ? grad_out : Tensor()};
}

std::shared_ptr<Layer> InputLayer::Clone() const {
  return std::make_shared<InputLayer>(name_, record_shape_);
}

// ---------------------------------------------------------------------------
// DenseLayer
// ---------------------------------------------------------------------------

const char* ActivationName(Activation a) {
  switch (a) {
    case Activation::kNone:
      return "none";
    case Activation::kRelu:
      return "relu";
    case Activation::kGelu:
      return "gelu";
    case Activation::kTanh:
      return "tanh";
  }
  return "?";
}

namespace {

// Saves what each activation's backward needs.
class DenseCache : public LayerCache {
 public:
  Tensor pre_activation;  // only kept for gelu
  Tensor output;          // kept for relu / tanh
};

ops::EpilogueKind EpilogueFor(Activation a) {
  switch (a) {
    case Activation::kNone:
      return ops::EpilogueKind::kBias;
    case Activation::kRelu:
      return ops::EpilogueKind::kBiasRelu;
    case Activation::kGelu:
      return ops::EpilogueKind::kBiasGelu;
    case Activation::kTanh:
      return ops::EpilogueKind::kBiasTanh;
  }
  return ops::EpilogueKind::kBias;
}

}  // namespace

DenseLayer::DenseLayer(std::string name, int64_t in_dim, int64_t out_dim,
                       Activation activation, Rng* rng)
    : Layer(std::move(name)),
      in_dim_(in_dim),
      out_dim_(out_dim),
      activation_(activation),
      weight_(MakeParam(name_ + ".W", Shape({in_dim, out_dim}), rng,
                        1.0f / std::sqrt(static_cast<float>(in_dim)))),
      bias_(MakeConstParam(name_ + ".b", Shape({out_dim}), 0.0f)) {}

DenseLayer::DenseLayer(std::string name, int64_t in_dim, int64_t out_dim,
                       Activation activation, Parameter weight, Parameter bias)
    : Layer(std::move(name)),
      in_dim_(in_dim),
      out_dim_(out_dim),
      activation_(activation),
      weight_(std::move(weight)),
      bias_(std::move(bias)) {}

Shape DenseLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  const Shape& in = inputs[0];
  NAUTILUS_CHECK_EQ(in.dim(in.rank() - 1), in_dim_);
  std::vector<int64_t> dims = in.dims();
  dims.back() = out_dim_;
  return Shape(dims);
}

double DenseLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  NAUTILUS_CHECK_EQ(input_record_shapes.size(), 1u);
  // Rows per record = elements / in_dim. 2*in*out FLOPs per row (+bias+act,
  // negligible but counted as out per row).
  const double rows =
      static_cast<double>(input_record_shapes[0].NumElements()) /
      static_cast<double>(in_dim_);
  return rows * (2.0 * static_cast<double>(in_dim_) *
                     static_cast<double>(out_dim_) +
                 2.0 * static_cast<double>(out_dim_));
}

Tensor DenseLayer::Forward(const std::vector<const Tensor*>& inputs,
                           std::unique_ptr<LayerCache>* cache) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  // Matmul, bias, and activation run as one fused pass over the output (the
  // GEMM epilogue applies bias+activation per tile while it is hot in cache).
  auto c = std::make_unique<DenseCache>();
  ops::EpilogueKind kind = ops::EpilogueKind::kBias;
  Tensor* pre = nullptr;
  switch (activation_) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      kind = ops::EpilogueKind::kBiasRelu;
      break;
    case Activation::kGelu:
      kind = ops::EpilogueKind::kBiasGelu;
      pre = &c->pre_activation;  // GELU backward needs z = xW + b
      break;
    case Activation::kTanh:
      kind = ops::EpilogueKind::kBiasTanh;
      break;
  }
  Tensor y = ops::DenseForward(*inputs[0], weight_.value, bias_.value, kind,
                               pre);
  std::vector<int64_t> dims = inputs[0]->shape().dims();
  dims.back() = out_dim_;
  y = std::move(y).Reshaped(Shape(dims));
  if (activation_ == Activation::kRelu || activation_ == Activation::kTanh) {
    c->output = y;  // Backward masks dz with the output sign
  }
  if (cache != nullptr) *cache = std::move(c);
  return y;
}

Tensor DenseLayer::ForwardQuantized(
    const std::vector<const Tensor*>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  const quant::QuantMode mode = quant::GlobalQuantMode();
  if (mode == quant::QuantMode::kOff) return Forward(inputs, nullptr);
  const ops::EpilogueKind kind = EpilogueFor(activation_);
  Tensor y;
  if (mode == quant::QuantMode::kInt8) {
    {
      std::lock_guard<std::mutex> lock(quant_mu_);
      if (!qweight_ready_) {
        qweight_ =
            quant::QuantizePerColumn(weight_.value.data(), in_dim_, out_dim_);
        qweight_ready_ = true;
      }
    }
    y = ops::QuantizedDenseForward(*inputs[0], qweight_, bias_.value, kind);
  } else {  // kF16: weights rounded to half precision, arithmetic stays f32.
    {
      std::lock_guard<std::mutex> lock(quant_mu_);
      if (!f16_ready_) {
        weight_f16_ = ops::RoundTripF16(weight_.value);
        f16_ready_ = true;
      }
    }
    y = ops::DenseForward(*inputs[0], weight_f16_, bias_.value, kind);
  }
  std::vector<int64_t> dims = inputs[0]->shape().dims();
  dims.back() = out_dim_;
  return std::move(y).Reshaped(Shape(dims));
}

std::vector<Tensor> DenseLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache& cache, const std::vector<bool>& needs_input_grad) {
  const auto& c = static_cast<const DenseCache&>(cache);
  Tensor dz;
  switch (activation_) {
    case Activation::kNone:
      dz = grad_out;
      break;
    case Activation::kRelu:
      dz = ops::ReluBackward(grad_out, c.output);
      break;
    case Activation::kGelu:
      dz = ops::GeluBackward(grad_out, c.pre_activation);
      break;
    case Activation::kTanh:
      dz = ops::TanhBackward(grad_out, c.output);
      break;
  }
  // dW += x^T dz ; db += colsum(dz) ; dx = dz W^T
  ops::AxpyInPlace(1.0f, ops::MatMulTN(*inputs[0], dz), &weight_.grad);
  ops::AxpyInPlace(1.0f, ops::ColumnSum(dz), &bias_.grad);
  if (!needs_input_grad[0]) return {Tensor()};
  return {ops::MatMulNT(dz, weight_.value).Reshaped(inputs[0]->shape())};
}

std::shared_ptr<Layer> DenseLayer::Clone() const {
  return std::shared_ptr<Layer>(
      new DenseLayer(name_, in_dim_, out_dim_, activation_, weight_, bias_));
}

// ---------------------------------------------------------------------------
// LayerNormLayer
// ---------------------------------------------------------------------------

namespace {

class LayerNormLayerCache : public LayerCache {
 public:
  ops::LayerNormCache cache;
};

constexpr float kLayerNormEps = 1e-5f;

}  // namespace

LayerNormLayer::LayerNormLayer(std::string name, int64_t dim)
    : Layer(std::move(name)),
      dim_(dim),
      gamma_(MakeConstParam(name_ + ".gamma", Shape({dim}), 1.0f)),
      beta_(MakeConstParam(name_ + ".beta", Shape({dim}), 0.0f)) {}

LayerNormLayer::LayerNormLayer(std::string name, int64_t dim, Parameter gamma,
                               Parameter beta)
    : Layer(std::move(name)),
      dim_(dim),
      gamma_(std::move(gamma)),
      beta_(std::move(beta)) {}

Shape LayerNormLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  NAUTILUS_CHECK_EQ(inputs[0].dim(inputs[0].rank() - 1), dim_);
  return inputs[0];
}

double LayerNormLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  // ~8 FLOPs per element (two reductions + normalize + affine).
  return 8.0 * static_cast<double>(input_record_shapes[0].NumElements());
}

Tensor LayerNormLayer::Forward(const std::vector<const Tensor*>& inputs,
                               std::unique_ptr<LayerCache>* cache) const {
  auto c = std::make_unique<LayerNormLayerCache>();
  Tensor y = ops::LayerNormForward(*inputs[0], gamma_.value, beta_.value,
                                   kLayerNormEps, &c->cache);
  if (cache != nullptr) *cache = std::move(c);
  return y;
}

std::vector<Tensor> LayerNormLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache& cache, const std::vector<bool>& needs_input_grad) {
  (void)inputs;
  const auto& c = static_cast<const LayerNormLayerCache&>(cache);
  Tensor dx, dgamma, dbeta;
  ops::LayerNormBackward(grad_out, gamma_.value, c.cache, &dx, &dgamma,
                         &dbeta);
  ops::AxpyInPlace(1.0f, dgamma, &gamma_.grad);
  ops::AxpyInPlace(1.0f, dbeta, &beta_.grad);
  return {needs_input_grad[0] ? std::move(dx) : Tensor()};
}

bool LayerNormLayer::DescribeFusedOp(fused::OpDesc* op) {
  if (gamma_.value.empty() || beta_.value.empty()) return false;  // stubs
  op->kind = fused::OpKind::kLayerNorm;
  op->num_inputs = 1;
  op->gamma = &gamma_.value;
  op->beta = &beta_.value;
  op->dgamma_acc = &gamma_.grad;
  op->dbeta_acc = &beta_.grad;
  op->eps = kLayerNormEps;
  return true;
}

std::shared_ptr<Layer> LayerNormLayer::Clone() const {
  return std::shared_ptr<Layer>(
      new LayerNormLayer(name_, dim_, gamma_, beta_));
}

// ---------------------------------------------------------------------------
// ActivationLayer
// ---------------------------------------------------------------------------

namespace {

class ActivationCache : public LayerCache {
 public:
  Tensor output;  // kept for relu / tanh; gelu re-reads the live input
};

}  // namespace

ActivationLayer::ActivationLayer(std::string name, Activation activation)
    : Layer(std::move(name)), activation_(activation) {
  NAUTILUS_CHECK(activation_ != Activation::kNone)
      << "ActivationLayer needs a real activation";
}

Shape ActivationLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  return inputs[0];
}

double ActivationLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  const double n =
      static_cast<double>(input_record_shapes[0].NumElements());
  return activation_ == Activation::kGelu ? 10.0 * n : n;
}

Tensor ActivationLayer::Forward(const std::vector<const Tensor*>& inputs,
                                std::unique_ptr<LayerCache>* cache) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  Tensor y;
  switch (activation_) {
    case Activation::kNone:
      NAUTILUS_CHECK(false);
      break;
    case Activation::kRelu:
      y = ops::ReluForward(*inputs[0]);
      break;
    case Activation::kGelu:
      y = ops::GeluForward(*inputs[0]);
      break;
    case Activation::kTanh:
      y = ops::TanhForward(*inputs[0]);
      break;
  }
  if (cache != nullptr) {
    auto c = std::make_unique<ActivationCache>();
    if (activation_ != Activation::kGelu) c->output = y;
    *cache = std::move(c);
  }
  return y;
}

std::vector<Tensor> ActivationLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache& cache, const std::vector<bool>& needs_input_grad) {
  if (!needs_input_grad[0]) return {Tensor()};
  const auto& c = static_cast<const ActivationCache&>(cache);
  switch (activation_) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      return {ops::ReluBackward(grad_out, c.output)};
    case Activation::kGelu:
      return {ops::GeluBackward(grad_out, *inputs[0])};
    case Activation::kTanh:
      return {ops::TanhBackward(grad_out, c.output)};
  }
  return {grad_out};
}

bool ActivationLayer::DescribeFusedOp(fused::OpDesc* op) {
  switch (activation_) {
    case Activation::kNone:
      return false;
    case Activation::kRelu:
      op->kind = fused::OpKind::kRelu;
      break;
    case Activation::kGelu:
      op->kind = fused::OpKind::kGelu;
      break;
    case Activation::kTanh:
      op->kind = fused::OpKind::kTanh;
      break;
  }
  op->num_inputs = 1;
  return true;
}

std::shared_ptr<Layer> ActivationLayer::Clone() const {
  return std::make_shared<ActivationLayer>(name_, activation_);
}

// ---------------------------------------------------------------------------
// SoftmaxLayer
// ---------------------------------------------------------------------------

namespace {

class SoftmaxCache : public LayerCache {
 public:
  Tensor probs;  // backward needs the forward output
};

}  // namespace

Shape SoftmaxLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  return inputs[0];
}

double SoftmaxLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  // max + exp + sum + normalize: ~5 per element (exp dominates).
  return 5.0 * static_cast<double>(input_record_shapes[0].NumElements());
}

Tensor SoftmaxLayer::Forward(const std::vector<const Tensor*>& inputs,
                             std::unique_ptr<LayerCache>* cache) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  Tensor y = ops::SoftmaxForward(*inputs[0]);
  if (cache != nullptr) {
    auto c = std::make_unique<SoftmaxCache>();
    c->probs = y;
    *cache = std::move(c);
  }
  return y;
}

std::vector<Tensor> SoftmaxLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache& cache, const std::vector<bool>& needs_input_grad) {
  (void)inputs;
  if (!needs_input_grad[0]) return {Tensor()};
  const auto& c = static_cast<const SoftmaxCache&>(cache);
  return {ops::SoftmaxBackward(grad_out, c.probs)};
}

bool SoftmaxLayer::DescribeFusedOp(fused::OpDesc* op) {
  op->kind = fused::OpKind::kSoftmax;
  op->num_inputs = 1;
  return true;
}

std::shared_ptr<Layer> SoftmaxLayer::Clone() const {
  return std::make_shared<SoftmaxLayer>(name_);
}

}  // namespace nn
}  // namespace nautilus

#ifndef NAUTILUS_NN_BASIC_H_
#define NAUTILUS_NN_BASIC_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nautilus/nn/layer.h"
#include "nautilus/tensor/quant.h"
#include "nautilus/util/random.h"

namespace nautilus {
namespace nn {

/// A model input (Definition 2.4 treats inputs as materializable roots).
/// Forward is the identity on the single fed tensor; the shape describes one
/// record (no batch dimension).
class InputLayer : public Layer {
 public:
  InputLayer(std::string name, Shape record_shape)
      : Layer(std::move(name)), record_shape_(std::move(record_shape)) {}

  std::string type_name() const override { return "Input"; }
  const Shape& record_shape() const { return record_shape_; }

  Shape OutputShape(const std::vector<Shape>& inputs) const override;
  double ForwardFlopsPerRecord(const std::vector<Shape>&) const override {
    return 0.0;
  }
  Tensor Forward(const std::vector<const Tensor*>& inputs,
                 std::unique_ptr<LayerCache>* cache) const override;
  std::vector<Tensor> Backward(
      const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
      const LayerCache& cache,
      const std::vector<bool>& needs_input_grad) override;
  std::shared_ptr<Layer> Clone() const override;

 private:
  Shape record_shape_;
};

enum class Activation { kNone, kRelu, kGelu, kTanh };

const char* ActivationName(Activation a);

/// Fully-connected layer y = act(x W + b) applied to the last dimension.
class DenseLayer : public Layer {
 public:
  /// Initializes W with scaled-normal values (stddev 1/sqrt(in_dim)) and b
  /// with zeros, deterministically from `rng`.
  DenseLayer(std::string name, int64_t in_dim, int64_t out_dim,
             Activation activation, Rng* rng);

  std::string type_name() const override { return "Dense"; }
  int64_t in_dim() const { return in_dim_; }
  int64_t out_dim() const { return out_dim_; }
  Activation activation() const { return activation_; }

  Shape OutputShape(const std::vector<Shape>& inputs) const override;
  double ForwardFlopsPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  Tensor Forward(const std::vector<const Tensor*>& inputs,
                 std::unique_ptr<LayerCache>* cache) const override;
  Tensor ForwardQuantized(
      const std::vector<const Tensor*>& inputs) const override;
  std::vector<Tensor> Backward(
      const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
      const LayerCache& cache,
      const std::vector<bool>& needs_input_grad) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::shared_ptr<Layer> Clone() const override;

 private:
  DenseLayer(std::string name, int64_t in_dim, int64_t out_dim,
             Activation activation, Parameter weight, Parameter bias);

  int64_t in_dim_;
  int64_t out_dim_;
  Activation activation_;
  Parameter weight_;  // [in, out]
  Parameter bias_;    // [out]

  // Lazily built reduced-precision weight caches for ForwardQuantized,
  // guarded by quant_mu_. Safe to cache: quantized forwards only run on
  // frozen layers, whose weights never change once the cache is built.
  // Clones (which CAN train) start with empty caches.
  mutable std::mutex quant_mu_;
  mutable quant::QuantizedMatrix qweight_;
  mutable bool qweight_ready_ = false;
  mutable Tensor weight_f16_;
  mutable bool f16_ready_ = false;
};

/// Layer normalization over the last dimension with learned gain/bias.
class LayerNormLayer : public Layer {
 public:
  LayerNormLayer(std::string name, int64_t dim);

  std::string type_name() const override { return "LayerNorm"; }

  Shape OutputShape(const std::vector<Shape>& inputs) const override;
  double ForwardFlopsPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  Tensor Forward(const std::vector<const Tensor*>& inputs,
                 std::unique_ptr<LayerCache>* cache) const override;
  std::vector<Tensor> Backward(
      const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
      const LayerCache& cache,
      const std::vector<bool>& needs_input_grad) override;
  std::vector<Parameter*> Params() override { return {&gamma_, &beta_}; }
  bool DescribeFusedOp(fused::OpDesc* op) override;
  std::shared_ptr<Layer> Clone() const override;

 private:
  LayerNormLayer(std::string name, int64_t dim, Parameter gamma,
                 Parameter beta);

  int64_t dim_;
  Parameter gamma_;
  Parameter beta_;
};

/// Standalone elementwise activation (relu/gelu/tanh) as a graph node —
/// activations decoupled from a Dense epilogue (e.g. after a residual add).
class ActivationLayer : public Layer {
 public:
  ActivationLayer(std::string name, Activation activation);

  std::string type_name() const override { return "Activation"; }
  Activation activation() const { return activation_; }

  Shape OutputShape(const std::vector<Shape>& inputs) const override;
  double ForwardFlopsPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  Tensor Forward(const std::vector<const Tensor*>& inputs,
                 std::unique_ptr<LayerCache>* cache) const override;
  std::vector<Tensor> Backward(
      const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
      const LayerCache& cache,
      const std::vector<bool>& needs_input_grad) override;
  bool DescribeFusedOp(fused::OpDesc* op) override;
  std::shared_ptr<Layer> Clone() const override;

 private:
  Activation activation_;
};

/// Row-wise softmax over the last dimension (attention-style normalization
/// heads expressed at graph level).
class SoftmaxLayer : public Layer {
 public:
  explicit SoftmaxLayer(std::string name) : Layer(std::move(name)) {}

  std::string type_name() const override { return "Softmax"; }

  Shape OutputShape(const std::vector<Shape>& inputs) const override;
  double ForwardFlopsPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  Tensor Forward(const std::vector<const Tensor*>& inputs,
                 std::unique_ptr<LayerCache>* cache) const override;
  std::vector<Tensor> Backward(
      const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
      const LayerCache& cache,
      const std::vector<bool>& needs_input_grad) override;
  bool DescribeFusedOp(fused::OpDesc* op) override;
  std::shared_ptr<Layer> Clone() const override;
};

}  // namespace nn
}  // namespace nautilus

#endif  // NAUTILUS_NN_BASIC_H_

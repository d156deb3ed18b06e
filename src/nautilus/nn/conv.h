#ifndef NAUTILUS_NN_CONV_H_
#define NAUTILUS_NN_CONV_H_

#include <memory>
#include <string>
#include <vector>

#include "nautilus/nn/layer.h"
#include "nautilus/tensor/ops.h"
#include "nautilus/util/random.h"

namespace nautilus {
namespace nn {

/// Convolution + per-channel affine (frozen-statistics batch-norm stand-in)
/// + optional ReLU. The basic building block of the ResNet-like zoo model.
class ConvBlockLayer : public Layer {
 public:
  ConvBlockLayer(std::string name, int64_t in_channels, int64_t out_channels,
                 int64_t kernel, int64_t stride, int64_t padding, bool relu,
                 Rng* rng);

  std::string type_name() const override { return "ConvBlock"; }
  int64_t out_channels() const { return out_channels_; }

  Shape OutputShape(const std::vector<Shape>& inputs) const override;
  double ForwardFlopsPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  double InternalActivationBytesPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  Tensor Forward(const std::vector<const Tensor*>& inputs,
                 std::unique_ptr<LayerCache>* cache) const override;
  std::vector<Tensor> Backward(
      const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
      const LayerCache& cache,
      const std::vector<bool>& needs_input_grad) override;
  std::vector<Parameter*> Params() override {
    return {&weight_, &scale_, &shift_};
  }
  std::shared_ptr<Layer> Clone() const override;

 private:
  ConvBlockLayer(std::string name, int64_t in_channels, int64_t out_channels,
                 int64_t kernel, int64_t stride, int64_t padding, bool relu,
                 Parameter weight, Parameter scale, Parameter shift);

  int64_t in_channels_;
  int64_t out_channels_;
  int64_t kernel_;
  int64_t stride_;
  int64_t padding_;
  bool relu_;
  Parameter weight_;  // [oc, ic, k, k]
  Parameter scale_;   // [oc]
  Parameter shift_;   // [oc]
};

/// ResNet bottleneck residual block: 1x1 reduce -> 3x3 (optionally strided)
/// -> 1x1 expand, each conv followed by channel affine; ReLU between convs
/// and after the residual add. The skip path is the identity, or a strided
/// 1x1 conv + affine when the spatial size or channel count changes.
/// A composite layer for the paper's memory accounting.
class ResidualBlockLayer : public Layer {
 public:
  ResidualBlockLayer(std::string name, int64_t in_channels, int64_t mid_channels,
                     int64_t out_channels, int64_t stride, Rng* rng);

  std::string type_name() const override { return "ResidualBlock"; }

  Shape OutputShape(const std::vector<Shape>& inputs) const override;
  double ForwardFlopsPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  double InternalActivationBytesPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  Tensor Forward(const std::vector<const Tensor*>& inputs,
                 std::unique_ptr<LayerCache>* cache) const override;
  std::vector<Tensor> Backward(
      const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
      const LayerCache& cache,
      const std::vector<bool>& needs_input_grad) override;
  std::vector<Parameter*> Params() override;
  std::shared_ptr<Layer> Clone() const override;

 private:
  ResidualBlockLayer(std::string name, int64_t in_channels,
                     int64_t mid_channels, int64_t out_channels,
                     int64_t stride);

  bool has_projection() const {
    return stride_ != 1 || in_channels_ != out_channels_;
  }

  int64_t in_channels_;
  int64_t mid_channels_;
  int64_t out_channels_;
  int64_t stride_;
  std::vector<std::unique_ptr<Parameter>> params_;
  // conv1 (1x1), conv2 (3x3 stride), conv3 (1x1), optional projection.
  Parameter* w1_;
  Parameter* s1_;
  Parameter* t1_;
  Parameter* w2_;
  Parameter* s2_;
  Parameter* t2_;
  Parameter* w3_;
  Parameter* s3_;
  Parameter* t3_;
  Parameter* wp_ = nullptr;
  Parameter* sp_ = nullptr;
  Parameter* tp_ = nullptr;
};

/// k x k max pooling with stride == kernel.
class MaxPoolLayer : public Layer {
 public:
  MaxPoolLayer(std::string name, int64_t kernel)
      : Layer(std::move(name)), kernel_(kernel) {}

  std::string type_name() const override { return "MaxPool"; }
  Shape OutputShape(const std::vector<Shape>& inputs) const override;
  double ForwardFlopsPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  Tensor Forward(const std::vector<const Tensor*>& inputs,
                 std::unique_ptr<LayerCache>* cache) const override;
  std::vector<Tensor> Backward(
      const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
      const LayerCache& cache,
      const std::vector<bool>& needs_input_grad) override;
  std::shared_ptr<Layer> Clone() const override;

 private:
  int64_t kernel_;
};

/// Mean over spatial dimensions: [b, c, h, w] -> [b, c].
class GlobalAvgPoolLayer : public Layer {
 public:
  explicit GlobalAvgPoolLayer(std::string name) : Layer(std::move(name)) {}

  std::string type_name() const override { return "GlobalAvgPool"; }
  Shape OutputShape(const std::vector<Shape>& inputs) const override;
  double ForwardFlopsPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  Tensor Forward(const std::vector<const Tensor*>& inputs,
                 std::unique_ptr<LayerCache>* cache) const override;
  std::vector<Tensor> Backward(
      const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
      const LayerCache& cache,
      const std::vector<bool>& needs_input_grad) override;
  std::shared_ptr<Layer> Clone() const override;
};

}  // namespace nn
}  // namespace nautilus

#endif  // NAUTILUS_NN_CONV_H_

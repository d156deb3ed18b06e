#ifndef NAUTILUS_NN_COMBINE_H_
#define NAUTILUS_NN_COMBINE_H_

#include <memory>
#include <string>
#include <vector>

#include "nautilus/nn/layer.h"

namespace nautilus {
namespace nn {

/// Elementwise sum of two or more same-shaped inputs (the "sum last 4
/// hidden" / "sum all hidden" feature-transfer strategies, and residual
/// connections expressed at graph level).
class AddLayer : public Layer {
 public:
  explicit AddLayer(std::string name) : Layer(std::move(name)) {}

  std::string type_name() const override { return "Add"; }
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

/// Concatenation of inputs along the last dimension (the "concat last 4
/// hidden" feature-transfer strategy).
class ConcatLayer : public Layer {
 public:
  explicit ConcatLayer(std::string name) : Layer(std::move(name)) {}

  std::string type_name() const override { return "Concat"; }
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

/// Mean over the sequence dimension: [b, s, h] -> [b, h].
class MeanPoolLayer : public Layer {
 public:
  explicit MeanPoolLayer(std::string name) : Layer(std::move(name)) {}

  std::string type_name() const override { return "MeanPool"; }
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

/// Picks the representation at one sequence position (e.g. the leading
/// [CLS]-style token): [b, s, h] -> [b, h].
class SelectTokenLayer : public Layer {
 public:
  SelectTokenLayer(std::string name, int64_t position)
      : Layer(std::move(name)), position_(position) {}

  std::string type_name() const override { return "SelectToken"; }
  int64_t position() const { return position_; }
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
  int64_t position_;
};

}  // namespace nn
}  // namespace nautilus

#endif  // NAUTILUS_NN_COMBINE_H_

#include "nautilus/nn/combine.h"

#include "nautilus/tensor/ops.h"
#include "nautilus/util/logging.h"

namespace nautilus {
namespace nn {

// ---------------------------------------------------------------------------
// AddLayer
// ---------------------------------------------------------------------------

Shape AddLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_GE(inputs.size(), 2u);
  for (size_t i = 1; i < inputs.size(); ++i) {
    NAUTILUS_CHECK(inputs[i] == inputs[0])
        << "Add inputs must share a shape: " << inputs[0].ToString() << " vs "
        << inputs[i].ToString();
  }
  return inputs[0];
}

double AddLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  return static_cast<double>(input_record_shapes.size() - 1) *
         static_cast<double>(input_record_shapes[0].NumElements());
}

Tensor AddLayer::Forward(const std::vector<const Tensor*>& inputs,
                         std::unique_ptr<LayerCache>* cache) const {
  if (cache != nullptr) cache->reset();
  return ops::AddN(inputs);
}

std::vector<Tensor> AddLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache&, const std::vector<bool>& needs_input_grad) {
  std::vector<Tensor> grads(inputs.size());
  for (size_t k = 0; k < grads.size(); ++k) {
    if (needs_input_grad[k]) grads[k] = grad_out;
  }
  return grads;
}

bool AddLayer::DescribeFusedOp(fused::OpDesc* op) {
  op->kind = fused::OpKind::kAddN;
  op->num_inputs = 1;  // the planner widens this to the node's parent count
  return true;
}

std::shared_ptr<Layer> AddLayer::Clone() const {
  return std::make_shared<AddLayer>(name_);
}

// ---------------------------------------------------------------------------
// ConcatLayer
// ---------------------------------------------------------------------------

Shape ConcatLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_GE(inputs.size(), 2u);
  int64_t last = 0;
  for (const Shape& s : inputs) {
    NAUTILUS_CHECK_EQ(s.rank(), inputs[0].rank());
    last += s.dim(s.rank() - 1);
  }
  std::vector<int64_t> dims = inputs[0].dims();
  dims.back() = last;
  return Shape(dims);
}

double ConcatLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  // Pure data movement; charge one op per element copied.
  double n = 0.0;
  for (const Shape& s : input_record_shapes) {
    n += static_cast<double>(s.NumElements());
  }
  return n;
}

Tensor ConcatLayer::Forward(const std::vector<const Tensor*>& inputs,
                            std::unique_ptr<LayerCache>* cache) const {
  if (cache != nullptr) cache->reset();
  return ops::ConcatLastDim(inputs);
}

std::vector<Tensor> ConcatLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache&, const std::vector<bool>& needs_input_grad) {
  std::vector<int64_t> sizes;
  sizes.reserve(inputs.size());
  for (const Tensor* t : inputs) {
    sizes.push_back(t->shape().dim(t->shape().rank() - 1));
  }
  std::vector<Tensor> grads = ops::SplitLastDim(grad_out, sizes);
  for (size_t k = 0; k < grads.size(); ++k) {
    if (!needs_input_grad[k]) grads[k] = Tensor();
  }
  return grads;
}

std::shared_ptr<Layer> ConcatLayer::Clone() const {
  return std::make_shared<ConcatLayer>(name_);
}

// ---------------------------------------------------------------------------
// MeanPoolLayer
// ---------------------------------------------------------------------------

Shape MeanPoolLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  NAUTILUS_CHECK_EQ(inputs[0].rank(), 3);
  return Shape({inputs[0].dim(0), inputs[0].dim(2)});
}

double MeanPoolLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  return static_cast<double>(input_record_shapes[0].NumElements());
}

Tensor MeanPoolLayer::Forward(const std::vector<const Tensor*>& inputs,
                              std::unique_ptr<LayerCache>* cache) const {
  if (cache != nullptr) cache->reset();
  return ops::MeanPoolSeq(*inputs[0]);
}

std::vector<Tensor> MeanPoolLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache&, const std::vector<bool>& needs_input_grad) {
  if (!needs_input_grad[0]) return {Tensor()};
  return {ops::MeanPoolSeqBackward(grad_out, inputs[0]->shape())};
}

bool MeanPoolLayer::DescribeFusedOp(fused::OpDesc* op) {
  op->kind = fused::OpKind::kMeanPool;
  op->num_inputs = 1;
  return true;
}

std::shared_ptr<Layer> MeanPoolLayer::Clone() const {
  return std::make_shared<MeanPoolLayer>(name_);
}

// ---------------------------------------------------------------------------
// SelectTokenLayer
// ---------------------------------------------------------------------------

Shape SelectTokenLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  NAUTILUS_CHECK_EQ(inputs[0].rank(), 3);
  return Shape({inputs[0].dim(0), inputs[0].dim(2)});
}

Tensor SelectTokenLayer::Forward(const std::vector<const Tensor*>& inputs,
                                 std::unique_ptr<LayerCache>* cache) const {
  if (cache != nullptr) cache->reset();
  return ops::SelectSeqPosition(*inputs[0], position_);
}

std::vector<Tensor> SelectTokenLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache&, const std::vector<bool>& needs_input_grad) {
  if (!needs_input_grad[0]) return {Tensor()};
  return {
      ops::SelectSeqPositionBackward(grad_out, inputs[0]->shape(), position_)};
}

std::shared_ptr<Layer> SelectTokenLayer::Clone() const {
  return std::make_shared<SelectTokenLayer>(name_, position_);
}

}  // namespace nn
}  // namespace nautilus

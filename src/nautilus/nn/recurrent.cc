#include "nautilus/nn/recurrent.h"

#include <cmath>

#include "nautilus/tensor/ops.h"
#include "nautilus/util/logging.h"

namespace nautilus {
namespace nn {

namespace {

class RnnCellCache : public LayerCache {
 public:
  Tensor output;  // tanh output (its own derivative source)
};

}  // namespace

RnnCellLayer::RnnCellLayer(std::string name, int64_t input_dim,
                           int64_t hidden_dim, Rng* rng)
    : Layer(std::move(name)),
      input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_input_(MakeParam(name_ + ".Wx", Shape({input_dim, hidden_dim}), rng,
                         1.0f / std::sqrt(static_cast<float>(input_dim)))),
      w_hidden_(MakeParam(name_ + ".Wh", Shape({hidden_dim, hidden_dim}), rng,
                          1.0f / std::sqrt(static_cast<float>(hidden_dim)))),
      bias_(MakeConstParam(name_ + ".b", Shape({hidden_dim}), 0.0f)) {}

RnnCellLayer::RnnCellLayer(std::string name, int64_t input_dim,
                           int64_t hidden_dim, Parameter wx, Parameter wh,
                           Parameter b)
    : Layer(std::move(name)),
      input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_input_(std::move(wx)),
      w_hidden_(std::move(wh)),
      bias_(std::move(b)) {}

Shape RnnCellLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 2u);
  NAUTILUS_CHECK_EQ(inputs[0].dim(inputs[0].rank() - 1), input_dim_);
  NAUTILUS_CHECK_EQ(inputs[1].dim(inputs[1].rank() - 1), hidden_dim_);
  return Shape({inputs[0].dim(0), hidden_dim_});
}

double RnnCellLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>&) const {
  return 2.0 * static_cast<double>((input_dim_ + hidden_dim_) * hidden_dim_) +
         4.0 * static_cast<double>(hidden_dim_);
}

Tensor RnnCellLayer::Forward(const std::vector<const Tensor*>& inputs,
                             std::unique_ptr<LayerCache>* cache) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 2u);
  // h = tanh(x Wx + h_prev Wh + b): the first GEMM materializes x Wx, the
  // second accumulates h_prev Wh on top and fuses bias + tanh in its
  // epilogue, so the separate add-bias and tanh passes disappear.
  Tensor h = ops::MatMul(*inputs[0], w_input_.value);
  const Tensor& hp = *inputs[1];
  const int64_t rows = hp.NumElements() / hidden_dim_;
  ops::Epilogue ep;
  ep.kind = ops::EpilogueKind::kBiasTanh;
  ep.bias = bias_.value.data();
  ops::Gemm(ops::GemmTranspose::kNN, rows, hidden_dim_, hidden_dim_,
            hp.data(), w_hidden_.value.data(), h.data(), ep,
            /*accumulate=*/true);
  auto c = std::make_unique<RnnCellCache>();
  c->output = h;
  if (cache != nullptr) *cache = std::move(c);
  return h;
}

std::vector<Tensor> RnnCellLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache& cache, const std::vector<bool>& needs_input_grad) {
  const auto& c = static_cast<const RnnCellCache&>(cache);
  Tensor dz = ops::TanhBackward(grad_out, c.output);
  ops::AxpyInPlace(1.0f, ops::MatMulTN(*inputs[0], dz), &w_input_.grad);
  ops::AxpyInPlace(1.0f, ops::MatMulTN(*inputs[1], dz), &w_hidden_.grad);
  ops::AxpyInPlace(1.0f, ops::ColumnSum(dz), &bias_.grad);
  std::vector<Tensor> grads(2);
  if (needs_input_grad[0]) {
    grads[0] = ops::MatMulNT(dz, w_input_.value).Reshaped(inputs[0]->shape());
  }
  if (needs_input_grad[1]) {
    grads[1] = ops::MatMulNT(dz, w_hidden_.value).Reshaped(inputs[1]->shape());
  }
  return grads;
}

std::shared_ptr<Layer> RnnCellLayer::Clone() const {
  return std::shared_ptr<Layer>(new RnnCellLayer(
      name_, input_dim_, hidden_dim_, w_input_, w_hidden_, bias_));
}

Shape ZeroStateLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  return Shape({inputs[0].dim(0), dim_});
}

Tensor ZeroStateLayer::Forward(const std::vector<const Tensor*>& inputs,
                               std::unique_ptr<LayerCache>* cache) const {
  if (cache != nullptr) cache->reset();
  return Tensor(Shape({inputs[0]->shape().dim(0), dim_}));
}

std::vector<Tensor> ZeroStateLayer::Backward(
    const Tensor&, const std::vector<const Tensor*>& inputs,
    const LayerCache&, const std::vector<bool>& needs_input_grad) {
  return {needs_input_grad[0] ? Tensor(inputs[0]->shape()) : Tensor()};
}

std::shared_ptr<Layer> ZeroStateLayer::Clone() const {
  return std::make_shared<ZeroStateLayer>(name_, dim_);
}

}  // namespace nn
}  // namespace nautilus

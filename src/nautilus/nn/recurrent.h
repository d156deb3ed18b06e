#ifndef NAUTILUS_NN_RECURRENT_H_
#define NAUTILUS_NN_RECURRENT_H_

#include <memory>
#include <string>
#include <vector>

#include "nautilus/nn/layer.h"
#include "nautilus/util/random.h"

namespace nautilus {
namespace nn {

/// Elman RNN cell: h' = tanh(x W_x + h W_h + b). Recurrent models have
/// cyclic structure, which the Nautilus formalization excludes; Section 2.5
/// prescribes unrolling them in time into a DAG — one graph node per step,
/// all sharing this cell instance (same UID, so a frozen pretrained cell's
/// unrolled prefix is still merged across candidate models).
class RnnCellLayer : public Layer {
 public:
  RnnCellLayer(std::string name, int64_t input_dim, int64_t hidden_dim,
               Rng* rng);

  std::string type_name() const override { return "RnnCell"; }
  int64_t hidden_dim() const { return hidden_dim_; }

  /// Inputs: {x_t [b, input_dim], h_prev [b, hidden_dim]}.
  Shape OutputShape(const std::vector<Shape>& inputs) const override;
  double ForwardFlopsPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  Tensor Forward(const std::vector<const Tensor*>& inputs,
                 std::unique_ptr<LayerCache>* cache) const override;
  std::vector<Tensor> Backward(
      const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
      const LayerCache& cache,
      const std::vector<bool>& needs_input_grad) override;
  std::vector<Parameter*> Params() override {
    return {&w_input_, &w_hidden_, &bias_};
  }
  std::shared_ptr<Layer> Clone() const override;

 private:
  RnnCellLayer(std::string name, int64_t input_dim, int64_t hidden_dim,
               Parameter wx, Parameter wh, Parameter b);

  int64_t input_dim_;
  int64_t hidden_dim_;
  Parameter w_input_;   // [input, hidden]
  Parameter w_hidden_;  // [hidden, hidden]
  Parameter bias_;      // [hidden]
};

/// Produces a zero initial hidden state [b, dim] from any batched input
/// (used as h_0 when unrolling). Parameter-free, hence frozen and
/// materializable wherever its parent is.
class ZeroStateLayer : public Layer {
 public:
  ZeroStateLayer(std::string name, int64_t dim)
      : Layer(std::move(name)), dim_(dim) {}

  std::string type_name() const override { return "ZeroState"; }
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
  int64_t dim_;
};

}  // namespace nn
}  // namespace nautilus

#endif  // NAUTILUS_NN_RECURRENT_H_

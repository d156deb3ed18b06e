#include "nautilus/nn/conv.h"

#include <cmath>

#include "nautilus/util/logging.h"

namespace nautilus {
namespace nn {

namespace {

int64_t ConvOutDim(int64_t in, int64_t kernel, int64_t stride, int64_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

double ConvFlops(int64_t oc, int64_t oh, int64_t ow, int64_t ic, int64_t k) {
  return 2.0 * static_cast<double>(oc) * static_cast<double>(oh) *
         static_cast<double>(ow) * static_cast<double>(ic) *
         static_cast<double>(k) * static_cast<double>(k);
}

}  // namespace

// ---------------------------------------------------------------------------
// ConvBlockLayer
// ---------------------------------------------------------------------------

namespace {

class ConvBlockCache : public LayerCache {
 public:
  Tensor conv_out;    // pre-affine
  Tensor affine_out;  // pre-relu (only saved when relu enabled)
  Tensor output;      // post-relu output (mask source)
};

}  // namespace

ConvBlockLayer::ConvBlockLayer(std::string name, int64_t in_channels,
                               int64_t out_channels, int64_t kernel,
                               int64_t stride, int64_t padding, bool relu,
                               Rng* rng)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      relu_(relu),
      weight_(MakeParam(
          name_ + ".W", Shape({out_channels, in_channels, kernel, kernel}),
          rng,
          std::sqrt(2.0f /
                    static_cast<float>(in_channels * kernel * kernel)))),
      scale_(MakeConstParam(name_ + ".scale", Shape({out_channels}), 1.0f)),
      shift_(MakeConstParam(name_ + ".shift", Shape({out_channels}), 0.0f)) {}

ConvBlockLayer::ConvBlockLayer(std::string name, int64_t in_channels,
                               int64_t out_channels, int64_t kernel,
                               int64_t stride, int64_t padding, bool relu,
                               Parameter weight, Parameter scale,
                               Parameter shift)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      relu_(relu),
      weight_(std::move(weight)),
      scale_(std::move(scale)),
      shift_(std::move(shift)) {}

Shape ConvBlockLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  const Shape& in = inputs[0];
  NAUTILUS_CHECK_EQ(in.rank(), 4);
  NAUTILUS_CHECK_EQ(in.dim(1), in_channels_);
  return Shape({in.dim(0), out_channels_,
                ConvOutDim(in.dim(2), kernel_, stride_, padding_),
                ConvOutDim(in.dim(3), kernel_, stride_, padding_)});
}

double ConvBlockLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  const Shape out = OutputShape({input_record_shapes[0]});
  const int64_t oh = out.dim(2);
  const int64_t ow = out.dim(3);
  double flops = ConvFlops(out_channels_, oh, ow, in_channels_, kernel_);
  flops += 3.0 * static_cast<double>(out.NumElements());  // affine + relu
  return flops;
}

double ConvBlockLayer::InternalActivationBytesPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  const Shape out = OutputShape({input_record_shapes[0]});
  // conv output and affine output retained for the backward pass.
  return 2.0 * static_cast<double>(out.NumElements()) * sizeof(float);
}

Tensor ConvBlockLayer::Forward(const std::vector<const Tensor*>& inputs,
                               std::unique_ptr<LayerCache>* cache) const {
  auto c = std::make_unique<ConvBlockCache>();
  c->conv_out = ops::Conv2DForward(*inputs[0], weight_.value, Tensor(),
                                   {.stride = stride_, .padding = padding_});
  Tensor y = ops::ChannelAffineForward(c->conv_out, scale_.value,
                                       shift_.value);
  if (relu_) {
    y = ops::ReluForward(y);
    c->output = y;
  }
  if (cache != nullptr) *cache = std::move(c);
  return y;
}

std::vector<Tensor> ConvBlockLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache& cache, const std::vector<bool>& needs_input_grad) {
  const auto& c = static_cast<const ConvBlockCache&>(cache);
  Tensor dy = grad_out;
  if (relu_) dy = ops::ReluBackward(grad_out, c.output);
  Tensor dconv, dscale, dshift;
  ops::ChannelAffineBackward(dy, c.conv_out, scale_.value, &dconv, &dscale,
                             &dshift);
  ops::AxpyInPlace(1.0f, dscale, &scale_.grad);
  ops::AxpyInPlace(1.0f, dshift, &shift_.grad);
  Tensor dx, dweight;
  ops::Conv2DBackward(dconv, *inputs[0], weight_.value,
                      {.stride = stride_, .padding = padding_},
                      needs_input_grad[0] ? &dx : nullptr, &dweight, nullptr);
  ops::AxpyInPlace(1.0f, dweight, &weight_.grad);
  return {dx};
}

std::shared_ptr<Layer> ConvBlockLayer::Clone() const {
  return std::shared_ptr<Layer>(new ConvBlockLayer(
      name_, in_channels_, out_channels_, kernel_, stride_, padding_, relu_,
      weight_, scale_, shift_));
}

// ---------------------------------------------------------------------------
// ResidualBlockLayer
// ---------------------------------------------------------------------------

namespace {

class ResidualCache : public LayerCache {
 public:
  Tensor c1, a1, r1;  // conv1 out, affine1 out (pre-relu), relu1 out
  Tensor c2, a2, r2;
  Tensor c3;          // conv3 out
  Tensor main3;       // affine3 out (main path into the add)
  Tensor skip_conv;   // projection conv out (if projecting)
  Tensor skip;        // skip path into the add
  Tensor sum;         // pre-final-relu
  Tensor output;      // post-final-relu
};

}  // namespace

ResidualBlockLayer::ResidualBlockLayer(std::string name, int64_t in_channels,
                                       int64_t mid_channels,
                                       int64_t out_channels, int64_t stride)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      mid_channels_(mid_channels),
      out_channels_(out_channels),
      stride_(stride) {}

ResidualBlockLayer::ResidualBlockLayer(std::string name, int64_t in_channels,
                                       int64_t mid_channels,
                                       int64_t out_channels, int64_t stride,
                                       Rng* rng)
    : ResidualBlockLayer(std::move(name), in_channels, mid_channels,
                         out_channels, stride) {
  auto conv = [&](const std::string& n, int64_t oc, int64_t ic, int64_t k) {
    params_.push_back(std::make_unique<Parameter>(
        MakeParam(name_ + "." + n, Shape({oc, ic, k, k}), rng,
                  std::sqrt(2.0f / static_cast<float>(ic * k * k)))));
    return params_.back().get();
  };
  auto vec = [&](const std::string& n, int64_t d, float fill) {
    params_.push_back(std::make_unique<Parameter>(
        MakeConstParam(name_ + "." + n, Shape({d}), fill)));
    return params_.back().get();
  };
  w1_ = conv("conv1.W", mid_channels_, in_channels_, 1);
  s1_ = vec("conv1.scale", mid_channels_, 1.0f);
  t1_ = vec("conv1.shift", mid_channels_, 0.0f);
  w2_ = conv("conv2.W", mid_channels_, mid_channels_, 3);
  s2_ = vec("conv2.scale", mid_channels_, 1.0f);
  t2_ = vec("conv2.shift", mid_channels_, 0.0f);
  w3_ = conv("conv3.W", out_channels_, mid_channels_, 1);
  s3_ = vec("conv3.scale", out_channels_, 1.0f);
  t3_ = vec("conv3.shift", out_channels_, 0.0f);
  if (has_projection()) {
    wp_ = conv("proj.W", out_channels_, in_channels_, 1);
    sp_ = vec("proj.scale", out_channels_, 1.0f);
    tp_ = vec("proj.shift", out_channels_, 0.0f);
  }
}

Shape ResidualBlockLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  const Shape& in = inputs[0];
  NAUTILUS_CHECK_EQ(in.rank(), 4);
  NAUTILUS_CHECK_EQ(in.dim(1), in_channels_);
  return Shape({in.dim(0), out_channels_,
                ConvOutDim(in.dim(2), 1, stride_, 0),
                ConvOutDim(in.dim(3), 1, stride_, 0)});
}

double ResidualBlockLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  const Shape& in = input_record_shapes[0];
  const int64_t h = in.dim(2);
  const int64_t w = in.dim(3);
  const int64_t oh = ConvOutDim(h, 1, stride_, 0);
  const int64_t ow = ConvOutDim(w, 1, stride_, 0);
  double flops = ConvFlops(mid_channels_, h, w, in_channels_, 1);
  flops += ConvFlops(mid_channels_, oh, ow, mid_channels_, 3);
  flops += ConvFlops(out_channels_, oh, ow, mid_channels_, 1);
  if (has_projection()) {
    flops += ConvFlops(out_channels_, oh, ow, in_channels_, 1);
  }
  // Affines, relus, add: ~4 ops per intermediate element.
  flops += 4.0 * static_cast<double>(oh * ow *
                                     (2 * mid_channels_ + 2 * out_channels_));
  return flops;
}

double ResidualBlockLayer::InternalActivationBytesPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  const Shape& in = input_record_shapes[0];
  const int64_t h = in.dim(2);
  const int64_t w = in.dim(3);
  const int64_t oh = ConvOutDim(h, 1, stride_, 0);
  const int64_t ow = ConvOutDim(w, 1, stride_, 0);
  // conv1 chain at input resolution, the rest at output resolution.
  double elems = 3.0 * static_cast<double>(mid_channels_ * h * w);
  elems += 3.0 * static_cast<double>(mid_channels_ * oh * ow);
  elems += 3.0 * static_cast<double>(out_channels_ * oh * ow);
  if (has_projection()) {
    elems += 2.0 * static_cast<double>(out_channels_ * oh * ow);
  }
  return elems * sizeof(float);
}

Tensor ResidualBlockLayer::Forward(const std::vector<const Tensor*>& inputs,
                                   std::unique_ptr<LayerCache>* cache) const {
  const Tensor& x = *inputs[0];
  auto c = std::make_unique<ResidualCache>();
  c->c1 = ops::Conv2DForward(x, w1_->value, Tensor(), {.stride = 1, .padding = 0});
  c->a1 = ops::ChannelAffineForward(c->c1, s1_->value, t1_->value);
  c->r1 = ops::ReluForward(c->a1);
  c->c2 = ops::Conv2DForward(c->r1, w2_->value, Tensor(),
                             {.stride = stride_, .padding = 1});
  c->a2 = ops::ChannelAffineForward(c->c2, s2_->value, t2_->value);
  c->r2 = ops::ReluForward(c->a2);
  c->c3 = ops::Conv2DForward(c->r2, w3_->value, Tensor(),
                             {.stride = 1, .padding = 0});
  c->main3 = ops::ChannelAffineForward(c->c3, s3_->value, t3_->value);
  if (has_projection()) {
    c->skip_conv = ops::Conv2DForward(x, wp_->value, Tensor(),
                                      {.stride = stride_, .padding = 0});
    c->skip = ops::ChannelAffineForward(c->skip_conv, sp_->value, tp_->value);
  } else {
    c->skip = x;
  }
  c->sum = ops::Add(c->main3, c->skip);
  c->output = ops::ReluForward(c->sum);
  Tensor y = c->output;
  if (cache != nullptr) *cache = std::move(c);
  return y;
}

std::vector<Tensor> ResidualBlockLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache& cache, const std::vector<bool>& needs_input_grad) {
  const Tensor& x = *inputs[0];
  const auto& c = static_cast<const ResidualCache&>(cache);
  const bool want_dx = needs_input_grad[0];
  Tensor dsum = ops::ReluBackward(grad_out, c.output);

  // Skip path.
  Tensor dx_skip;
  if (has_projection()) {
    Tensor dskip_conv, dsp, dtp;
    ops::ChannelAffineBackward(dsum, c.skip_conv, sp_->value, &dskip_conv,
                               &dsp, &dtp);
    ops::AxpyInPlace(1.0f, dsp, &sp_->grad);
    ops::AxpyInPlace(1.0f, dtp, &tp_->grad);
    Tensor dwp;
    ops::Conv2DBackward(dskip_conv, x, wp_->value,
                        {.stride = stride_, .padding = 0},
                        want_dx ? &dx_skip : nullptr, &dwp, nullptr);
    ops::AxpyInPlace(1.0f, dwp, &wp_->grad);
  } else if (want_dx) {
    dx_skip = dsum;
  }

  // Main path (backwards through conv3, conv2, conv1).
  Tensor dc3, ds3, dt3;
  ops::ChannelAffineBackward(dsum, c.c3, s3_->value, &dc3, &ds3, &dt3);
  ops::AxpyInPlace(1.0f, ds3, &s3_->grad);
  ops::AxpyInPlace(1.0f, dt3, &t3_->grad);
  Tensor dr2, dw3;
  ops::Conv2DBackward(dc3, c.r2, w3_->value, {.stride = 1, .padding = 0},
                      &dr2, &dw3, nullptr);
  ops::AxpyInPlace(1.0f, dw3, &w3_->grad);

  Tensor da2 = ops::ReluBackward(dr2, c.r2);
  Tensor dc2, ds2, dt2;
  ops::ChannelAffineBackward(da2, c.c2, s2_->value, &dc2, &ds2, &dt2);
  ops::AxpyInPlace(1.0f, ds2, &s2_->grad);
  ops::AxpyInPlace(1.0f, dt2, &t2_->grad);
  Tensor dr1, dw2;
  ops::Conv2DBackward(dc2, c.r1, w2_->value, {.stride = stride_, .padding = 1},
                      &dr1, &dw2, nullptr);
  ops::AxpyInPlace(1.0f, dw2, &w2_->grad);

  Tensor da1 = ops::ReluBackward(dr1, c.r1);
  Tensor dc1, ds1, dt1;
  ops::ChannelAffineBackward(da1, c.c1, s1_->value, &dc1, &ds1, &dt1);
  ops::AxpyInPlace(1.0f, ds1, &s1_->grad);
  ops::AxpyInPlace(1.0f, dt1, &t1_->grad);
  Tensor dx_main, dw1;
  ops::Conv2DBackward(dc1, x, w1_->value, {.stride = 1, .padding = 0},
                      want_dx ? &dx_main : nullptr, &dw1, nullptr);
  ops::AxpyInPlace(1.0f, dw1, &w1_->grad);
  if (!want_dx) return {Tensor()};

  ops::AxpyInPlace(1.0f, dx_skip, &dx_main);
  return {dx_main};
}

std::vector<Parameter*> ResidualBlockLayer::Params() {
  std::vector<Parameter*> out;
  out.reserve(params_.size());
  for (auto& p : params_) out.push_back(p.get());
  return out;
}

std::shared_ptr<Layer> ResidualBlockLayer::Clone() const {
  auto copy = std::shared_ptr<ResidualBlockLayer>(new ResidualBlockLayer(
      name_, in_channels_, mid_channels_, out_channels_, stride_));
  for (const auto& p : params_) {
    copy->params_.push_back(std::make_unique<Parameter>(*p));
  }
  size_t i = 0;
  copy->w1_ = copy->params_[i++].get();
  copy->s1_ = copy->params_[i++].get();
  copy->t1_ = copy->params_[i++].get();
  copy->w2_ = copy->params_[i++].get();
  copy->s2_ = copy->params_[i++].get();
  copy->t2_ = copy->params_[i++].get();
  copy->w3_ = copy->params_[i++].get();
  copy->s3_ = copy->params_[i++].get();
  copy->t3_ = copy->params_[i++].get();
  if (has_projection()) {
    copy->wp_ = copy->params_[i++].get();
    copy->sp_ = copy->params_[i++].get();
    copy->tp_ = copy->params_[i++].get();
  }
  return copy;
}

// ---------------------------------------------------------------------------
// MaxPoolLayer
// ---------------------------------------------------------------------------

namespace {

class MaxPoolLayerCache : public LayerCache {
 public:
  ops::MaxPoolCache cache;
};

}  // namespace

Shape MaxPoolLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  const Shape& in = inputs[0];
  NAUTILUS_CHECK_EQ(in.rank(), 4);
  return Shape({in.dim(0), in.dim(1), in.dim(2) / kernel_,
                in.dim(3) / kernel_});
}

double MaxPoolLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  return static_cast<double>(input_record_shapes[0].NumElements());
}

Tensor MaxPoolLayer::Forward(const std::vector<const Tensor*>& inputs,
                             std::unique_ptr<LayerCache>* cache) const {
  auto c = std::make_unique<MaxPoolLayerCache>();
  Tensor y = ops::MaxPool2DForward(*inputs[0], kernel_, &c->cache);
  if (cache != nullptr) *cache = std::move(c);
  return y;
}

std::vector<Tensor> MaxPoolLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache& cache, const std::vector<bool>& needs_input_grad) {
  if (!needs_input_grad[0]) return {Tensor()};
  const auto& c = static_cast<const MaxPoolLayerCache&>(cache);
  return {ops::MaxPool2DBackward(grad_out, inputs[0]->shape(), c.cache)};
}

std::shared_ptr<Layer> MaxPoolLayer::Clone() const {
  return std::make_shared<MaxPoolLayer>(name_, kernel_);
}

// ---------------------------------------------------------------------------
// GlobalAvgPoolLayer
// ---------------------------------------------------------------------------

Shape GlobalAvgPoolLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  const Shape& in = inputs[0];
  NAUTILUS_CHECK_EQ(in.rank(), 4);
  return Shape({in.dim(0), in.dim(1)});
}

double GlobalAvgPoolLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  return static_cast<double>(input_record_shapes[0].NumElements());
}

Tensor GlobalAvgPoolLayer::Forward(const std::vector<const Tensor*>& inputs,
                                   std::unique_ptr<LayerCache>* cache) const {
  if (cache != nullptr) cache->reset();
  return ops::GlobalAvgPool(*inputs[0]);
}

std::vector<Tensor> GlobalAvgPoolLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache&, const std::vector<bool>& needs_input_grad) {
  if (!needs_input_grad[0]) return {Tensor()};
  return {ops::GlobalAvgPoolBackward(grad_out, inputs[0]->shape())};
}

std::shared_ptr<Layer> GlobalAvgPoolLayer::Clone() const {
  return std::make_shared<GlobalAvgPoolLayer>(name_);
}

}  // namespace nn
}  // namespace nautilus

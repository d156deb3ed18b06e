#ifndef NAUTILUS_NN_LAYER_H_
#define NAUTILUS_NN_LAYER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nautilus/tensor/fused_ops.h"
#include "nautilus/tensor/shape.h"
#include "nautilus/tensor/tensor.h"

namespace nautilus {
namespace nn {

/// A trainable tensor with its gradient accumulator. In profile-only mode
/// (below) the value/grad storage is left unallocated — the shape alone
/// drives the optimizer's cost model — and such layers must never be
/// executed.
struct Parameter {
  std::string name;
  Shape shape;
  Tensor value;
  Tensor grad;

  Parameter(std::string n, Tensor v)
      : name(std::move(n)), shape(v.shape()), value(std::move(v)),
        grad(shape) {}

  /// Shape-only stub for profile-only graphs.
  Parameter(std::string n, Shape s) : name(std::move(n)), shape(std::move(s)) {}

  bool IsStub() const { return value.empty() && shape.NumElements() > 0; }
  int64_t NumElements() const { return shape.NumElements(); }
  void ZeroGrad() {
    if (!grad.empty()) grad.SetZero();
  }
};

/// When true, newly constructed layers allocate no parameter storage; they
/// can be profiled (shapes, FLOPs, byte sizes) but not executed. Used to
/// build paper-scale model-selection workloads (e.g. 36 BERT-base
/// candidates) without gigabytes of weights.
bool ProfileOnlyMode();
void SetProfileOnlyMode(bool enabled);

/// RAII toggle for profile-only construction.
class ProfileOnlyScope {
 public:
  explicit ProfileOnlyScope(bool enabled = true)
      : prev_(ProfileOnlyMode()) {
    SetProfileOnlyMode(enabled);
  }
  ~ProfileOnlyScope() { SetProfileOnlyMode(prev_); }
  ProfileOnlyScope(const ProfileOnlyScope&) = delete;
  ProfileOnlyScope& operator=(const ProfileOnlyScope&) = delete;

 private:
  bool prev_;
};

/// Normal-initialized parameter, or a shape stub in profile-only mode.
Parameter MakeParam(std::string name, const Shape& shape, Rng* rng,
                    float stddev);
/// Constant-filled parameter, or a shape stub in profile-only mode.
Parameter MakeConstParam(std::string name, const Shape& shape, float fill);

/// Opaque per-invocation state a layer saves in Forward for use in Backward
/// (e.g. attention probabilities, pooling argmax indices).
class LayerCache {
 public:
  virtual ~LayerCache() = default;
};

/// Returns a fresh process-unique expression UID. Layers receive one at
/// construction; a UID identifies a layer *function* (type, configuration,
/// and parameter values) for the multi-model-graph merge (Definition 4.3 of
/// the Nautilus paper). Shared pretrained layer instances keep one UID across
/// all candidate models; cloned (to-be-trained) copies get fresh UIDs since
/// their parameters diverge during training.
uint64_t NextLayerUid();

/// Abstract DAG layer (Definition 2.1): a function from a list of
/// fixed-shape input tensors to one output tensor, with optional trainable
/// parameters and an analytic cost/size profile.
///
/// Layers are stateless across invocations: Forward writes any
/// backward-needed state into the returned cache rather than into the layer,
/// so one instance can be safely shared by many model graphs.
class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)),
                                     uid_(NextLayerUid()) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  const std::string& name() const { return name_; }
  uint64_t uid() const { return uid_; }

  virtual std::string type_name() const = 0;

  /// Output shape for the given input shapes (batch dimension included).
  virtual Shape OutputShape(const std::vector<Shape>& inputs) const = 0;

  /// Analytic forward-pass cost for one record, in FLOPs. This is the
  /// profile quantity the paper's cost model scales by 1x/2x/3x depending on
  /// freezing (Section 4.1).
  virtual double ForwardFlopsPerRecord(
      const std::vector<Shape>& input_record_shapes) const = 0;

  /// Bytes of *internal* activation tensors one record produces inside a
  /// composite layer, in addition to the output tensor itself. Used by the
  /// live-tensor peak-memory analysis (Section 4.3.3), which charges
  /// composite layers the sum of their child outputs. Zero for basic layers.
  virtual double InternalActivationBytesPerRecord(
      const std::vector<Shape>& input_record_shapes) const {
    (void)input_record_shapes;
    return 0.0;
  }

  /// Runs the layer on a batch. `cache` receives backward-pass state and may
  /// be dropped by inference-only callers.
  virtual Tensor Forward(const std::vector<const Tensor*>& inputs,
                         std::unique_ptr<LayerCache>* cache) const = 0;

  /// Reduced-precision forward honoring quant::GlobalQuantMode(). The
  /// executor routes a node here only when it is FROZEN and no gradient ever
  /// reaches it (so no backward cache is needed); training semantics are
  /// untouched. The default falls back to the f32 Forward — only layers with
  /// a profitable quantized implementation (DenseLayer, and
  /// TransformerBlockLayer for its six dense projections) override it.
  virtual Tensor ForwardQuantized(
      const std::vector<const Tensor*>& inputs) const {
    return Forward(inputs, nullptr);
  }

  /// Fusibility hook for the operator-fusion planner: when the layer is a
  /// row-local elementwise/reduction op the fused-chain interpreter can
  /// execute, fills `op` and returns true. The OpDesc references (never
  /// copies) layer state — LayerNorm hands out its parameter values and
  /// gradient accumulators — which is why the hook is non-const. The default
  /// (opaque layer) returns false and fences fusion regions.
  virtual bool DescribeFusedOp(fused::OpDesc* op) {
    (void)op;
    return false;
  }

  /// Back-propagates `grad_out`, accumulating parameter gradients in place
  /// and returning one gradient per input. Entry k is empty when
  /// `needs_input_grad[k]` is false: nobody reads it (the input comes from
  /// a frozen or materialized feature), so layers whose input gradient is
  /// costly skip computing it. Parameter gradients never depend on it.
  virtual std::vector<Tensor> Backward(
      const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
      const LayerCache& cache, const std::vector<bool>& needs_input_grad) = 0;

  /// Trainable parameters (empty for parameter-free layers).
  virtual std::vector<Parameter*> Params() { return {}; }

  /// Deep copy with identical parameter values but a fresh UID. Used when a
  /// pretrained layer is unfrozen inside one candidate model: the copy can
  /// train without corrupting the shared pretrained weights.
  virtual std::shared_ptr<Layer> Clone() const = 0;

  int64_t ParamCount() {
    int64_t n = 0;
    for (Parameter* p : Params()) n += p->NumElements();
    return n;
  }

  double ParamBytes() {
    return static_cast<double>(ParamCount()) * sizeof(float);
  }

  void ZeroGrads() {
    for (Parameter* p : Params()) p->ZeroGrad();
  }

 protected:
  /// Clone support: copies name, allocates a fresh UID (done by the Layer
  /// constructor invoked by subclasses' Clone implementations).
  std::string name_;

 private:
  uint64_t uid_;
};

using LayerPtr = std::shared_ptr<Layer>;

}  // namespace nn
}  // namespace nautilus

#endif  // NAUTILUS_NN_LAYER_H_

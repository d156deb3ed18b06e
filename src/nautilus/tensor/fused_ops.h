#ifndef NAUTILUS_TENSOR_FUSED_OPS_H_
#define NAUTILUS_TENSOR_FUSED_OPS_H_

#include <cstdint>
#include <vector>

#include "nautilus/tensor/tensor.h"

namespace nautilus {
namespace fused {

// ---------------------------------------------------------------------------
// Process-wide fusion gate
// ---------------------------------------------------------------------------

/// Whether the executor plans and runs fused operator chains. Initialized
/// from NAUTILUS_FUSION ("1"/"on" enables, default off) on first use;
/// SetFusionEnabled (the --fusion CLI flag) overrides it. With fusion off
/// every node is its own scheduling unit in the executor's wavefront.
bool FusionEnabled();
void SetFusionEnabled(bool enabled);

/// RAII override for tests and benches.
class ScopedFusion {
 public:
  explicit ScopedFusion(bool enabled) : prev_(FusionEnabled()) {
    SetFusionEnabled(enabled);
  }
  ~ScopedFusion() { SetFusionEnabled(prev_); }
  ScopedFusion(const ScopedFusion&) = delete;
  ScopedFusion& operator=(const ScopedFusion&) = delete;

 private:
  bool prev_;
};

// ---------------------------------------------------------------------------
// Fused-chain IR
// ---------------------------------------------------------------------------
//
// A fused region is a straight-line chain of row-local ops: every output row
// depends only on the corresponding input row(s), so the chain executes tile
// by tile — one cache-blocked pass over the activations instead of one full
// memory round trip per op. The interpreter reproduces the exact per-row
// scalar arithmetic of the unfused kernels in ops.cc (same expressions, same
// sequential accumulation orders, same 256-row reduction chunking), so fused
// results are bitwise identical to unfused at every thread count.

enum class OpKind {
  kAddN,          // elementwise sum over parent slots (residual adds)
  kRelu,
  kGelu,
  kTanh,
  kLayerNorm,     // row reduction: mean/var normalize + affine
  kSoftmax,       // row reduction: max/exp/normalize
  kMeanPool,      // sequence reduction [b, s, h] -> [b, h]; terminal only
};

const char* OpKindName(OpKind kind);

/// One fused op. Layer-specific state (LayerNorm parameters and gradient
/// accumulators) is referenced, not owned: the nn::Layer that described the
/// op outlives the plan via the graph's shared layer pointers.
struct OpDesc {
  OpKind kind = OpKind::kAddN;
  /// Number of parent slots (>= 2 for kAddN, 1 otherwise). Matches the
  /// per-op input vectors handed to ChainForward/ChainBackward.
  int num_inputs = 1;
  // kLayerNorm only.
  const Tensor* gamma = nullptr;
  const Tensor* beta = nullptr;
  Tensor* dgamma_acc = nullptr;  // += dgamma in backward (may be null)
  Tensor* dbeta_acc = nullptr;   // += dbeta in backward (may be null)
  float eps = 0.0f;
};

/// An executable fused chain. ops[0] is the head (all inputs external);
/// each later op consumes the previous op's value through exactly one slot
/// plus optional external residual inputs. kMeanPool may only appear last.
struct ChainPlan {
  std::vector<OpDesc> ops;
  /// Row-tile granularity. Must be a multiple of 256 (the fixed reduction
  /// chunk size of ops.cc) whenever the chain contains a kLayerNorm, and a
  /// multiple of the sequence length whenever it ends in kMeanPool, so tiled
  /// reductions reproduce the unfused chunk partials exactly.
  int64_t tile_rows = 256;
};

/// Estimated bytes of intermediate traffic a fused execution of `plan`
/// avoids, for `rows` chain rows of `cols` floats: every non-terminal op's
/// output is neither written to nor re-read from memory.
double ChainSavedBytes(const ChainPlan& plan, int64_t rows, int64_t cols);

/// Runs the chain forward in one tiled pass. `inputs[i]` holds one entry per
/// slot of ops[i]; nullptr marks the slot fed by the chain value (exactly one
/// nullptr per op for i > 0, none for the head). All external inputs share
/// the chain shape (head inputs define it). Bitwise identical to running the
/// unfused kernels node by node.
Tensor ChainForward(const ChainPlan& plan,
                    const std::vector<std::vector<const Tensor*>>& inputs);

/// Backward of ChainForward in one tiled pass. Rather than materializing
/// per-op caches in forward, the tile's intermediate values are recomputed
/// from the (still live) external inputs — identical bits, and the chain
/// stays a single memory pass in both directions. `grad_out` is the gradient
/// of the chain output; ops with index < `stop_op` carry no gradient (the
/// needs-grad frontier) and are neither backpropped nor charged.
///
/// `input_grads` receives, for every op i >= stop_op and every external slot,
/// the full gradient tensor w.r.t. that input (chain slots stay empty); the
/// values match what the unfused Layer::Backward calls would produce.
/// LayerNorm parameter gradients accumulate into dgamma_acc/dbeta_acc with
/// the unfused kernels' 256-row chunk partials merged in ascending order.
void ChainBackward(const ChainPlan& plan,
                   const std::vector<std::vector<const Tensor*>>& inputs,
                   const Tensor& grad_out, int stop_op,
                   std::vector<std::vector<Tensor>>* input_grads);

}  // namespace fused
}  // namespace nautilus

#endif  // NAUTILUS_TENSOR_FUSED_OPS_H_

#ifndef NAUTILUS_TENSOR_OPS_H_
#define NAUTILUS_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "nautilus/tensor/gemm.h"
#include "nautilus/tensor/quant.h"
#include "nautilus/tensor/tensor.h"

namespace nautilus {
namespace ops {

// ---------------------------------------------------------------------------
// Dense linear algebra. The matmul family is backed by the cache-blocked
// SIMD GEMM in gemm.h; all variants are bitwise deterministic across thread
// counts.
// ---------------------------------------------------------------------------

/// C = A[m,k] * B[k,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = A[m,k] * B[n,k]^T -> [m,n]. Used for dL/dX = dY * W^T.
Tensor MatMulNT(const Tensor& a, const Tensor& b);

/// C = A[k,m]^T * B[k,n] -> [m,n]. Used for dL/dW = X^T * dY.
Tensor MatMulTN(const Tensor& a, const Tensor& b);

/// Fused dense-layer forward: act(x * w + bias) in one pass over the output
/// (GEMM epilogue), where x is viewed as [rows, in], w is [in, out] and bias
/// is [out]. `epilogue` selects the activation (kNone is treated as kBias:
/// the bias is always applied). When `pre_activation` is non-null it is
/// overwritten with z = x*w + bias [rows, out] for backward passes that need
/// the pre-activation (GELU).
Tensor DenseForward(const Tensor& x, const Tensor& w, const Tensor& bias,
                    EpilogueKind epilogue, Tensor* pre_activation = nullptr);

/// Quantized dense-layer forward for FROZEN layers: x is absmax-quantized
/// per row on the fly, multiplied against the pre-quantized per-channel
/// weights `w` by the packed int8 GEMM, and dequant + bias + activation are
/// fused into the epilogue. Same signature semantics as DenseForward.
/// Bitwise deterministic across thread counts and SIMD dispatch (exact
/// integer accumulation); accuracy differs from DenseForward by the
/// quantization error, so callers gate it on quant::GlobalQuantMode().
Tensor QuantizedDenseForward(const Tensor& x, const quant::QuantizedMatrix& w,
                             const Tensor& bias, EpilogueKind epilogue,
                             Tensor* pre_activation = nullptr);

/// Elementwise f32 -> f16 -> f32 round trip (the f16 storage/compute
/// simulation: ~3 decimal digits of mantissa survive).
Tensor RoundTripF16(const Tensor& x);

/// Adds bias[n] to every row of x[m,n] in place.
void AddBiasInPlace(Tensor* x, const Tensor& bias);

/// Column sums of g[m,n] -> [n]. Gradient of a broadcast bias.
Tensor ColumnSum(const Tensor& g);

// ---------------------------------------------------------------------------
// Elementwise.
// ---------------------------------------------------------------------------

/// out = a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise sum of all inputs (same shape, >= 1 input).
Tensor AddN(const std::vector<const Tensor*>& xs);

/// y += alpha * x.
void AxpyInPlace(float alpha, const Tensor& x, Tensor* y);

/// x *= alpha.
void ScaleInPlace(float alpha, Tensor* x);

Tensor ReluForward(const Tensor& x);
/// dx from dy and the forward *output* y (relu gradient mask is y > 0).
Tensor ReluBackward(const Tensor& dy, const Tensor& y);

/// Tanh-approximation GELU.
Tensor GeluForward(const Tensor& x);
/// dx from dy and the forward *input* x.
Tensor GeluBackward(const Tensor& dy, const Tensor& x);

Tensor TanhForward(const Tensor& x);
/// dx from dy and the forward output y.
Tensor TanhBackward(const Tensor& dy, const Tensor& y);

// ---------------------------------------------------------------------------
// Normalization.
// ---------------------------------------------------------------------------

struct LayerNormCache {
  Tensor normalized;  // (x - mean) * rstd, shape of x
  std::vector<float> rstd;  // one per row
};

/// Layer normalization over the last dimension of x (viewed as [rows, n]),
/// with per-feature gain/bias. Fills `cache` for the backward pass.
Tensor LayerNormForward(const Tensor& x, const Tensor& gamma,
                        const Tensor& beta, float eps, LayerNormCache* cache);

/// Backward of LayerNormForward. Outputs dgamma/dbeta accumulated over rows.
void LayerNormBackward(const Tensor& dy, const Tensor& gamma,
                       const LayerNormCache& cache, Tensor* dx, Tensor* dgamma,
                       Tensor* dbeta);

// ---------------------------------------------------------------------------
// Softmax / losses.
// ---------------------------------------------------------------------------

/// Row-wise softmax of logits [m, c].
Tensor SoftmaxForward(const Tensor& logits);

/// Backward of SoftmaxForward given its output `y`:
/// dx_j = y_j * (dy_j - sum_k dy_k y_k). The per-row dot product accumulates
/// sequentially in ascending column order (row-parallel, deterministic).
Tensor SoftmaxBackward(const Tensor& dy, const Tensor& y);

/// Mean cross-entropy of row-softmax probabilities vs integer labels, plus
/// the gradient w.r.t. logits ((p - onehot) / m).
float SoftmaxCrossEntropy(const Tensor& probs,
                          const std::vector<int32_t>& labels, Tensor* dlogits);

/// Fraction of rows whose argmax equals the label.
float Accuracy(const Tensor& probs, const std::vector<int32_t>& labels);

// ---------------------------------------------------------------------------
// Embedding.
// ---------------------------------------------------------------------------

/// ids [b, s] (integer-valued floats) gathered from table [vocab, h] into
/// [b, s, h].
Tensor EmbeddingForward(const Tensor& ids, const Tensor& table);

/// Scatter-adds dy [b, s, h] into dtable [vocab, h] at the id rows.
void EmbeddingBackward(const Tensor& ids, const Tensor& dy, Tensor* dtable);

// ---------------------------------------------------------------------------
// Sequence reductions / reshaping.
// ---------------------------------------------------------------------------

/// Mean over the sequence axis: [b, s, h] -> [b, h].
Tensor MeanPoolSeq(const Tensor& x);
Tensor MeanPoolSeqBackward(const Tensor& dy, const Shape& x_shape);

/// Takes the feature vector at `position` along the sequence axis:
/// [b, s, h] -> [b, h]. Position may be negative (from the end).
Tensor SelectSeqPosition(const Tensor& x, int64_t position);
Tensor SelectSeqPositionBackward(const Tensor& dy, const Shape& x_shape,
                                 int64_t position);

/// Concatenation along the last dimension.
Tensor ConcatLastDim(const std::vector<const Tensor*>& xs);
/// Splits dy back into pieces with last-dims `sizes`.
std::vector<Tensor> SplitLastDim(const Tensor& dy,
                                 const std::vector<int64_t>& sizes);

// ---------------------------------------------------------------------------
// Attention (used by the transformer block).
// ---------------------------------------------------------------------------

struct AttentionCache {
  Tensor probs;  // [b, heads, s, s] post-softmax attention weights
};

/// Optional attention mask. `causal` restricts query position i to key
/// positions j <= i; `valid_lens` (when non-null, one entry per batch
/// element) additionally restricts to j < valid_lens[bi] (padding mask).
/// A fully-masked query row emits zeros (never NaN), and its cached
/// probability row is all zeros, so the backward pass sends it no gradient.
struct AttentionMask {
  bool causal = false;
  const int64_t* valid_lens = nullptr;  // [b] or null (= all keys valid)
};

/// Scaled dot-product attention. q, k, v are [b, heads, s, dh]; returns
/// [b, heads, s, dh] and fills the cache for the backward pass. With a null
/// mask every key position is visible (the historical behavior, bitwise).
Tensor AttentionForward(const Tensor& q, const Tensor& k, const Tensor& v,
                        AttentionCache* cache,
                        const AttentionMask* mask = nullptr);

/// Cache-free inference attention: bitwise-identical arithmetic to
/// AttentionForward but never materializes the O(b*heads*s^2) probability
/// tensor — each query row softmaxes in a per-task scratch. For forwards no
/// backward pass will ever visit (frozen/serving paths).
Tensor AttentionInference(const Tensor& q, const Tensor& k, const Tensor& v,
                          const AttentionMask* mask = nullptr);

/// One query row attending to the first `len` cached K/V positions (the
/// KV-cache serving step). The positions live in fixed-size pages of
/// `page_rows` positions each: `k_pages[p]` / `v_pages[p]` point at the base
/// of page p's storage, and position j resolves to
/// `k_pages[j / page_rows] + head_offset + (j % page_rows) * dh` (the
/// head_offset selects one head's [page_rows, dh] plane inside a
/// [heads, page_rows, dh] page). `q_row` and `out_row` are [dh]; `scratch`
/// holds >= len floats. Funnels through the same per-row kernel, in the same
/// ascending-j order, as AttentionForward, so the result is bitwise-equal to
/// query row `len-1` of a causal AttentionForward over the gathered rows —
/// the page size never perturbs serving output. len == 0 emits zeros.
void AttentionDecodeRowPaged(const float* q_row, const float* const* k_pages,
                             const float* const* v_pages, int64_t head_offset,
                             int64_t len, int64_t page_rows, int64_t dh,
                             float* scratch, float* out_row);

/// Backward of AttentionForward.
void AttentionBackward(const Tensor& dy, const Tensor& q, const Tensor& k,
                       const Tensor& v, const AttentionCache& cache,
                       Tensor* dq, Tensor* dk, Tensor* dv);

/// [b, s, heads*dh] -> [b, heads, s, dh] and back.
Tensor SplitHeads(const Tensor& x, int64_t heads);
Tensor MergeHeads(const Tensor& x);

// ---------------------------------------------------------------------------
// Convolutional kernels (used by the ResNet-like model).
// ---------------------------------------------------------------------------

struct Conv2DArgs {
  int64_t stride = 1;
  int64_t padding = 0;
};

/// x [b, c, h, w] convolved with w [oc, c, kh, kw] (+ bias [oc]) ->
/// [b, oc, oh, ow].
Tensor Conv2DForward(const Tensor& x, const Tensor& weight, const Tensor& bias,
                     const Conv2DArgs& args);

/// Backward of Conv2DForward; any of dx/dweight/dbias may be null to skip.
void Conv2DBackward(const Tensor& dy, const Tensor& x, const Tensor& weight,
                    const Conv2DArgs& args, Tensor* dx, Tensor* dweight,
                    Tensor* dbias);

struct MaxPoolCache {
  std::vector<int64_t> argmax;  // flat input index per output element
};

/// 2x2 / kxk max pooling with stride == kernel.
Tensor MaxPool2DForward(const Tensor& x, int64_t kernel, MaxPoolCache* cache);
Tensor MaxPool2DBackward(const Tensor& dy, const Shape& x_shape,
                         const MaxPoolCache& cache);

/// [b, c, h, w] -> [b, c] (mean over spatial dims).
Tensor GlobalAvgPool(const Tensor& x);
Tensor GlobalAvgPoolBackward(const Tensor& dy, const Shape& x_shape);

/// Per-channel affine y = x * scale[c] + shift[c] for [b, c, h, w] tensors.
/// Stands in for batch-norm with frozen statistics (standard in fine-tuning).
Tensor ChannelAffineForward(const Tensor& x, const Tensor& scale,
                            const Tensor& shift);
void ChannelAffineBackward(const Tensor& dy, const Tensor& x,
                           const Tensor& scale, Tensor* dx, Tensor* dscale,
                           Tensor* dshift);

}  // namespace ops
}  // namespace nautilus

#endif  // NAUTILUS_TENSOR_OPS_H_

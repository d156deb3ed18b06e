#include "nautilus/tensor/fused_ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "nautilus/tensor/activation.h"
#include "nautilus/tensor/ops.h"
#include "nautilus/util/logging.h"
#include "nautilus/util/parallel.h"

namespace nautilus {
namespace fused {

namespace {

// Must stay equal to ops.cc's kReduceChunkRows: the fused LayerNorm backward
// reproduces the unfused kernel's fixed-size chunk partials bit for bit.
constexpr int64_t kChunkRows = 256;

bool ResolveInitialEnabled() {
  if (const char* env = std::getenv("NAUTILUS_FUSION")) {
    const std::string v(env);
    return !(v == "0" || v == "off" || v.empty());
  }
  return false;
}

std::atomic<bool>& EnabledSlot() {
  static std::atomic<bool> enabled{ResolveInitialEnabled()};
  return enabled;
}

struct ChainDims {
  int64_t rows = 0;  // chain rows (product of all dims but the last)
  int64_t cols = 0;  // feature width (last dim)
  int64_t seq = 1;   // sequence length when the chain ends in kMeanPool
  bool mean_pool = false;
};

ChainDims ResolveDims(const ChainPlan& plan, const Shape& in_shape) {
  ChainDims d;
  NAUTILUS_CHECK(!plan.ops.empty());
  NAUTILUS_CHECK_GE(in_shape.rank(), 1);
  d.cols = in_shape.dim(in_shape.rank() - 1);
  d.rows = in_shape.NumElements() / d.cols;
  d.mean_pool = plan.ops.back().kind == OpKind::kMeanPool;
  if (d.mean_pool) {
    NAUTILUS_CHECK_EQ(in_shape.rank(), 3) << "MeanPool chain needs [b, s, h]";
    d.seq = in_shape.dim(1);
    NAUTILUS_CHECK_EQ(plan.tile_rows % d.seq, 0)
        << "tile must hold whole records";
  }
  for (size_t i = 0; i + 1 < plan.ops.size(); ++i) {
    NAUTILUS_CHECK(plan.ops[i].kind != OpKind::kMeanPool)
        << "kMeanPool is terminal-only";
    if (plan.ops[i].kind == OpKind::kLayerNorm) {
      NAUTILUS_CHECK_EQ(plan.tile_rows % kChunkRows, 0)
          << "tile must align to reduction chunks";
    }
  }
  if (plan.ops.back().kind == OpKind::kLayerNorm) {
    NAUTILUS_CHECK_EQ(plan.tile_rows % kChunkRows, 0);
  }
  return d;
}

// Per-op LayerNorm recompute state for one tile (backward only).
struct TileAux {
  std::vector<float> normalized;  // rows_t * cols
  std::vector<float> rstd;        // rows_t
};

// Computes one op's output for a [rows_t, cols] tile. `srcs` has one pointer
// per slot; `dst` receives rows_t * cols floats (rows_t / seq rows for
// kMeanPool). Arithmetic matches the unfused kernels in ops.cc exactly.
void OpForwardTile(const OpDesc& op, const std::vector<const float*>& srcs,
                   float* dst, int64_t rows_t, int64_t cols, int64_t seq,
                   TileAux* aux) {
  const int64_t n = rows_t * cols;
  switch (op.kind) {
    case OpKind::kAddN: {
      // ops::AddN: copy slot 0, then += each later slot in ascending order.
      std::memcpy(dst, srcs[0], static_cast<size_t>(n) * sizeof(float));
      for (size_t s = 1; s < srcs.size(); ++s) {
        const float* src = srcs[s];
        for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
      }
      break;
    }
    case OpKind::kRelu: {
      const float* src = srcs[0];
      for (int64_t i = 0; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
      break;
    }
    case OpKind::kGelu:
      ops::GeluBatch(srcs[0], dst, n);
      break;
    case OpKind::kTanh:
      ops::TanhBatch(srcs[0], dst, n);
      break;
    case OpKind::kLayerNorm: {
      const float* src = srcs[0];
      const float* pg = op.gamma->data();
      const float* pb = op.beta->data();
      if (aux != nullptr) {
        aux->normalized.resize(static_cast<size_t>(n));
        aux->rstd.resize(static_cast<size_t>(rows_t));
      }
      for (int64_t i = 0; i < rows_t; ++i) {
        const float* row = src + i * cols;
        float mean = 0.0f;
        for (int64_t j = 0; j < cols; ++j) mean += row[j];
        mean /= static_cast<float>(cols);
        float var = 0.0f;
        for (int64_t j = 0; j < cols; ++j) {
          const float d = row[j] - mean;
          var += d * d;
        }
        var /= static_cast<float>(cols);
        const float rstd = 1.0f / std::sqrt(var + op.eps);
        if (aux != nullptr) aux->rstd[static_cast<size_t>(i)] = rstd;
        float* drow = dst + i * cols;
        float* nrow =
            aux != nullptr ? aux->normalized.data() + i * cols : nullptr;
        for (int64_t j = 0; j < cols; ++j) {
          const float nv = (row[j] - mean) * rstd;
          if (nrow != nullptr) nrow[j] = nv;
          drow[j] = nv * pg[j] + pb[j];
        }
      }
      break;
    }
    case OpKind::kSoftmax: {
      const float* src = srcs[0];
      for (int64_t i = 0; i < rows_t; ++i) {
        const float* row = src + i * cols;
        float* drow = dst + i * cols;
        float mx = -std::numeric_limits<float>::infinity();
        for (int64_t j = 0; j < cols; ++j) mx = std::max(mx, row[j]);
        float sum = 0.0f;
        for (int64_t j = 0; j < cols; ++j) {
          drow[j] = std::exp(row[j] - mx);
          sum += drow[j];
        }
        const float inv = 1.0f / sum;
        for (int64_t j = 0; j < cols; ++j) drow[j] *= inv;
      }
      break;
    }
    case OpKind::kMeanPool: {
      const float* src = srcs[0];
      const int64_t records = rows_t / seq;
      const float inv_s = 1.0f / static_cast<float>(seq);
      for (int64_t i = 0; i < records; ++i) {
        float* orow = dst + i * cols;
        std::memcpy(orow, src + i * seq * cols,
                    static_cast<size_t>(cols) * sizeof(float));
        for (int64_t t = 1; t < seq; ++t) {
          const float* row = src + (i * seq + t) * cols;
          for (int64_t j = 0; j < cols; ++j) orow[j] += row[j];
        }
        for (int64_t j = 0; j < cols; ++j) orow[j] *= inv_s;
      }
      break;
    }
  }
}

// Resolves the per-slot source pointers of op i for chain rows [r0, r1):
// external slots point into their full tensors, the chain slot (nullptr in
// `inputs`) points at the previous op's staging tile.
std::vector<const float*> OpSources(
    const std::vector<const Tensor*>& op_inputs, const float* chain,
    int64_t r0, int64_t cols) {
  std::vector<const float*> srcs;
  srcs.reserve(op_inputs.size());
  for (const Tensor* t : op_inputs) {
    srcs.push_back(t != nullptr ? t->data() + r0 * cols : chain);
  }
  return srcs;
}

}  // namespace

bool FusionEnabled() {
  return EnabledSlot().load(std::memory_order_relaxed);
}

void SetFusionEnabled(bool enabled) {
  EnabledSlot().store(enabled, std::memory_order_relaxed);
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kAddN:
      return "addn";
    case OpKind::kRelu:
      return "relu";
    case OpKind::kGelu:
      return "gelu";
    case OpKind::kTanh:
      return "tanh";
    case OpKind::kLayerNorm:
      return "layernorm";
    case OpKind::kSoftmax:
      return "softmax";
    case OpKind::kMeanPool:
      return "meanpool";
  }
  return "?";
}

double ChainSavedBytes(const ChainPlan& plan, int64_t rows, int64_t cols) {
  // Every non-terminal op's output tensor is neither written nor re-read:
  // one write + one read of rows * cols floats saved per fused edge.
  const double interior = static_cast<double>(plan.ops.size()) - 1.0;
  return interior * 2.0 * static_cast<double>(rows) *
         static_cast<double>(cols) * static_cast<double>(Tensor::kElementBytes);
}

Tensor ChainForward(const ChainPlan& plan,
                    const std::vector<std::vector<const Tensor*>>& inputs) {
  NAUTILUS_CHECK_EQ(inputs.size(), plan.ops.size());
  NAUTILUS_CHECK(!inputs[0].empty());
  NAUTILUS_CHECK(inputs[0][0] != nullptr);
  const Shape in_shape = inputs[0][0]->shape();
  const ChainDims d = ResolveDims(plan, in_shape);
  const size_t k = plan.ops.size();

  Shape out_shape = d.mean_pool ? Shape({in_shape.dim(0), d.cols}) : in_shape;
  Tensor out = Tensor::Uninitialized(out_shape);
  float* pout = out.data();

  const int64_t tile = plan.tile_rows;
  const int64_t ntiles = (d.rows + tile - 1) / tile;
  ParallelFor(ntiles, [&](int64_t tb, int64_t te) {
    for (int64_t t = tb; t < te; ++t) {
      const int64_t r0 = t * tile;
      const int64_t r1 = std::min(d.rows, r0 + tile);
      const int64_t rows_t = r1 - r0;
      // One staging tile per producer op; the pool recycles them per tile.
      Tensor staging_a;
      Tensor staging_b;
      const float* chain = nullptr;
      for (size_t i = 0; i < k; ++i) {
        const bool last = i + 1 == k;
        float* dst;
        if (last) {
          dst = plan.ops[i].kind == OpKind::kMeanPool
                    ? pout + (r0 / d.seq) * d.cols
                    : pout + r0 * d.cols;
        } else {
          // Double-buffer: op i reads `chain` (staging of i - 1) and writes
          // the other buffer.
          Tensor& next = (i % 2 == 0) ? staging_a : staging_b;
          if (next.empty()) {
            next = Tensor::Uninitialized(Shape({tile, d.cols}));
          }
          dst = next.data();
        }
        OpForwardTile(plan.ops[i],
                      OpSources(inputs[i], chain, r0, d.cols), dst, rows_t,
                      d.cols, d.seq, /*aux=*/nullptr);
        chain = dst;
      }
    }
  }, /*min_chunk=*/1);
  return out;
}

void ChainBackward(const ChainPlan& plan,
                   const std::vector<std::vector<const Tensor*>>& inputs,
                   const Tensor& grad_out, int stop_op,
                   std::vector<std::vector<Tensor>>* input_grads) {
  NAUTILUS_CHECK_EQ(inputs.size(), plan.ops.size());
  const Shape in_shape = inputs[0][0]->shape();
  const ChainDims d = ResolveDims(plan, in_shape);
  const int k = static_cast<int>(plan.ops.size());
  NAUTILUS_CHECK_GE(stop_op, 0);
  NAUTILUS_CHECK_LT(stop_op, k);

  // External-slot gradients are full tensors (they leave the region); every
  // row is written by exactly one tile.
  input_grads->assign(static_cast<size_t>(k), {});
  for (int i = stop_op; i < k; ++i) {
    auto& slots = (*input_grads)[static_cast<size_t>(i)];
    slots.resize(inputs[static_cast<size_t>(i)].size());
    for (size_t s = 0; s < slots.size(); ++s) {
      if (inputs[static_cast<size_t>(i)][s] != nullptr) {
        slots[s] = Tensor::Uninitialized(in_shape);
      }
    }
  }

  // LayerNorm dgamma/dbeta chunk partials, indexed by the global 256-row
  // chunk — the same decomposition ops::LayerNormBackward uses.
  const int64_t chunks = (d.rows + kChunkRows - 1) / kChunkRows;
  std::vector<std::vector<float>> partial_g(static_cast<size_t>(k));
  std::vector<std::vector<float>> partial_b(static_cast<size_t>(k));
  for (int i = stop_op; i < k; ++i) {
    if (plan.ops[static_cast<size_t>(i)].kind == OpKind::kLayerNorm) {
      partial_g[static_cast<size_t>(i)].assign(
          static_cast<size_t>(chunks * d.cols), 0.0f);
      partial_b[static_cast<size_t>(i)].assign(
          static_cast<size_t>(chunks * d.cols), 0.0f);
    }
  }

  // Pre-resolve mutable data pointers outside the parallel region.
  std::vector<std::vector<float*>> grad_ptrs(static_cast<size_t>(k));
  for (int i = stop_op; i < k; ++i) {
    auto& slots = (*input_grads)[static_cast<size_t>(i)];
    grad_ptrs[static_cast<size_t>(i)].assign(slots.size(), nullptr);
    for (size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].empty()) {
        grad_ptrs[static_cast<size_t>(i)][s] = slots[s].data();
      }
    }
  }
  const float* pdy = grad_out.data();
  const float inv_n = 1.0f / static_cast<float>(d.cols);
  const float inv_s = 1.0f / static_cast<float>(d.seq);

  const int64_t tile = plan.tile_rows;
  const int64_t ntiles = (d.rows + tile - 1) / tile;
  ParallelFor(ntiles, [&](int64_t tb, int64_t te) {
    for (int64_t t = tb; t < te; ++t) {
      const int64_t r0 = t * tile;
      const int64_t r1 = std::min(d.rows, r0 + tile);
      const int64_t rows_t = r1 - r0;
      const size_t tile_floats = static_cast<size_t>(rows_t * d.cols);

      // Recompute the tile's intermediate values instead of materializing
      // forward caches: same inputs, same scalar code, same bits.
      std::vector<Tensor> staging(static_cast<size_t>(k));
      std::vector<TileAux> aux(static_cast<size_t>(k));
      const float* chain = nullptr;
      for (int i = 0; i < k; ++i) {
        const OpDesc& op = plan.ops[static_cast<size_t>(i)];
        staging[static_cast<size_t>(i)] = Tensor::Uninitialized(
            Shape({rows_t, d.cols}));
        TileAux* op_aux =
            op.kind == OpKind::kLayerNorm && i >= stop_op
                ? &aux[static_cast<size_t>(i)]
                : nullptr;
        OpForwardTile(op, OpSources(inputs[static_cast<size_t>(i)], chain,
                                    r0, d.cols),
                      staging[static_cast<size_t>(i)].data(), rows_t, d.cols,
                      d.seq, op_aux);
        chain = staging[static_cast<size_t>(i)].data();
      }

      // Gradient walk, last op to the needs-grad frontier.
      Tensor gbuf = Tensor::Uninitialized(Shape({rows_t, d.cols}));
      float* g = gbuf.data();
      int start;
      if (d.mean_pool) {
        // ops::MeanPoolSeqBackward: row[j] = dyrow[j] * inv_s.
        const int64_t recs = rows_t / d.seq;
        for (int64_t i = 0; i < recs; ++i) {
          const float* dyrow = pdy + (r0 / d.seq + i) * d.cols;
          for (int64_t tt = 0; tt < d.seq; ++tt) {
            float* row = g + (i * d.seq + tt) * d.cols;
            for (int64_t j = 0; j < d.cols; ++j) row[j] = dyrow[j] * inv_s;
          }
        }
        start = k - 2;
      } else {
        std::memcpy(g, pdy + r0 * d.cols, tile_floats * sizeof(float));
        start = k - 1;
      }

      for (int i = start; i >= stop_op; --i) {
        const OpDesc& op = plan.ops[static_cast<size_t>(i)];
        switch (op.kind) {
          case OpKind::kAddN: {
            // AddLayer::Backward hands grad_out to every slot unchanged.
            for (size_t s = 0; s < grad_ptrs[static_cast<size_t>(i)].size();
                 ++s) {
              float* dst = grad_ptrs[static_cast<size_t>(i)][s];
              if (dst != nullptr) {
                std::memcpy(dst + r0 * d.cols, g,
                            tile_floats * sizeof(float));
              }
            }
            break;
          }
          case OpKind::kRelu: {
            const float* y = staging[static_cast<size_t>(i)].data();
            for (size_t j = 0; j < tile_floats; ++j) {
              if (y[j] <= 0.0f) g[j] = 0.0f;
            }
            break;
          }
          case OpKind::kTanh: {
            const float* y = staging[static_cast<size_t>(i)].data();
            for (size_t j = 0; j < tile_floats; ++j) {
              g[j] *= (1.0f - y[j] * y[j]);
            }
            break;
          }
          case OpKind::kGelu: {
            const float* x =
                i == 0 ? inputs[0][0]->data() + r0 * d.cols
                       : staging[static_cast<size_t>(i - 1)].data();
            ops::GeluGradMulBatch(x, g, static_cast<int64_t>(tile_floats));
            break;
          }
          case OpKind::kLayerNorm: {
            const TileAux& a = aux[static_cast<size_t>(i)];
            const float* pg = op.gamma->data();
            float* dg_all = partial_g[static_cast<size_t>(i)].data();
            float* db_all = partial_b[static_cast<size_t>(i)].data();
            // Walk the tile's whole 256-row sub-chunks so partials land in
            // the same global chunk slots as the unfused kernel.
            for (int64_t c0 = r0; c0 < r1; c0 += kChunkRows) {
              const int64_t c1 = std::min(r1, c0 + kChunkRows);
              float* dg = dg_all + (c0 / kChunkRows) * d.cols;
              float* db = db_all + (c0 / kChunkRows) * d.cols;
              for (int64_t r = c0; r < c1; ++r) {
                const int64_t lr = r - r0;  // tile-local row
                float* dyrow = g + lr * d.cols;
                const float* nrow = a.normalized.data() + lr * d.cols;
                const float rstd = a.rstd[static_cast<size_t>(lr)];
                float sum_dxhat = 0.0f;
                float sum_dxhat_n = 0.0f;
                for (int64_t j = 0; j < d.cols; ++j) {
                  const float dxhat = dyrow[j] * pg[j];
                  sum_dxhat += dxhat;
                  sum_dxhat_n += dxhat * nrow[j];
                  dg[j] += dyrow[j] * nrow[j];
                  db[j] += dyrow[j];
                }
                const float m1 = sum_dxhat * inv_n;
                const float m2 = sum_dxhat_n * inv_n;
                for (int64_t j = 0; j < d.cols; ++j) {
                  const float dxhat = dyrow[j] * pg[j];
                  dyrow[j] = rstd * (dxhat - m1 - nrow[j] * m2);
                }
              }
            }
            break;
          }
          case OpKind::kSoftmax: {
            const float* y = staging[static_cast<size_t>(i)].data();
            for (int64_t r = 0; r < rows_t; ++r) {
              float* dyrow = g + r * d.cols;
              const float* yrow = y + r * d.cols;
              float s = 0.0f;
              for (int64_t j = 0; j < d.cols; ++j) s += dyrow[j] * yrow[j];
              for (int64_t j = 0; j < d.cols; ++j) {
                dyrow[j] = yrow[j] * (dyrow[j] - s);
              }
            }
            break;
          }
          case OpKind::kMeanPool:
            NAUTILUS_CHECK(false) << "kMeanPool handled before the walk";
            break;
        }
        // Single-input head: the transformed gradient leaves the region.
        if (i == 0 && op.kind != OpKind::kAddN) {
          float* dst = grad_ptrs[0].empty() ? nullptr : grad_ptrs[0][0];
          if (dst != nullptr) {
            std::memcpy(dst + r0 * d.cols, g, tile_floats * sizeof(float));
          }
        }
      }
    }
  }, /*min_chunk=*/1);

  // Merge LayerNorm chunk partials in ascending chunk order and accumulate
  // into the layer's parameter gradients — exactly the unfused
  // ops::LayerNormBackward merge followed by LayerNormLayer::Backward's
  // AxpyInPlace.
  for (int i = k - 1; i >= stop_op; --i) {
    const OpDesc& op = plan.ops[static_cast<size_t>(i)];
    if (op.kind != OpKind::kLayerNorm) continue;
    Tensor dgamma(op.gamma->shape());
    Tensor dbeta(op.beta->shape());
    float* pdg = dgamma.data();
    float* pdb = dbeta.data();
    const float* dg_all = partial_g[static_cast<size_t>(i)].data();
    const float* db_all = partial_b[static_cast<size_t>(i)].data();
    for (int64_t ch = 0; ch < chunks; ++ch) {
      const float* dg = dg_all + ch * d.cols;
      const float* db = db_all + ch * d.cols;
      for (int64_t j = 0; j < d.cols; ++j) {
        pdg[j] += dg[j];
        pdb[j] += db[j];
      }
    }
    if (op.dgamma_acc != nullptr) ops::AxpyInPlace(1.0f, dgamma, op.dgamma_acc);
    if (op.dbeta_acc != nullptr) ops::AxpyInPlace(1.0f, dbeta, op.dbeta_acc);
  }
}

}  // namespace fused
}  // namespace nautilus

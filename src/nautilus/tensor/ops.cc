#include "nautilus/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nautilus/tensor/activation.h"
#include "nautilus/tensor/qgemm.h"
#include "nautilus/util/parallel.h"

namespace nautilus {
namespace ops {
namespace {

// Views a tensor as a [rows, cols] matrix where cols is the last dimension.
struct MatView {
  int64_t rows;
  int64_t cols;
};

MatView As2D(const Tensor& t) {
  NAUTILUS_CHECK_GE(t.shape().rank(), 1);
  const int64_t cols = t.shape().dim(t.shape().rank() - 1);
  return {t.NumElements() / cols, cols};
}

// Fixed-size chunking for parallel reductions. The chunk count depends only
// on the problem size — never on the thread count — and the partial results
// merge serially in ascending chunk order, so reduced sums are bitwise
// identical at any parallelism degree (though grouped differently than a
// single sequential accumulation).
constexpr int64_t kReduceChunkRows = 256;

int64_t ReduceChunks(int64_t rows) {
  return (rows + kReduceChunkRows - 1) / kReduceChunkRows;
}

}  // namespace

// The matmul family lowers onto the blocked/packed Gemm in gemm.cc. The old
// scalar loops carried `if (aik == 0.0f) continue;` fast paths that silently
// broke IEEE propagation (0 * Inf must be NaN, not skipped); the blocked
// kernels are branch-free, so that bug is gone along with the branch.

Tensor MatMul(const Tensor& a, const Tensor& b) {
  const MatView av = As2D(a);
  const MatView bv = As2D(b);
  NAUTILUS_CHECK_EQ(av.cols, bv.rows)
      << a.shape().ToString() << " x " << b.shape().ToString();
  Tensor c = Tensor::Uninitialized(Shape({av.rows, bv.cols}));
  Gemm(GemmTranspose::kNN, av.rows, bv.cols, av.cols, a.data(), b.data(),
       c.data());
  return c;
}

Tensor MatMulNT(const Tensor& a, const Tensor& b) {
  const MatView av = As2D(a);
  const MatView bv = As2D(b);
  NAUTILUS_CHECK_EQ(av.cols, bv.cols)
      << a.shape().ToString() << " x " << b.shape().ToString() << "^T";
  Tensor c = Tensor::Uninitialized(Shape({av.rows, bv.rows}));
  Gemm(GemmTranspose::kNT, av.rows, bv.rows, av.cols, a.data(), b.data(),
       c.data());
  return c;
}

Tensor MatMulTN(const Tensor& a, const Tensor& b) {
  const MatView av = As2D(a);
  const MatView bv = As2D(b);
  NAUTILUS_CHECK_EQ(av.rows, bv.rows)
      << a.shape().ToString() << "^T x " << b.shape().ToString();
  Tensor c = Tensor::Uninitialized(Shape({av.cols, bv.cols}));
  Gemm(GemmTranspose::kTN, av.cols, bv.cols, av.rows, a.data(), b.data(),
       c.data());
  return c;
}

Tensor DenseForward(const Tensor& x, const Tensor& w, const Tensor& bias,
                    EpilogueKind epilogue, Tensor* pre_activation) {
  const MatView xv = As2D(x);
  const MatView wv = As2D(w);
  NAUTILUS_CHECK_EQ(xv.cols, wv.rows)
      << x.shape().ToString() << " x " << w.shape().ToString();
  NAUTILUS_CHECK_EQ(bias.NumElements(), wv.cols);
  Tensor y = Tensor::Uninitialized(Shape({xv.rows, wv.cols}));
  Epilogue ep;
  ep.kind = epilogue == EpilogueKind::kNone ? EpilogueKind::kBias : epilogue;
  ep.bias = bias.data();
  if (pre_activation != nullptr) {
    *pre_activation = Tensor::Uninitialized(Shape({xv.rows, wv.cols}));
    ep.pre_activation = pre_activation->data();
  }
  Gemm(GemmTranspose::kNN, xv.rows, wv.cols, xv.cols, x.data(), w.data(),
       y.data(), ep);
  return y;
}

Tensor QuantizedDenseForward(const Tensor& x, const quant::QuantizedMatrix& w,
                             const Tensor& bias, EpilogueKind epilogue,
                             Tensor* pre_activation) {
  const MatView xv = As2D(x);
  NAUTILUS_CHECK_EQ(xv.cols, w.rows)
      << x.shape().ToString() << " x int8[" << w.rows << "," << w.cols << "]";
  NAUTILUS_CHECK_EQ(bias.NumElements(), w.cols);
  const float* px = x.data();
  std::vector<int8_t> xq(static_cast<size_t>(xv.rows * xv.cols));
  std::vector<float> xscales(static_cast<size_t>(xv.rows));
  ParallelFor(
      xv.rows,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          xscales[static_cast<size_t>(i)] = quant::QuantizeRowAbsMax(
              px + i * xv.cols, xv.cols, xq.data() + i * xv.cols);
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 4096 / std::max<int64_t>(xv.cols, 1)));
  Tensor y = Tensor::Uninitialized(Shape({xv.rows, w.cols}));
  Epilogue ep;
  ep.kind = epilogue == EpilogueKind::kNone ? EpilogueKind::kBias : epilogue;
  ep.bias = bias.data();
  if (pre_activation != nullptr) {
    *pre_activation = Tensor::Uninitialized(Shape({xv.rows, w.cols}));
    ep.pre_activation = pre_activation->data();
  }
  QGemmInt8(xv.rows, w.cols, xv.cols, xq.data(), xscales.data(), w.q.data(),
            w.scales.data(), y.data(), ep);
  return y;
}

Tensor RoundTripF16(const Tensor& x) {
  Tensor y = Tensor::Uninitialized(x.shape());
  const float* px = x.data();
  float* py = y.data();
  const int64_t n = x.NumElements();
  ParallelFor(
      n,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          py[i] = quant::F16ToF32(quant::F32ToF16(px[i]));
        }
      },
      /*min_chunk=*/4096);
  return y;
}

void AddBiasInPlace(Tensor* x, const Tensor& bias) {
  const MatView xv = As2D(*x);
  NAUTILUS_CHECK_EQ(bias.NumElements(), xv.cols);
  float* px = x->data();
  const float* pb = bias.data();
  ParallelFor(
      xv.rows,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          float* row = px + i * xv.cols;
          for (int64_t j = 0; j < xv.cols; ++j) row[j] += pb[j];
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 4096 / std::max<int64_t>(xv.cols, 1)));
}

Tensor ColumnSum(const Tensor& g) {
  const MatView gv = As2D(g);
  Tensor out(Shape({gv.cols}));
  const float* pg = g.data();
  float* po = out.data();
  const int64_t chunks = ReduceChunks(gv.rows);
  if (chunks <= 1) {
    for (int64_t i = 0; i < gv.rows; ++i) {
      const float* row = pg + i * gv.cols;
      for (int64_t j = 0; j < gv.cols; ++j) po[j] += row[j];
    }
    return out;
  }
  std::vector<float> partial(static_cast<size_t>(chunks * gv.cols), 0.0f);
  ParallelFor(chunks, [&](int64_t cb, int64_t ce) {
    for (int64_t ch = cb; ch < ce; ++ch) {
      float* acc = partial.data() + ch * gv.cols;
      const int64_t r0 = ch * kReduceChunkRows;
      const int64_t r1 = std::min(gv.rows, r0 + kReduceChunkRows);
      for (int64_t i = r0; i < r1; ++i) {
        const float* row = pg + i * gv.cols;
        for (int64_t j = 0; j < gv.cols; ++j) acc[j] += row[j];
      }
    }
  });
  for (int64_t ch = 0; ch < chunks; ++ch) {
    const float* acc = partial.data() + ch * gv.cols;
    for (int64_t j = 0; j < gv.cols; ++j) po[j] += acc[j];
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  NAUTILUS_CHECK_EQ(a.NumElements(), b.NumElements());
  Tensor out = a;
  AxpyInPlace(1.0f, b, &out);
  return out;
}

Tensor AddN(const std::vector<const Tensor*>& xs) {
  NAUTILUS_CHECK(!xs.empty());
  Tensor out = *xs[0];
  for (size_t i = 1; i < xs.size(); ++i) AxpyInPlace(1.0f, *xs[i], &out);
  return out;
}

void AxpyInPlace(float alpha, const Tensor& x, Tensor* y) {
  NAUTILUS_CHECK_EQ(x.NumElements(), y->NumElements());
  const float* px = x.data();
  float* py = y->data();
  const int64_t n = x.NumElements();
  ParallelFor(
      n,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) py[i] += alpha * px[i];
      },
      /*min_chunk=*/16384);
}

void ScaleInPlace(float alpha, Tensor* x) {
  float* px = x->data();
  const int64_t n = x->NumElements();
  ParallelFor(
      n,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) px[i] *= alpha;
      },
      /*min_chunk=*/16384);
}

Tensor ReluForward(const Tensor& x) {
  Tensor y = x;
  float* p = y.data();
  const int64_t n = y.NumElements();
  ParallelFor(
      n,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
      },
      /*min_chunk=*/16384);
  return y;
}

Tensor ReluBackward(const Tensor& dy, const Tensor& y) {
  NAUTILUS_CHECK_EQ(dy.NumElements(), y.NumElements());
  Tensor dx = dy;
  float* pdx = dx.data();
  const float* py = y.data();
  const int64_t n = dx.NumElements();
  ParallelFor(
      n,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          if (py[i] <= 0.0f) pdx[i] = 0.0f;
        }
      },
      /*min_chunk=*/16384);
  return dx;
}

Tensor GeluForward(const Tensor& x) {
  Tensor y = x;
  float* p = y.data();
  const int64_t n = y.NumElements();
  ParallelFor(
      n,
      [&](int64_t begin, int64_t end) {
        GeluBatch(p + begin, p + begin, end - begin);
      },
      /*min_chunk=*/4096);
  return y;
}

Tensor GeluBackward(const Tensor& dy, const Tensor& x) {
  NAUTILUS_CHECK_EQ(dy.NumElements(), x.NumElements());
  Tensor dx = dy;
  float* pdx = dx.data();
  const float* px = x.data();
  const int64_t n = dx.NumElements();
  ParallelFor(
      n,
      [&](int64_t begin, int64_t end) {
        GeluGradMulBatch(px + begin, pdx + begin, end - begin);
      },
      /*min_chunk=*/4096);
  return dx;
}

Tensor TanhForward(const Tensor& x) {
  Tensor y = x;
  float* p = y.data();
  const int64_t n = y.NumElements();
  ParallelFor(
      n,
      [&](int64_t begin, int64_t end) {
        TanhBatch(p + begin, p + begin, end - begin);
      },
      /*min_chunk=*/4096);
  return y;
}

Tensor TanhBackward(const Tensor& dy, const Tensor& y) {
  NAUTILUS_CHECK_EQ(dy.NumElements(), y.NumElements());
  Tensor dx = dy;
  float* pdx = dx.data();
  const float* py = y.data();
  const int64_t n = dx.NumElements();
  ParallelFor(
      n,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) pdx[i] *= (1.0f - py[i] * py[i]);
      },
      /*min_chunk=*/16384);
  return dx;
}

Tensor LayerNormForward(const Tensor& x, const Tensor& gamma,
                        const Tensor& beta, float eps, LayerNormCache* cache) {
  const MatView xv = As2D(x);
  NAUTILUS_CHECK_EQ(gamma.NumElements(), xv.cols);
  NAUTILUS_CHECK_EQ(beta.NumElements(), xv.cols);
  Tensor y = Tensor::Uninitialized(x.shape());
  cache->normalized = Tensor::Uninitialized(x.shape());
  cache->rstd.assign(static_cast<size_t>(xv.rows), 0.0f);
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pb = beta.data();
  float* py = y.data();
  float* pn = cache->normalized.data();
  float* prstd = cache->rstd.data();
  // Row-parallel: every row's statistics and outputs are independent.
  ParallelFor(
      xv.rows,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          const float* row = px + i * xv.cols;
          float mean = 0.0f;
          for (int64_t j = 0; j < xv.cols; ++j) mean += row[j];
          mean /= static_cast<float>(xv.cols);
          float var = 0.0f;
          for (int64_t j = 0; j < xv.cols; ++j) {
            const float d = row[j] - mean;
            var += d * d;
          }
          var /= static_cast<float>(xv.cols);
          const float rstd = 1.0f / std::sqrt(var + eps);
          prstd[i] = rstd;
          float* nrow = pn + i * xv.cols;
          float* yrow = py + i * xv.cols;
          for (int64_t j = 0; j < xv.cols; ++j) {
            nrow[j] = (row[j] - mean) * rstd;
            yrow[j] = nrow[j] * pg[j] + pb[j];
          }
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 2048 / std::max<int64_t>(xv.cols, 1)));
  return y;
}

void LayerNormBackward(const Tensor& dy, const Tensor& gamma,
                       const LayerNormCache& cache, Tensor* dx, Tensor* dgamma,
                       Tensor* dbeta) {
  const MatView v = As2D(dy);
  // dx rows are fully overwritten; dgamma/dbeta accumulate and stay zeroed.
  *dx = Tensor::Uninitialized(dy.shape());
  *dgamma = Tensor(gamma.shape());
  *dbeta = Tensor(gamma.shape());
  const float* pdy = dy.data();
  const float* pg = gamma.data();
  const float* pn = cache.normalized.data();
  float* pdx = dx->data();
  float* pdg = dgamma->data();
  float* pdb = dbeta->data();
  const float inv_n = 1.0f / static_cast<float>(v.cols);
  // dx rows are independent; dgamma/dbeta reduce over rows via fixed-size
  // chunk partials merged in chunk order (degree-independent bits).
  const int64_t chunks = ReduceChunks(v.rows);
  std::vector<float> partial_g;
  std::vector<float> partial_b;
  if (chunks > 1) {
    partial_g.assign(static_cast<size_t>(chunks * v.cols), 0.0f);
    partial_b.assign(static_cast<size_t>(chunks * v.cols), 0.0f);
  }
  ParallelFor(chunks, [&](int64_t cb, int64_t ce) {
    for (int64_t ch = cb; ch < ce; ++ch) {
      float* dg = chunks > 1 ? partial_g.data() + ch * v.cols : pdg;
      float* db = chunks > 1 ? partial_b.data() + ch * v.cols : pdb;
      const int64_t r0 = ch * kReduceChunkRows;
      const int64_t r1 = std::min(v.rows, r0 + kReduceChunkRows);
      for (int64_t i = r0; i < r1; ++i) {
        const float* dyrow = pdy + i * v.cols;
        const float* nrow = pn + i * v.cols;
        float* dxrow = pdx + i * v.cols;
        const float rstd = cache.rstd[static_cast<size_t>(i)];
        // dxhat = dy * gamma;
        // dx = rstd * (dxhat - mean(dxhat) - n * mean(dxhat*n))
        float sum_dxhat = 0.0f;
        float sum_dxhat_n = 0.0f;
        for (int64_t j = 0; j < v.cols; ++j) {
          const float dxhat = dyrow[j] * pg[j];
          sum_dxhat += dxhat;
          sum_dxhat_n += dxhat * nrow[j];
          dg[j] += dyrow[j] * nrow[j];
          db[j] += dyrow[j];
        }
        const float m1 = sum_dxhat * inv_n;
        const float m2 = sum_dxhat_n * inv_n;
        for (int64_t j = 0; j < v.cols; ++j) {
          const float dxhat = dyrow[j] * pg[j];
          dxrow[j] = rstd * (dxhat - m1 - nrow[j] * m2);
        }
      }
    }
  });
  if (chunks > 1) {
    for (int64_t ch = 0; ch < chunks; ++ch) {
      const float* dg = partial_g.data() + ch * v.cols;
      const float* db = partial_b.data() + ch * v.cols;
      for (int64_t j = 0; j < v.cols; ++j) {
        pdg[j] += dg[j];
        pdb[j] += db[j];
      }
    }
  }
}

Tensor SoftmaxForward(const Tensor& logits) {
  const MatView v = As2D(logits);
  Tensor probs = logits;
  float* p = probs.data();
  // Row-parallel: each row's max/exp/normalize is independent.
  ParallelFor(
      v.rows,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          float* row = p + i * v.cols;
          float mx = -std::numeric_limits<float>::infinity();
          for (int64_t j = 0; j < v.cols; ++j) mx = std::max(mx, row[j]);
          if (mx == -std::numeric_limits<float>::infinity()) {
            // Empty or all--inf row (every logit masked out): exp(x - mx)
            // would be NaN. Emit zeros instead.
            for (int64_t j = 0; j < v.cols; ++j) row[j] = 0.0f;
            continue;
          }
          float sum = 0.0f;
          for (int64_t j = 0; j < v.cols; ++j) {
            row[j] = std::exp(row[j] - mx);
            sum += row[j];
          }
          if (sum == 0.0f) {
            for (int64_t j = 0; j < v.cols; ++j) row[j] = 0.0f;
            continue;
          }
          const float inv = 1.0f / sum;
          for (int64_t j = 0; j < v.cols; ++j) row[j] *= inv;
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 2048 / std::max<int64_t>(v.cols, 1)));
  return probs;
}

Tensor SoftmaxBackward(const Tensor& dy, const Tensor& y) {
  const MatView v = As2D(dy);
  NAUTILUS_CHECK(y.shape() == dy.shape());
  Tensor dx = dy;
  float* pd = dx.data();
  const float* py = y.data();
  // Row-parallel: each row's dot product and rescale are independent.
  ParallelFor(
      v.rows,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          float* drow = pd + i * v.cols;
          const float* yrow = py + i * v.cols;
          float s = 0.0f;
          for (int64_t j = 0; j < v.cols; ++j) s += drow[j] * yrow[j];
          for (int64_t j = 0; j < v.cols; ++j) {
            drow[j] = yrow[j] * (drow[j] - s);
          }
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 2048 / std::max<int64_t>(v.cols, 1)));
  return dx;
}

float SoftmaxCrossEntropy(const Tensor& probs,
                          const std::vector<int32_t>& labels,
                          Tensor* dlogits) {
  const MatView v = As2D(probs);
  NAUTILUS_CHECK_EQ(static_cast<int64_t>(labels.size()), v.rows);
  *dlogits = probs;
  float* pd = dlogits->data();
  const float* pp = probs.data();
  const float inv_m = 1.0f / static_cast<float>(v.rows);
  // The per-row label writes are disjoint; the scalar loss reduces via
  // fixed-size chunk partials merged in chunk order (degree-independent).
  const int64_t chunks = ReduceChunks(v.rows);
  std::vector<float> partial(static_cast<size_t>(chunks), 0.0f);
  ParallelFor(chunks, [&](int64_t cb, int64_t ce) {
    for (int64_t ch = cb; ch < ce; ++ch) {
      const int64_t r0 = ch * kReduceChunkRows;
      const int64_t r1 = std::min(v.rows, r0 + kReduceChunkRows);
      float acc = 0.0f;
      for (int64_t i = r0; i < r1; ++i) {
        const int32_t label = labels[static_cast<size_t>(i)];
        NAUTILUS_CHECK_GE(label, 0);
        NAUTILUS_CHECK_LT(label, v.cols);
        const float p = std::max(pp[i * v.cols + label], 1e-12f);
        acc -= std::log(p);
        pd[i * v.cols + label] -= 1.0f;
      }
      partial[static_cast<size_t>(ch)] = acc;
    }
  });
  float loss = 0.0f;
  for (int64_t ch = 0; ch < chunks; ++ch) {
    loss += partial[static_cast<size_t>(ch)];
  }
  ScaleInPlace(inv_m, dlogits);
  return loss * inv_m;
}

float Accuracy(const Tensor& probs, const std::vector<int32_t>& labels) {
  const MatView v = As2D(probs);
  NAUTILUS_CHECK_EQ(static_cast<int64_t>(labels.size()), v.rows);
  const float* pp = probs.data();
  // Integer partials: exact at any chunking, so just one partial per chunk.
  const int64_t chunks = ReduceChunks(v.rows);
  std::vector<int64_t> partial(static_cast<size_t>(chunks), 0);
  ParallelFor(chunks, [&](int64_t cb, int64_t ce) {
    for (int64_t ch = cb; ch < ce; ++ch) {
      const int64_t r0 = ch * kReduceChunkRows;
      const int64_t r1 = std::min(v.rows, r0 + kReduceChunkRows);
      int64_t acc = 0;
      for (int64_t i = r0; i < r1; ++i) {
        const float* row = pp + i * v.cols;
        int64_t best = 0;
        for (int64_t j = 1; j < v.cols; ++j) {
          if (row[j] > row[best]) best = j;
        }
        if (best == labels[static_cast<size_t>(i)]) ++acc;
      }
      partial[static_cast<size_t>(ch)] = acc;
    }
  });
  int64_t correct = 0;
  for (int64_t ch = 0; ch < chunks; ++ch) {
    correct += partial[static_cast<size_t>(ch)];
  }
  return static_cast<float>(correct) / static_cast<float>(v.rows);
}

Tensor EmbeddingForward(const Tensor& ids, const Tensor& table) {
  NAUTILUS_CHECK_EQ(table.shape().rank(), 2);
  const int64_t vocab = table.shape().dim(0);
  const int64_t h = table.shape().dim(1);
  std::vector<int64_t> out_dims = ids.shape().dims();
  out_dims.push_back(h);
  Tensor out = Tensor::Uninitialized(Shape(out_dims));
  const float* pid = ids.data();
  const float* pt = table.data();
  float* po = out.data();
  const int64_t n = ids.NumElements();
  ParallelFor(
      n,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const int64_t id = static_cast<int64_t>(pid[i]);
          NAUTILUS_CHECK_GE(id, 0);
          NAUTILUS_CHECK_LT(id, vocab);
          std::copy(pt + id * h, pt + (id + 1) * h, po + i * h);
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 4096 / std::max<int64_t>(h, 1)));
  return out;
}

void EmbeddingBackward(const Tensor& ids, const Tensor& dy, Tensor* dtable) {
  const int64_t h = dtable->shape().dim(1);
  const int64_t vocab = dtable->shape().dim(0);
  const float* pid = ids.data();
  const float* pdy = dy.data();
  float* pdt = dtable->data();
  const int64_t n = ids.NumElements();
  NAUTILUS_CHECK_EQ(dy.NumElements(), n * h);
  // Scatter-add: duplicate ids collide on table rows, so this stays serial
  // (and keeps the exact sequential accumulation order).
  for (int64_t i = 0; i < n; ++i) {
    const int64_t id = static_cast<int64_t>(pid[i]);
    NAUTILUS_CHECK_GE(id, 0);
    NAUTILUS_CHECK_LT(id, vocab);
    float* drow = pdt + id * h;
    const float* gyrow = pdy + i * h;
    for (int64_t j = 0; j < h; ++j) drow[j] += gyrow[j];
  }
}

Tensor MeanPoolSeq(const Tensor& x) {
  NAUTILUS_CHECK_EQ(x.shape().rank(), 3);
  const int64_t b = x.shape().dim(0);
  const int64_t s = x.shape().dim(1);
  const int64_t h = x.shape().dim(2);
  Tensor out = Tensor::Uninitialized(Shape({b, h}));
  const float* px = x.data();
  float* po = out.data();
  const float inv_s = 1.0f / static_cast<float>(s);
  ParallelFor(
      b,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          float* orow = po + i * h;
          // Output storage is uninitialized: seed with t = 0, then add.
          std::copy(px + i * s * h, px + i * s * h + h, orow);
          for (int64_t t = 1; t < s; ++t) {
            const float* row = px + (i * s + t) * h;
            for (int64_t j = 0; j < h; ++j) orow[j] += row[j];
          }
          for (int64_t j = 0; j < h; ++j) orow[j] *= inv_s;
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 4096 / std::max<int64_t>(s * h, 1)));
  return out;
}

Tensor MeanPoolSeqBackward(const Tensor& dy, const Shape& x_shape) {
  const int64_t b = x_shape.dim(0);
  const int64_t s = x_shape.dim(1);
  const int64_t h = x_shape.dim(2);
  NAUTILUS_CHECK_EQ(dy.NumElements(), b * h);
  Tensor dx = Tensor::Uninitialized(x_shape);
  const float* pdy = dy.data();
  float* pdx = dx.data();
  const float inv_s = 1.0f / static_cast<float>(s);
  ParallelFor(
      b,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const float* dyrow = pdy + i * h;
          for (int64_t t = 0; t < s; ++t) {
            float* row = pdx + (i * s + t) * h;
            for (int64_t j = 0; j < h; ++j) row[j] = dyrow[j] * inv_s;
          }
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 4096 / std::max<int64_t>(s * h, 1)));
  return dx;
}

Tensor SelectSeqPosition(const Tensor& x, int64_t position) {
  NAUTILUS_CHECK_EQ(x.shape().rank(), 3);
  const int64_t b = x.shape().dim(0);
  const int64_t s = x.shape().dim(1);
  const int64_t h = x.shape().dim(2);
  if (position < 0) position += s;
  NAUTILUS_CHECK_GE(position, 0);
  NAUTILUS_CHECK_LT(position, s);
  Tensor out = Tensor::Uninitialized(Shape({b, h}));
  const float* px = x.data();
  float* po = out.data();
  for (int64_t i = 0; i < b; ++i) {
    const float* row = px + (i * s + position) * h;
    std::copy(row, row + h, po + i * h);
  }
  return out;
}

Tensor SelectSeqPositionBackward(const Tensor& dy, const Shape& x_shape,
                                 int64_t position) {
  const int64_t b = x_shape.dim(0);
  const int64_t s = x_shape.dim(1);
  const int64_t h = x_shape.dim(2);
  if (position < 0) position += s;
  Tensor dx(x_shape);
  const float* pdy = dy.data();
  float* pdx = dx.data();
  for (int64_t i = 0; i < b; ++i) {
    float* row = pdx + (i * s + position) * h;
    const float* dyrow = pdy + i * h;
    std::copy(dyrow, dyrow + h, row);
  }
  return dx;
}

Tensor ConcatLastDim(const std::vector<const Tensor*>& xs) {
  NAUTILUS_CHECK(!xs.empty());
  const MatView first = As2D(*xs[0]);
  int64_t total_cols = 0;
  for (const Tensor* t : xs) {
    const MatView v = As2D(*t);
    NAUTILUS_CHECK_EQ(v.rows, first.rows);
    total_cols += v.cols;
  }
  std::vector<int64_t> out_dims = xs[0]->shape().dims();
  out_dims.back() = total_cols;
  Tensor out = Tensor::Uninitialized(Shape(out_dims));
  float* po = out.data();
  ParallelFor(
      first.rows,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          int64_t offset = 0;
          for (const Tensor* t : xs) {
            const MatView v = As2D(*t);
            const float* row = t->data() + i * v.cols;
            std::copy(row, row + v.cols, po + i * total_cols + offset);
            offset += v.cols;
          }
        }
      },
      /*min_chunk=*/
      std::max<int64_t>(1, 4096 / std::max<int64_t>(total_cols, 1)));
  return out;
}

std::vector<Tensor> SplitLastDim(const Tensor& dy,
                                 const std::vector<int64_t>& sizes) {
  const MatView v = As2D(dy);
  int64_t total = 0;
  for (int64_t s : sizes) total += s;
  NAUTILUS_CHECK_EQ(total, v.cols);
  std::vector<Tensor> out;
  out.reserve(sizes.size());
  int64_t offset = 0;
  for (int64_t cols : sizes) {
    std::vector<int64_t> dims = dy.shape().dims();
    dims.back() = cols;
    Tensor piece = Tensor::Uninitialized(Shape(dims));
    float* pp = piece.data();
    const float* pd = dy.data();
    ParallelFor(
        v.rows,
        [&](int64_t row_begin, int64_t row_end) {
          for (int64_t i = row_begin; i < row_end; ++i) {
            std::copy(pd + i * v.cols + offset, pd + i * v.cols + offset + cols,
                      pp + i * cols);
          }
        },
        /*min_chunk=*/std::max<int64_t>(1, 4096 / std::max<int64_t>(cols, 1)));
    out.push_back(std::move(piece));
    offset += cols;
  }
  return out;
}

Tensor SplitHeads(const Tensor& x, int64_t heads) {
  NAUTILUS_CHECK_EQ(x.shape().rank(), 3);
  const int64_t b = x.shape().dim(0);
  const int64_t s = x.shape().dim(1);
  const int64_t h = x.shape().dim(2);
  NAUTILUS_CHECK_EQ(h % heads, 0);
  const int64_t dh = h / heads;
  Tensor out = Tensor::Uninitialized(Shape({b, heads, s, dh}));
  const float* px = x.data();
  float* po = out.data();
  ParallelFor(
      b,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          for (int64_t t = 0; t < s; ++t) {
            const float* row = px + (i * s + t) * h;
            for (int64_t hd = 0; hd < heads; ++hd) {
              float* orow = po + ((i * heads + hd) * s + t) * dh;
              std::copy(row + hd * dh, row + (hd + 1) * dh, orow);
            }
          }
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 4096 / std::max<int64_t>(s * h, 1)));
  return out;
}

Tensor MergeHeads(const Tensor& x) {
  NAUTILUS_CHECK_EQ(x.shape().rank(), 4);
  const int64_t b = x.shape().dim(0);
  const int64_t heads = x.shape().dim(1);
  const int64_t s = x.shape().dim(2);
  const int64_t dh = x.shape().dim(3);
  Tensor out = Tensor::Uninitialized(Shape({b, s, heads * dh}));
  const float* px = x.data();
  float* po = out.data();
  ParallelFor(
      b,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          for (int64_t hd = 0; hd < heads; ++hd) {
            for (int64_t t = 0; t < s; ++t) {
              const float* row = px + ((i * heads + hd) * s + t) * dh;
              float* orow = po + (i * s + t) * heads * dh + hd * dh;
              std::copy(row, row + dh, orow);
            }
          }
        }
      },
      /*min_chunk=*/
      std::max<int64_t>(1, 4096 / std::max<int64_t>(s * heads * dh, 1)));
  return out;
}

namespace {

// Softmax(q K^T * scale) V for ONE query row over its first `valid` key
// rows. This is the single arithmetic definition of an attention row:
// Every attention path (AttentionForward, AttentionInference,
// AttentionDecodeRowPaged) funnels here, which is what makes incremental
// KV-cache decode bitwise-equal to the full-sequence forward at any page
// size. Key/value position j resolves through a page table:
// `k_pages[j / page_rows] + head_off + (j % page_rows) * dh`; the
// contiguous callers pass a single page spanning all rows, so every layout
// executes the exact float sequence of the historical inline kernel
// (score+max pass, exp+sum pass, normalize+accumulate pass, each in
// ascending j).
//
// Guards (the NaN bugfix): an empty valid set, an all--inf score row, or a
// fully-underflowed exp-sum emits zeros instead of dividing by zero.
// `scores` receives the post-softmax probabilities for [0, valid).
inline void AttentionRowKernelPaged(const float* qrow,
                                    const float* const* k_pages,
                                    const float* const* v_pages,
                                    int64_t head_off, int64_t page_rows,
                                    int64_t valid, int64_t dh, float scale,
                                    float* scores, float* orow) {
  // Output storage may be uninitialized; clear before accumulating.
  for (int64_t d = 0; d < dh; ++d) orow[d] = 0.0f;
  if (valid <= 0) return;
  float mx = -std::numeric_limits<float>::infinity();
  for (int64_t j = 0; j < valid;) {
    const int64_t page = j / page_rows;
    const int64_t pend = std::min(valid, (page + 1) * page_rows);
    const float* krow = k_pages[page] + head_off + (j - page * page_rows) * dh;
    for (; j < pend; ++j, krow += dh) {
      float acc = 0.0f;
      for (int64_t d = 0; d < dh; ++d) acc += qrow[d] * krow[d];
      scores[j] = acc * scale;
      mx = std::max(mx, scores[j]);
    }
  }
  if (mx == -std::numeric_limits<float>::infinity()) {
    // Every score is -inf: exp(s - mx) would be exp(NaN). Treat the row as
    // fully masked.
    for (int64_t j = 0; j < valid; ++j) scores[j] = 0.0f;
    return;
  }
  float sum = 0.0f;
  for (int64_t j = 0; j < valid; ++j) {
    scores[j] = std::exp(scores[j] - mx);
    sum += scores[j];
  }
  if (sum == 0.0f) {
    for (int64_t j = 0; j < valid; ++j) scores[j] = 0.0f;
    return;
  }
  const float inv = 1.0f / sum;
  for (int64_t j = 0; j < valid;) {
    const int64_t page = j / page_rows;
    const int64_t pend = std::min(valid, (page + 1) * page_rows);
    const float* vrow = v_pages[page] + head_off + (j - page * page_rows) * dh;
    for (; j < pend; ++j, vrow += dh) {
      scores[j] *= inv;
      for (int64_t d = 0; d < dh; ++d) orow[d] += scores[j] * vrow[d];
    }
  }
}

// Contiguous-layout wrapper: one page spanning every row.
inline void AttentionRowKernel(const float* qrow, const float* krows,
                               const float* vrows, int64_t valid, int64_t dh,
                               float scale, float* scores, float* orow) {
  const float* k_pages[1] = {krows};
  const float* v_pages[1] = {vrows};
  AttentionRowKernelPaged(qrow, k_pages, v_pages, /*head_off=*/0,
                          /*page_rows=*/valid > 0 ? valid : 1, valid, dh,
                          scale, scores, orow);
}

// Visible key count for query row `i` of batch element `bi` under `mask`
// (null mask = all `s` keys).
inline int64_t MaskValidKeys(const AttentionMask* mask, int64_t bi, int64_t i,
                             int64_t s) {
  int64_t valid = s;
  if (mask != nullptr) {
    if (mask->causal) valid = std::min(valid, i + 1);
    if (mask->valid_lens != nullptr) {
      valid = std::min(valid, std::max<int64_t>(mask->valid_lens[bi], 0));
    }
  }
  return valid;
}

}  // namespace

Tensor AttentionForward(const Tensor& q, const Tensor& k, const Tensor& v,
                        AttentionCache* cache, const AttentionMask* mask) {
  NAUTILUS_CHECK_EQ(q.shape().rank(), 4);
  NAUTILUS_CHECK(q.shape() == k.shape());
  NAUTILUS_CHECK(q.shape() == v.shape());
  const int64_t b = q.shape().dim(0);
  const int64_t heads = q.shape().dim(1);
  const int64_t s = q.shape().dim(2);
  const int64_t dh = q.shape().dim(3);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  cache->probs = Tensor::Uninitialized(Shape({b, heads, s, s}));
  Tensor out = Tensor::Uninitialized(q.shape());
  const int64_t plane = s * dh;
  // Each (batch, head) plane touches disjoint slices of probs and out.
  ParallelFor(b * heads, [&](int64_t bh_begin, int64_t bh_end) {
  for (int64_t bh = bh_begin; bh < bh_end; ++bh) {
    const int64_t bi = bh / heads;
    const float* pq = q.data() + bh * plane;
    const float* pk = k.data() + bh * plane;
    const float* pv = v.data() + bh * plane;
    float* pp = cache->probs.data() + bh * s * s;
    float* po = out.data() + bh * plane;
    for (int64_t i = 0; i < s; ++i) {
      float* prow = pp + i * s;
      const int64_t valid = MaskValidKeys(mask, bi, i, s);
      AttentionRowKernel(pq + i * dh, pk, pv, valid, dh, scale, prow,
                         po + i * dh);
      // Masked-out probabilities are zero so AttentionBackward (which reads
      // the full row) never routes gradient through them.
      for (int64_t j = valid; j < s; ++j) prow[j] = 0.0f;
    }
  }
  });
  return out;
}

Tensor AttentionInference(const Tensor& q, const Tensor& k, const Tensor& v,
                          const AttentionMask* mask) {
  NAUTILUS_CHECK_EQ(q.shape().rank(), 4);
  NAUTILUS_CHECK(q.shape() == k.shape());
  NAUTILUS_CHECK(q.shape() == v.shape());
  const int64_t b = q.shape().dim(0);
  const int64_t heads = q.shape().dim(1);
  const int64_t s = q.shape().dim(2);
  const int64_t dh = q.shape().dim(3);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  Tensor out = Tensor::Uninitialized(q.shape());
  const int64_t plane = s * dh;
  ParallelFor(b * heads, [&](int64_t bh_begin, int64_t bh_end) {
  // One probability row of scratch per task instead of the O(b*heads*s^2)
  // cache tensor.
  std::vector<float> scratch(static_cast<size_t>(s));
  for (int64_t bh = bh_begin; bh < bh_end; ++bh) {
    const int64_t bi = bh / heads;
    const float* pq = q.data() + bh * plane;
    const float* pk = k.data() + bh * plane;
    const float* pv = v.data() + bh * plane;
    float* po = out.data() + bh * plane;
    for (int64_t i = 0; i < s; ++i) {
      AttentionRowKernel(pq + i * dh, pk, pv, MaskValidKeys(mask, bi, i, s),
                         dh, scale, scratch.data(), po + i * dh);
    }
  }
  });
  return out;
}

void AttentionDecodeRowPaged(const float* q_row, const float* const* k_pages,
                             const float* const* v_pages, int64_t head_offset,
                             int64_t len, int64_t page_rows, int64_t dh,
                             float* scratch, float* out_row) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  AttentionRowKernelPaged(q_row, k_pages, v_pages, head_offset, page_rows,
                          len, dh, scale, scratch, out_row);
}

void AttentionBackward(const Tensor& dy, const Tensor& q, const Tensor& k,
                       const Tensor& v, const AttentionCache& cache,
                       Tensor* dq, Tensor* dk, Tensor* dv) {
  const int64_t b = q.shape().dim(0);
  const int64_t heads = q.shape().dim(1);
  const int64_t s = q.shape().dim(2);
  const int64_t dh = q.shape().dim(3);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  *dq = Tensor(q.shape());
  *dk = Tensor(k.shape());
  *dv = Tensor(v.shape());
  const int64_t plane = s * dh;
  // Plane-parallel like the forward pass: dq/dk/dv slices are disjoint per
  // (batch, head), so accumulation order within a plane never changes.
  ParallelFor(b * heads, [&](int64_t bh_begin, int64_t bh_end) {
  std::vector<float> dp(static_cast<size_t>(s));
  for (int64_t bh = bh_begin; bh < bh_end; ++bh) {
    const float* pdy = dy.data() + bh * plane;
    const float* pq = q.data() + bh * plane;
    const float* pk = k.data() + bh * plane;
    const float* pv = v.data() + bh * plane;
    const float* pp = cache.probs.data() + bh * s * s;
    float* pdq = dq->data() + bh * plane;
    float* pdk = dk->data() + bh * plane;
    float* pdv = dv->data() + bh * plane;
    for (int64_t i = 0; i < s; ++i) {
      const float* dyrow = pdy + i * dh;
      const float* prow = pp + i * s;
      // dP = dY V^T ; dV += P^T dY
      float dot = 0.0f;
      for (int64_t j = 0; j < s; ++j) {
        const float* vrow = pv + j * dh;
        float acc = 0.0f;
        for (int64_t d = 0; d < dh; ++d) acc += dyrow[d] * vrow[d];
        dp[static_cast<size_t>(j)] = acc;
        dot += acc * prow[j];
        float* dvrow = pdv + j * dh;
        for (int64_t d = 0; d < dh; ++d) dvrow[d] += prow[j] * dyrow[d];
      }
      // dS = P * (dP - sum(dP * P)) (softmax backward), scaled.
      const float* qrow = pq + i * dh;
      float* dqrow = pdq + i * dh;
      for (int64_t j = 0; j < s; ++j) {
        const float ds = prow[j] * (dp[static_cast<size_t>(j)] - dot) * scale;
        if (ds == 0.0f) continue;
        const float* krow = pk + j * dh;
        float* dkrow = pdk + j * dh;
        for (int64_t d = 0; d < dh; ++d) {
          dqrow[d] += ds * krow[d];
          dkrow[d] += ds * qrow[d];
        }
      }
    }
  }
  });
}

namespace {

// Computes conv output spatial size.
int64_t ConvOut(int64_t in, int64_t kernel, int64_t stride, int64_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

}  // namespace

Tensor Conv2DForward(const Tensor& x, const Tensor& weight, const Tensor& bias,
                     const Conv2DArgs& args) {
  NAUTILUS_CHECK_EQ(x.shape().rank(), 4);
  NAUTILUS_CHECK_EQ(weight.shape().rank(), 4);
  const int64_t b = x.shape().dim(0);
  const int64_t c = x.shape().dim(1);
  const int64_t h = x.shape().dim(2);
  const int64_t w = x.shape().dim(3);
  const int64_t oc = weight.shape().dim(0);
  NAUTILUS_CHECK_EQ(weight.shape().dim(1), c);
  const int64_t kh = weight.shape().dim(2);
  const int64_t kw = weight.shape().dim(3);
  const int64_t oh = ConvOut(h, kh, args.stride, args.padding);
  const int64_t ow = ConvOut(w, kw, args.stride, args.padding);
  Tensor out = Tensor::Uninitialized(Shape({b, oc, oh, ow}));
  const float* px = x.data();
  const float* pw = weight.data();
  const float* pb = bias.empty() ? nullptr : bias.data();
  float* po = out.data();
  // One output plane per (sample, output channel): all writes disjoint.
  ParallelFor(b * oc, [&](int64_t p_begin, int64_t p_end) {
    for (int64_t pidx = p_begin; pidx < p_end; ++pidx) {
      const int64_t n = pidx / oc;
      const int64_t o = pidx % oc;
      float* oplane = po + (n * oc + o) * oh * ow;
      const float bias_v = pb != nullptr ? pb[o] : 0.0f;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float acc = bias_v;
          const int64_t iy0 = oy * args.stride - args.padding;
          const int64_t ix0 = ox * args.stride - args.padding;
          for (int64_t ci = 0; ci < c; ++ci) {
            const float* xplane = px + (n * c + ci) * h * w;
            const float* wplane = pw + ((o * c + ci) * kh) * kw;
            for (int64_t ky = 0; ky < kh; ++ky) {
              const int64_t iy = iy0 + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < kw; ++kx) {
                const int64_t ix = ix0 + kx;
                if (ix < 0 || ix >= w) continue;
                acc += xplane[iy * w + ix] * wplane[ky * kw + kx];
              }
            }
          }
          oplane[oy * ow + ox] = acc;
        }
      }
    }
  });
  return out;
}

void Conv2DBackward(const Tensor& dy, const Tensor& x, const Tensor& weight,
                    const Conv2DArgs& args, Tensor* dx, Tensor* dweight,
                    Tensor* dbias) {
  const int64_t b = x.shape().dim(0);
  const int64_t c = x.shape().dim(1);
  const int64_t h = x.shape().dim(2);
  const int64_t w = x.shape().dim(3);
  const int64_t oc = weight.shape().dim(0);
  const int64_t kh = weight.shape().dim(2);
  const int64_t kw = weight.shape().dim(3);
  const int64_t oh = dy.shape().dim(2);
  const int64_t ow = dy.shape().dim(3);
  if (dx != nullptr) *dx = Tensor(x.shape());
  if (dweight != nullptr) *dweight = Tensor(weight.shape());
  if (dbias != nullptr) *dbias = Tensor(Shape({oc}));
  const float* pdy = dy.data();
  const float* px = x.data();
  const float* pw = weight.data();
  // dx is disjoint per sample; dweight/dbias reduce over samples via
  // fixed-size batch chunks (size depends only on b), with chunk partials
  // merged serially in chunk order so gradients are bitwise identical at
  // any parallelism degree.
  const int64_t wsize = weight.NumElements();
  const int64_t chunk_b = std::max<int64_t>(1, (b + 15) / 16);
  const int64_t chunks = (b + chunk_b - 1) / chunk_b;
  std::vector<float> partial_w;
  std::vector<float> partial_b;
  if (chunks > 1) {
    if (dweight != nullptr) {
      partial_w.assign(static_cast<size_t>(chunks * wsize), 0.0f);
    }
    if (dbias != nullptr) {
      partial_b.assign(static_cast<size_t>(chunks * oc), 0.0f);
    }
  }
  ParallelFor(chunks, [&](int64_t cb, int64_t ce) {
    for (int64_t ch = cb; ch < ce; ++ch) {
      float* dw = nullptr;
      if (dweight != nullptr) {
        dw = chunks > 1 ? partial_w.data() + ch * wsize : dweight->data();
      }
      float* db = nullptr;
      if (dbias != nullptr) {
        db = chunks > 1 ? partial_b.data() + ch * oc : dbias->data();
      }
      const int64_t n0 = ch * chunk_b;
      const int64_t n1 = std::min(b, n0 + chunk_b);
      for (int64_t n = n0; n < n1; ++n) {
        for (int64_t o = 0; o < oc; ++o) {
          const float* dyplane = pdy + (n * oc + o) * oh * ow;
          for (int64_t oy = 0; oy < oh; ++oy) {
            for (int64_t ox = 0; ox < ow; ++ox) {
              const float g = dyplane[oy * ow + ox];
              if (g == 0.0f) continue;
              if (db != nullptr) db[o] += g;
              const int64_t iy0 = oy * args.stride - args.padding;
              const int64_t ix0 = ox * args.stride - args.padding;
              for (int64_t ci = 0; ci < c; ++ci) {
                const float* xplane = px + (n * c + ci) * h * w;
                const float* wplane = pw + ((o * c + ci) * kh) * kw;
                float* dxplane =
                    dx != nullptr ? dx->data() + (n * c + ci) * h * w : nullptr;
                float* dwplane =
                    dw != nullptr ? dw + ((o * c + ci) * kh) * kw : nullptr;
                for (int64_t ky = 0; ky < kh; ++ky) {
                  const int64_t iy = iy0 + ky;
                  if (iy < 0 || iy >= h) continue;
                  for (int64_t kx = 0; kx < kw; ++kx) {
                    const int64_t ix = ix0 + kx;
                    if (ix < 0 || ix >= w) continue;
                    if (dwplane != nullptr) {
                      dwplane[ky * kw + kx] += g * xplane[iy * w + ix];
                    }
                    if (dxplane != nullptr) {
                      dxplane[iy * w + ix] += g * wplane[ky * kw + kx];
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  });
  if (chunks > 1) {
    for (int64_t ch = 0; ch < chunks; ++ch) {
      if (dweight != nullptr) {
        const float* dw = partial_w.data() + ch * wsize;
        float* out_w = dweight->data();
        for (int64_t i = 0; i < wsize; ++i) out_w[i] += dw[i];
      }
      if (dbias != nullptr) {
        const float* db = partial_b.data() + ch * oc;
        float* out_b = dbias->data();
        for (int64_t o = 0; o < oc; ++o) out_b[o] += db[o];
      }
    }
  }
}

Tensor MaxPool2DForward(const Tensor& x, int64_t kernel, MaxPoolCache* cache) {
  NAUTILUS_CHECK_EQ(x.shape().rank(), 4);
  const int64_t b = x.shape().dim(0);
  const int64_t c = x.shape().dim(1);
  const int64_t h = x.shape().dim(2);
  const int64_t w = x.shape().dim(3);
  const int64_t oh = h / kernel;
  const int64_t ow = w / kernel;
  NAUTILUS_CHECK_GT(oh, 0);
  NAUTILUS_CHECK_GT(ow, 0);
  Tensor out = Tensor::Uninitialized(Shape({b, c, oh, ow}));
  cache->argmax.assign(static_cast<size_t>(out.NumElements()), 0);
  const float* px = x.data();
  float* po = out.data();
  // Plane-parallel: each (sample, channel) plane owns its output slice.
  ParallelFor(b * c, [&](int64_t p_begin, int64_t p_end) {
    for (int64_t pidx = p_begin; pidx < p_end; ++pidx) {
      const float* xplane = px + pidx * h * w;
      const int64_t plane_base = pidx * h * w;
      int64_t oi = pidx * oh * ow;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = 0;
          for (int64_t ky = 0; ky < kernel; ++ky) {
            for (int64_t kx = 0; kx < kernel; ++kx) {
              const int64_t iy = oy * kernel + ky;
              const int64_t ix = ox * kernel + kx;
              const float v = xplane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = plane_base + iy * w + ix;
              }
            }
          }
          po[oi] = best;
          cache->argmax[static_cast<size_t>(oi)] = best_idx;
        }
      }
    }
  });
  return out;
}

Tensor MaxPool2DBackward(const Tensor& dy, const Shape& x_shape,
                         const MaxPoolCache& cache) {
  Tensor dx(x_shape);
  const float* pdy = dy.data();
  float* pdx = dx.data();
  NAUTILUS_CHECK_EQ(static_cast<int64_t>(cache.argmax.size()),
                    dy.NumElements());
  // Pooling windows are disjoint (stride == kernel), so every argmax target
  // is written by exactly one output element — the scatter is race-free.
  ParallelFor(
      dy.NumElements(),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          pdx[cache.argmax[static_cast<size_t>(i)]] += pdy[i];
        }
      },
      /*min_chunk=*/16384);
  return dx;
}

Tensor GlobalAvgPool(const Tensor& x) {
  NAUTILUS_CHECK_EQ(x.shape().rank(), 4);
  const int64_t b = x.shape().dim(0);
  const int64_t c = x.shape().dim(1);
  const int64_t hw = x.shape().dim(2) * x.shape().dim(3);
  Tensor out = Tensor::Uninitialized(Shape({b, c}));
  const float* px = x.data();
  float* po = out.data();
  const float inv = 1.0f / static_cast<float>(hw);
  ParallelFor(
      b * c,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const float* plane = px + i * hw;
          float acc = 0.0f;
          for (int64_t j = 0; j < hw; ++j) acc += plane[j];
          po[i] = acc * inv;
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 4096 / std::max<int64_t>(hw, 1)));
  return out;
}

Tensor GlobalAvgPoolBackward(const Tensor& dy, const Shape& x_shape) {
  const int64_t b = x_shape.dim(0);
  const int64_t c = x_shape.dim(1);
  const int64_t hw = x_shape.dim(2) * x_shape.dim(3);
  Tensor dx = Tensor::Uninitialized(x_shape);
  const float* pdy = dy.data();
  float* pdx = dx.data();
  const float inv = 1.0f / static_cast<float>(hw);
  ParallelFor(
      b * c,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const float g = pdy[i] * inv;
          float* plane = pdx + i * hw;
          for (int64_t j = 0; j < hw; ++j) plane[j] = g;
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 4096 / std::max<int64_t>(hw, 1)));
  return dx;
}

Tensor ChannelAffineForward(const Tensor& x, const Tensor& scale,
                            const Tensor& shift) {
  NAUTILUS_CHECK_EQ(x.shape().rank(), 4);
  const int64_t b = x.shape().dim(0);
  const int64_t c = x.shape().dim(1);
  const int64_t hw = x.shape().dim(2) * x.shape().dim(3);
  NAUTILUS_CHECK_EQ(scale.NumElements(), c);
  NAUTILUS_CHECK_EQ(shift.NumElements(), c);
  Tensor out = Tensor::Uninitialized(x.shape());
  const float* px = x.data();
  const float* ps = scale.data();
  const float* pt = shift.data();
  float* po = out.data();
  ParallelFor(
      b * c,
      [&](int64_t begin, int64_t end) {
        for (int64_t pidx = begin; pidx < end; ++pidx) {
          const int64_t ci = pidx % c;
          const float s = ps[ci];
          const float t = pt[ci];
          const float* xplane = px + pidx * hw;
          float* oplane = po + pidx * hw;
          for (int64_t j = 0; j < hw; ++j) oplane[j] = xplane[j] * s + t;
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 4096 / std::max<int64_t>(hw, 1)));
  return out;
}

void ChannelAffineBackward(const Tensor& dy, const Tensor& x,
                           const Tensor& scale, Tensor* dx, Tensor* dscale,
                           Tensor* dshift) {
  const int64_t b = x.shape().dim(0);
  const int64_t c = x.shape().dim(1);
  const int64_t hw = x.shape().dim(2) * x.shape().dim(3);
  // dx is fully overwritten; dscale/dshift accumulate and stay zeroed.
  if (dx != nullptr) *dx = Tensor::Uninitialized(x.shape());
  if (dscale != nullptr) *dscale = Tensor(Shape({c}));
  if (dshift != nullptr) *dshift = Tensor(Shape({c}));
  const float* pdy = dy.data();
  const float* px = x.data();
  const float* ps = scale.data();
  // Channel-parallel: each worker owns dscale[ci]/dshift[ci] and the (n, ci)
  // dx planes for its channels, accumulating over samples in ascending order
  // — the same per-channel order as the sequential loop, so bits match.
  ParallelFor(
      c,
      [&](int64_t c_begin, int64_t c_end) {
        for (int64_t ci = c_begin; ci < c_end; ++ci) {
          float acc_scale = 0.0f;
          float acc_shift = 0.0f;
          for (int64_t n = 0; n < b; ++n) {
            const float* dyplane = pdy + (n * c + ci) * hw;
            const float* xplane = px + (n * c + ci) * hw;
            float* dxplane =
                dx != nullptr ? dx->data() + (n * c + ci) * hw : nullptr;
            float plane_scale = 0.0f;
            float plane_shift = 0.0f;
            for (int64_t j = 0; j < hw; ++j) {
              plane_scale += dyplane[j] * xplane[j];
              plane_shift += dyplane[j];
              if (dxplane != nullptr) dxplane[j] = dyplane[j] * ps[ci];
            }
            acc_scale += plane_scale;
            acc_shift += plane_shift;
          }
          if (dscale != nullptr) dscale->data()[ci] += acc_scale;
          if (dshift != nullptr) dshift->data()[ci] += acc_shift;
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 4096 / std::max<int64_t>(b * hw, 1)));
}

}  // namespace ops
}  // namespace nautilus

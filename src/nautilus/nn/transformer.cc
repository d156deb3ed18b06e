#include "nautilus/nn/transformer.h"

#include <algorithm>
#include <cmath>

#include "nautilus/tensor/ops.h"
#include "nautilus/util/logging.h"
#include "nautilus/util/parallel.h"

namespace nautilus {
namespace nn {

namespace {
constexpr float kLnEps = 1e-5f;
}  // namespace

// ---------------------------------------------------------------------------
// PagedKvEntry
// ---------------------------------------------------------------------------

void PagedKvEntry::Init(int64_t h, int64_t d, int64_t rows) {
  NAUTILUS_CHECK_EQ(page_rows, 0) << "PagedKvEntry::Init may only run once";
  NAUTILUS_CHECK_GT(h, 0);
  NAUTILUS_CHECK_GT(d, 0);
  NAUTILUS_CHECK_GT(rows, 0);
  heads = h;
  dh = d;
  page_rows = rows;
}

void PagedKvEntry::AppendRow(const float* k_row, const float* v_row) {
  NAUTILUS_CHECK_GT(page_rows, 0) << "PagedKvEntry::Init must run first";
  const int64_t idx = len / page_rows;
  const int64_t off = len % page_rows;
  if (off == 0 && idx == static_cast<int64_t>(pages.size())) {
    pages.push_back(std::make_shared<KvPage>(heads, page_rows, dh));
  }
  NAUTILUS_CHECK_LT(idx, static_cast<int64_t>(pages.size()));
  std::shared_ptr<KvPage>& tail = pages[static_cast<size_t>(idx)];
  if (tail.use_count() > 1) {
    // Divergence from a shared (partially attached) page: copy the `off`
    // rows this stream can see into a private page before writing.
    auto fresh = std::make_shared<KvPage>(heads, page_rows, dh);
    for (int64_t hd = 0; hd < heads; ++hd) {
      const int64_t plane = hd * page_rows * dh;
      std::copy(tail->k.data() + plane, tail->k.data() + plane + off * dh,
                fresh->k.data() + plane);
      std::copy(tail->v.data() + plane, tail->v.data() + plane + off * dh,
                fresh->v.data() + plane);
    }
    tail = std::move(fresh);
  }
  for (int64_t hd = 0; hd < heads; ++hd) {
    const int64_t at = (hd * page_rows + off) * dh;
    std::copy(k_row + hd * dh, k_row + (hd + 1) * dh, tail->k.data() + at);
    std::copy(v_row + hd * dh, v_row + (hd + 1) * dh, tail->v.data() + at);
  }
  ++len;
}

void PagedKvEntry::AttachShared(std::shared_ptr<KvPage> page, int64_t rows) {
  NAUTILUS_CHECK_GT(page_rows, 0) << "PagedKvEntry::Init must run first";
  NAUTILUS_CHECK(page != nullptr);
  NAUTILUS_CHECK_GE(rows, 1);
  NAUTILUS_CHECK_LE(rows, page_rows);
  NAUTILUS_CHECK_EQ(len % page_rows, 0)
      << "shared pages attach only at page boundaries";
  NAUTILUS_CHECK_EQ(len / page_rows, static_cast<int64_t>(pages.size()))
      << "cannot attach past a partial tail page";
  pages.push_back(std::move(page));
  len += rows;
}

void PagedKvEntry::CollectPageTable(std::vector<const float*>* k_pages,
                                    std::vector<const float*>* v_pages) const {
  k_pages->resize(pages.size());
  v_pages->resize(pages.size());
  for (size_t p = 0; p < pages.size(); ++p) {
    (*k_pages)[p] = pages[p]->k.data();
    (*v_pages)[p] = pages[p]->v.data();
  }
}

int64_t PagedKvEntry::SizeBytes() const {
  int64_t total = 0;
  for (const std::shared_ptr<KvPage>& p : pages) total += p->SizeBytes();
  return total;
}

bool PagedKvEntry::TailShared() const {
  const int64_t idx = len / page_rows;
  if (idx >= static_cast<int64_t>(pages.size())) return false;
  return pages[static_cast<size_t>(idx)].use_count() > 1;
}

// ---------------------------------------------------------------------------
// EmbeddingBlockLayer
// ---------------------------------------------------------------------------

namespace {

class EmbeddingBlockCache : public LayerCache {
 public:
  ops::LayerNormCache ln;
};

}  // namespace

EmbeddingBlockLayer::EmbeddingBlockLayer(std::string name, int64_t vocab,
                                         int64_t seq_len, int64_t hidden,
                                         Rng* rng)
    : Layer(std::move(name)),
      vocab_(vocab),
      seq_len_(seq_len),
      hidden_(hidden),
      token_table_(
          MakeParam(name_ + ".tok", Shape({vocab, hidden}), rng, 0.02f)),
      pos_table_(
          MakeParam(name_ + ".pos", Shape({seq_len, hidden}), rng, 0.02f)),
      gamma_(MakeConstParam(name_ + ".gamma", Shape({hidden}), 1.0f)),
      beta_(MakeConstParam(name_ + ".beta", Shape({hidden}), 0.0f)) {}

EmbeddingBlockLayer::EmbeddingBlockLayer(std::string name, int64_t vocab,
                                         int64_t seq_len, int64_t hidden,
                                         Parameter token_table,
                                         Parameter pos_table, Parameter gamma,
                                         Parameter beta)
    : Layer(std::move(name)),
      vocab_(vocab),
      seq_len_(seq_len),
      hidden_(hidden),
      token_table_(std::move(token_table)),
      pos_table_(std::move(pos_table)),
      gamma_(std::move(gamma)),
      beta_(std::move(beta)) {}

Shape EmbeddingBlockLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  NAUTILUS_CHECK_EQ(inputs[0].rank(), 2);  // [b, s]
  NAUTILUS_CHECK_EQ(inputs[0].dim(1), seq_len_);
  return Shape({inputs[0].dim(0), seq_len_, hidden_});
}

double EmbeddingBlockLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>&) const {
  // gather (s*h copies) + positional add (s*h) + layernorm (~8 s*h).
  return 10.0 * static_cast<double>(seq_len_ * hidden_);
}

double EmbeddingBlockLayer::InternalActivationBytesPerRecord(
    const std::vector<Shape>&) const {
  // token-embedding output and the pre-norm sum.
  return 2.0 * static_cast<double>(seq_len_ * hidden_) * sizeof(float);
}

Tensor EmbeddingBlockLayer::Forward(const std::vector<const Tensor*>& inputs,
                                    std::unique_ptr<LayerCache>* cache) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  Tensor emb = ops::EmbeddingForward(*inputs[0], token_table_.value);
  // Broadcast-add the positional table to each record.
  const int64_t b = emb.shape().dim(0);
  float* pe = emb.data();
  const float* pp = pos_table_.value.data();
  const int64_t plane = seq_len_ * hidden_;
  for (int64_t i = 0; i < b; ++i) {
    float* rec = pe + i * plane;
    for (int64_t j = 0; j < plane; ++j) rec[j] += pp[j];
  }
  auto c = std::make_unique<EmbeddingBlockCache>();
  Tensor y =
      ops::LayerNormForward(emb, gamma_.value, beta_.value, kLnEps, &c->ln);
  if (cache != nullptr) *cache = std::move(c);
  return y;
}

Tensor EmbeddingBlockLayer::ServeEmbedRows(const int64_t* tokens,
                                           const int64_t* positions,
                                           int64_t n) const {
  Tensor emb = Tensor::Uninitialized(Shape({n, hidden_}));
  const float* pt = token_table_.value.data();
  const float* pp = pos_table_.value.data();
  float* pe = emb.data();
  for (int64_t i = 0; i < n; ++i) {
    NAUTILUS_CHECK_GE(tokens[i], 0);
    NAUTILUS_CHECK_LT(tokens[i], vocab_);
    NAUTILUS_CHECK_GE(positions[i], 0);
    NAUTILUS_CHECK_LT(positions[i], seq_len_);
    const float* trow = pt + tokens[i] * hidden_;
    const float* prow = pp + positions[i] * hidden_;
    float* erow = pe + i * hidden_;
    // Same arithmetic as Forward: gathered token row, then += positional.
    for (int64_t j = 0; j < hidden_; ++j) erow[j] = trow[j] + prow[j];
  }
  ops::LayerNormCache ln;  // serving never runs backward; dropped on return
  return ops::LayerNormForward(emb, gamma_.value, beta_.value, kLnEps, &ln);
}

std::vector<Tensor> EmbeddingBlockLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache& cache, const std::vector<bool>& needs_input_grad) {
  const auto& c = static_cast<const EmbeddingBlockCache&>(cache);
  Tensor dsum, dgamma, dbeta;
  ops::LayerNormBackward(grad_out, gamma_.value, c.ln, &dsum, &dgamma, &dbeta);
  ops::AxpyInPlace(1.0f, dgamma, &gamma_.grad);
  ops::AxpyInPlace(1.0f, dbeta, &beta_.grad);
  // Positional gradient: sum over the batch.
  const int64_t b = dsum.shape().dim(0);
  const int64_t plane = seq_len_ * hidden_;
  const float* pd = dsum.data();
  float* pp = pos_table_.grad.data();
  for (int64_t i = 0; i < b; ++i) {
    const float* rec = pd + i * plane;
    for (int64_t j = 0; j < plane; ++j) pp[j] += rec[j];
  }
  ops::EmbeddingBackward(*inputs[0], dsum, &token_table_.grad);
  // Integer token-id inputs have no meaningful gradient.
  return {needs_input_grad[0] ? Tensor(inputs[0]->shape()) : Tensor()};
}

std::vector<Parameter*> EmbeddingBlockLayer::Params() {
  return {&token_table_, &pos_table_, &gamma_, &beta_};
}

std::shared_ptr<Layer> EmbeddingBlockLayer::Clone() const {
  return std::shared_ptr<Layer>(new EmbeddingBlockLayer(
      name_, vocab_, seq_len_, hidden_, token_table_, pos_table_, gamma_,
      beta_));
}

// ---------------------------------------------------------------------------
// TransformerBlockLayer
// ---------------------------------------------------------------------------

namespace {

class TransformerCache : public LayerCache {
 public:
  Tensor qh, kh, vh;        // [b, heads, s, dh]
  ops::AttentionCache attn;
  Tensor attn_merged;       // a = merge(heads) [b, s, h]
  Tensor h1;                // post-LN1 (FFN input)
  Tensor z1;                // pre-gelu
  Tensor g;                 // gelu output
  ops::LayerNormCache ln1;
  ops::LayerNormCache ln2;
};

}  // namespace

TransformerBlockLayer::TransformerBlockLayer(std::string name, int64_t hidden,
                                             int64_t heads, int64_t ffn_dim)
    : Layer(std::move(name)), hidden_(hidden), heads_(heads),
      ffn_dim_(ffn_dim) {}

TransformerBlockLayer::TransformerBlockLayer(std::string name, int64_t hidden,
                                             int64_t heads, int64_t ffn_dim,
                                             Rng* rng)
    : TransformerBlockLayer(std::move(name), hidden, heads, ffn_dim) {
  NAUTILUS_CHECK_EQ(hidden % heads, 0);
  const float s = 1.0f / std::sqrt(static_cast<float>(hidden));
  auto mat = [&](const std::string& n, int64_t r, int64_t c) {
    params_.push_back(std::make_unique<Parameter>(
        MakeParam(name_ + "." + n, Shape({r, c}), rng, s)));
    return params_.back().get();
  };
  auto vec = [&](const std::string& n, int64_t d, float fill) {
    params_.push_back(std::make_unique<Parameter>(
        MakeConstParam(name_ + "." + n, Shape({d}), fill)));
    return params_.back().get();
  };
  wq_ = mat("Wq", hidden, hidden);
  bq_ = vec("bq", hidden, 0.0f);
  wk_ = mat("Wk", hidden, hidden);
  bk_ = vec("bk", hidden, 0.0f);
  wv_ = mat("Wv", hidden, hidden);
  bv_ = vec("bv", hidden, 0.0f);
  wo_ = mat("Wo", hidden, hidden);
  bo_ = vec("bo", hidden, 0.0f);
  w1_ = mat("W1", hidden, ffn_dim);
  b1_ = vec("b1", ffn_dim, 0.0f);
  w2_ = mat("W2", ffn_dim, hidden);
  b2_ = vec("b2", hidden, 0.0f);
  ln1_gamma_ = vec("ln1.gamma", hidden, 1.0f);
  ln1_beta_ = vec("ln1.beta", hidden, 0.0f);
  ln2_gamma_ = vec("ln2.gamma", hidden, 1.0f);
  ln2_beta_ = vec("ln2.beta", hidden, 0.0f);
}

Shape TransformerBlockLayer::OutputShape(
    const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  NAUTILUS_CHECK_EQ(inputs[0].rank(), 3);
  NAUTILUS_CHECK_EQ(inputs[0].dim(2), hidden_);
  return inputs[0];
}

double TransformerBlockLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  const double s = static_cast<double>(input_record_shapes[0].dim(1));
  const double h = static_cast<double>(hidden_);
  const double f = static_cast<double>(ffn_dim_);
  // QKV + output projections, attention scores + weighted sum, FFN, norms.
  return 8.0 * s * h * h + 4.0 * s * s * h + 4.0 * s * h * f + 20.0 * s * h;
}

double TransformerBlockLayer::InternalActivationBytesPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  const double s = static_cast<double>(input_record_shapes[0].dim(1));
  const double h = static_cast<double>(hidden_);
  const double f = static_cast<double>(ffn_dim_);
  // q,k,v, attention out, o-projection, residual1, h1, z2, residual2 (9 s*h)
  // plus z1 and gelu (2 s*f) plus attention probabilities (heads * s * s).
  return (9.0 * s * h + 2.0 * s * f + static_cast<double>(heads_) * s * s) *
         sizeof(float);
}

Tensor TransformerBlockLayer::Forward(const std::vector<const Tensor*>& inputs,
                                      std::unique_ptr<LayerCache>* cache) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  const Tensor& x = *inputs[0];
  const Shape& xs = x.shape();
  auto c = std::make_unique<TransformerCache>();

  // Every projection fuses matmul + bias (and the FFN adds GELU) into a
  // single GEMM pass via the epilogue hooks.
  auto project = [&](const Parameter& w, const Parameter& b) {
    return ops::DenseForward(x, w.value, b.value, ops::EpilogueKind::kBias)
        .Reshaped(xs);
  };
  Tensor q = project(*wq_, *bq_);
  Tensor k = project(*wk_, *bk_);
  Tensor v = project(*wv_, *bv_);
  c->qh = ops::SplitHeads(q, heads_);
  c->kh = ops::SplitHeads(k, heads_);
  c->vh = ops::SplitHeads(v, heads_);
  Tensor ah = ops::AttentionForward(c->qh, c->kh, c->vh, &c->attn);
  c->attn_merged = ops::MergeHeads(ah);
  Tensor o = ops::DenseForward(c->attn_merged, wo_->value, bo_->value,
                               ops::EpilogueKind::kBias)
                 .Reshaped(xs);
  Tensor r1 = ops::Add(x, o);
  c->h1 = ops::LayerNormForward(r1, ln1_gamma_->value, ln1_beta_->value,
                                kLnEps, &c->ln1);
  // Fused FFN entry: g = gelu(h1 W1 + b1), with z1 captured for backward.
  c->g = ops::DenseForward(c->h1, w1_->value, b1_->value,
                           ops::EpilogueKind::kBiasGelu, &c->z1);
  Tensor z2 = ops::DenseForward(c->g, w2_->value, b2_->value,
                                ops::EpilogueKind::kBias)
                  .Reshaped(xs);
  Tensor r2 = ops::Add(c->h1, z2);
  Tensor y = ops::LayerNormForward(r2, ln2_gamma_->value, ln2_beta_->value,
                                   kLnEps, &c->ln2);
  if (cache != nullptr) *cache = std::move(c);
  return y;
}

void TransformerBlockLayer::EnsureQuantWeights(quant::QuantMode mode) const {
  std::lock_guard<std::mutex> lock(quant_mu_);
  const Parameter* ws[6] = {wq_, wk_, wv_, wo_, w1_, w2_};
  if (mode == quant::QuantMode::kInt8) {
    if (qweights_ready_) return;
    for (int i = 0; i < 6; ++i) {
      const Shape& s = ws[i]->value.shape();
      qweights_[static_cast<size_t>(i)] =
          quant::QuantizePerColumn(ws[i]->value.data(), s.dim(0), s.dim(1));
    }
    qweights_ready_ = true;
  } else if (mode == quant::QuantMode::kF16) {
    if (f16_ready_) return;
    for (int i = 0; i < 6; ++i) {
      weights_f16_[static_cast<size_t>(i)] = ops::RoundTripF16(ws[i]->value);
    }
    f16_ready_ = true;
  }
}

Tensor TransformerBlockLayer::ForwardQuantized(
    const std::vector<const Tensor*>& inputs) const {
  if (quant::GlobalQuantMode() == quant::QuantMode::kOff) {
    return Forward(inputs, nullptr);
  }
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  const Tensor& x = *inputs[0];
  const Shape& xs = x.shape();

  // Same dataflow as Forward, minus the backward cache (the executor only
  // routes here when no gradient ever visits this node); every dense
  // projection runs reduced-precision, attention/layer norm/residuals f32.
  Tensor q = ServeProject(0, x, ops::EpilogueKind::kBias).Reshaped(xs);
  Tensor k = ServeProject(1, x, ops::EpilogueKind::kBias).Reshaped(xs);
  Tensor v = ServeProject(2, x, ops::EpilogueKind::kBias).Reshaped(xs);
  Tensor qh = ops::SplitHeads(q, heads_);
  Tensor kh = ops::SplitHeads(k, heads_);
  Tensor vh = ops::SplitHeads(v, heads_);
  // Cache-free attention: no backward ever visits this node, so allocating
  // (and immediately dropping) the O(b*heads*s^2) probability tensor of
  // AttentionForward would be pure waste.
  return ServeFfnTail(x, ops::MergeHeads(ops::AttentionInference(qh, kh, vh)));
}

Tensor TransformerBlockLayer::ServeProject(size_t slot, const Tensor& in,
                                           ops::EpilogueKind kind) const {
  const Parameter* weights[6] = {wq_, wk_, wv_, wo_, w1_, w2_};
  const Parameter* biases[6] = {bq_, bk_, bv_, bo_, b1_, b2_};
  const quant::QuantMode mode = quant::GlobalQuantMode();
  if (mode == quant::QuantMode::kOff) {
    return ops::DenseForward(in, weights[slot]->value, biases[slot]->value,
                             kind);
  }
  EnsureQuantWeights(mode);
  return mode == quant::QuantMode::kInt8
             ? ops::QuantizedDenseForward(in, qweights_[slot],
                                          biases[slot]->value, kind)
             : ops::DenseForward(in, weights_f16_[slot], biases[slot]->value,
                                 kind);
}

Tensor TransformerBlockLayer::ServeFfnTail(const Tensor& x,
                                           const Tensor& attn_merged) const {
  Tensor o = ServeProject(3, attn_merged, ops::EpilogueKind::kBias);
  Tensor r1 = ops::Add(x, std::move(o).Reshaped(x.shape()));
  ops::LayerNormCache ln1;
  Tensor h1 = ops::LayerNormForward(r1, ln1_gamma_->value, ln1_beta_->value,
                                    kLnEps, &ln1);
  Tensor g = ServeProject(4, h1, ops::EpilogueKind::kBiasGelu);
  Tensor z2 = ServeProject(5, g, ops::EpilogueKind::kBias);
  Tensor r2 = ops::Add(h1, std::move(z2).Reshaped(x.shape()));
  ops::LayerNormCache ln2;
  return ops::LayerNormForward(r2, ln2_gamma_->value, ln2_beta_->value, kLnEps,
                               &ln2);
}

Tensor TransformerBlockLayer::ServeRows(
    const Tensor& x, const std::vector<PagedKvEntry*>& kvs) const {
  NAUTILUS_CHECK_EQ(x.shape().rank(), 2);
  NAUTILUS_CHECK_EQ(x.shape().dim(1), hidden_);
  const int64_t n = x.shape().dim(0);
  NAUTILUS_CHECK_EQ(static_cast<int64_t>(kvs.size()), n);
  const int64_t dh = hidden_ / heads_;
  // One fused (possibly quantized) GEMM per projection over every row: this
  // is where continuous batching amortizes the per-step GEMV.
  Tensor q = ServeProject(0, x, ops::EpilogueKind::kBias);
  Tensor k = ServeProject(1, x, ops::EpilogueKind::kBias);
  Tensor v = ServeProject(2, x, ops::EpilogueKind::kBias);
  std::vector<int64_t> lens(kvs.size());
  for (size_t i = 0; i < kvs.size(); ++i) {
    NAUTILUS_CHECK(kvs[i] != nullptr);
    NAUTILUS_CHECK_EQ(kvs[i]->heads, heads_);
    NAUTILUS_CHECK_EQ(kvs[i]->dh, dh);
    const int64_t row = static_cast<int64_t>(i) * hidden_;
    kvs[i]->AppendRow(k.data() + row, v.data() + row);
    lens[i] = kvs[i]->len;
  }
  // One page table per run of rows sharing an entry, built after every
  // append so fresh and copied-on-write pages are already in place.
  std::vector<std::vector<const float*>> k_pages, v_pages;
  std::vector<size_t> table(kvs.size());
  int64_t max_len = 0;
  for (size_t i = 0; i < kvs.size(); ++i) {
    if (i == 0 || kvs[i] != kvs[i - 1]) {
      k_pages.emplace_back();
      v_pages.emplace_back();
      kvs[i]->CollectPageTable(&k_pages.back(), &v_pages.back());
    }
    table[i] = k_pages.size() - 1;
    max_len = std::max(max_len, lens[i]);
  }
  Tensor attn = Tensor::Uninitialized(Shape({n, hidden_}));
  const float* pq = q.data();
  float* pa = attn.data();
  ParallelFor(n * heads_, [&](int64_t begin, int64_t end) {
    std::vector<float> scratch(static_cast<size_t>(max_len));
    for (int64_t ih = begin; ih < end; ++ih) {
      const int64_t i = ih / heads_;
      const int64_t h = ih % heads_;
      const size_t t = table[static_cast<size_t>(i)];
      const int64_t page_rows = kvs[static_cast<size_t>(i)]->page_rows;
      ops::AttentionDecodeRowPaged(
          pq + i * hidden_ + h * dh, k_pages[t].data(), v_pages[t].data(),
          /*head_offset=*/h * page_rows * dh, lens[static_cast<size_t>(i)],
          page_rows, dh, scratch.data(), pa + i * hidden_ + h * dh);
    }
  });
  return ServeFfnTail(x, attn);
}

std::vector<Tensor> TransformerBlockLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache& cache, const std::vector<bool>& needs_input_grad) {
  const Tensor& x = *inputs[0];
  const Shape& xs = x.shape();
  const auto& c = static_cast<const TransformerCache&>(cache);

  Tensor dr2, dg2, db2v;
  ops::LayerNormBackward(grad_out, ln2_gamma_->value, c.ln2, &dr2, &dg2,
                         &db2v);
  ops::AxpyInPlace(1.0f, dg2, &ln2_gamma_->grad);
  ops::AxpyInPlace(1.0f, db2v, &ln2_beta_->grad);

  // r2 = h1 + z2.
  const Tensor& dz2 = dr2;
  ops::AxpyInPlace(1.0f, ops::MatMulTN(c.g, dz2), &w2_->grad);
  ops::AxpyInPlace(1.0f, ops::ColumnSum(dz2), &b2_->grad);
  Tensor dgelu = ops::MatMulNT(dz2, w2_->value);
  Tensor dz1 = ops::GeluBackward(dgelu, c.z1);
  ops::AxpyInPlace(1.0f, ops::MatMulTN(c.h1, dz1), &w1_->grad);
  ops::AxpyInPlace(1.0f, ops::ColumnSum(dz1), &b1_->grad);
  Tensor dh1 = ops::MatMulNT(dz1, w1_->value).Reshaped(xs);
  ops::AxpyInPlace(1.0f, dr2, &dh1);  // residual path

  Tensor dr1, dg1, db1v;
  ops::LayerNormBackward(dh1, ln1_gamma_->value, c.ln1, &dr1, &dg1, &db1v);
  ops::AxpyInPlace(1.0f, dg1, &ln1_gamma_->grad);
  ops::AxpyInPlace(1.0f, db1v, &ln1_beta_->grad);

  // r1 = x + o.
  const Tensor& do_ = dr1;
  ops::AxpyInPlace(1.0f, ops::MatMulTN(c.attn_merged, do_), &wo_->grad);
  ops::AxpyInPlace(1.0f, ops::ColumnSum(do_), &bo_->grad);
  Tensor da = ops::MatMulNT(do_, wo_->value).Reshaped(xs);
  Tensor dah = ops::SplitHeads(da, heads_);
  Tensor dqh, dkh, dvh;
  ops::AttentionBackward(dah, c.qh, c.kh, c.vh, c.attn, &dqh, &dkh, &dvh);
  Tensor dq = ops::MergeHeads(dqh);
  Tensor dk = ops::MergeHeads(dkh);
  Tensor dv = ops::MergeHeads(dvh);

  ops::AxpyInPlace(1.0f, ops::MatMulTN(x, dq), &wq_->grad);
  ops::AxpyInPlace(1.0f, ops::ColumnSum(dq), &bq_->grad);
  ops::AxpyInPlace(1.0f, ops::MatMulTN(x, dk), &wk_->grad);
  ops::AxpyInPlace(1.0f, ops::ColumnSum(dk), &bk_->grad);
  ops::AxpyInPlace(1.0f, ops::MatMulTN(x, dv), &wv_->grad);
  ops::AxpyInPlace(1.0f, ops::ColumnSum(dv), &bv_->grad);
  if (!needs_input_grad[0]) return {Tensor()};

  Tensor dx = ops::MatMulNT(dq, wq_->value).Reshaped(xs);
  ops::AxpyInPlace(1.0f, ops::MatMulNT(dk, wk_->value).Reshaped(xs), &dx);
  ops::AxpyInPlace(1.0f, ops::MatMulNT(dv, wv_->value).Reshaped(xs), &dx);
  ops::AxpyInPlace(1.0f, dr1, &dx);  // residual path
  return {dx};
}

std::vector<Parameter*> TransformerBlockLayer::Params() {
  std::vector<Parameter*> out;
  out.reserve(params_.size());
  for (auto& p : params_) out.push_back(p.get());
  return out;
}

std::shared_ptr<Layer> TransformerBlockLayer::Clone() const {
  auto copy = std::shared_ptr<TransformerBlockLayer>(
      new TransformerBlockLayer(name_, hidden_, heads_, ffn_dim_));
  for (const auto& p : params_) {
    copy->params_.push_back(std::make_unique<Parameter>(*p));
  }
  auto* raw = copy.get();
  auto** slots_src = &raw->wq_;
  (void)slots_src;
  // Re-establish named accessors in construction order.
  size_t i = 0;
  raw->wq_ = raw->params_[i++].get();
  raw->bq_ = raw->params_[i++].get();
  raw->wk_ = raw->params_[i++].get();
  raw->bk_ = raw->params_[i++].get();
  raw->wv_ = raw->params_[i++].get();
  raw->bv_ = raw->params_[i++].get();
  raw->wo_ = raw->params_[i++].get();
  raw->bo_ = raw->params_[i++].get();
  raw->w1_ = raw->params_[i++].get();
  raw->b1_ = raw->params_[i++].get();
  raw->w2_ = raw->params_[i++].get();
  raw->b2_ = raw->params_[i++].get();
  raw->ln1_gamma_ = raw->params_[i++].get();
  raw->ln1_beta_ = raw->params_[i++].get();
  raw->ln2_gamma_ = raw->params_[i++].get();
  raw->ln2_beta_ = raw->params_[i++].get();
  return copy;
}

// ---------------------------------------------------------------------------
// AdapterLayer
// ---------------------------------------------------------------------------

namespace {

class AdapterCache : public LayerCache {
 public:
  Tensor r;  // post-relu bottleneck (backward re-masks through it)
};

}  // namespace

AdapterLayer::AdapterLayer(std::string name, int64_t hidden,
                           int64_t bottleneck, Rng* rng)
    : Layer(std::move(name)),
      hidden_(hidden),
      bottleneck_(bottleneck),
      w_down_(MakeParam(name_ + ".Wd", Shape({hidden, bottleneck}), rng,
                        1.0f / std::sqrt(static_cast<float>(hidden)))),
      b_down_(MakeConstParam(name_ + ".bd", Shape({bottleneck}), 0.0f)),
      // Near-zero up-projection: the adapter starts close to identity,
      // matching the Houlsby initialization.
      w_up_(MakeParam(name_ + ".Wu", Shape({bottleneck, hidden}), rng, 1e-3f)),
      b_up_(MakeConstParam(name_ + ".bu", Shape({hidden}), 0.0f)) {}

AdapterLayer::AdapterLayer(std::string name, int64_t hidden,
                           int64_t bottleneck, Parameter wd, Parameter bd,
                           Parameter wu, Parameter bu)
    : Layer(std::move(name)),
      hidden_(hidden),
      bottleneck_(bottleneck),
      w_down_(std::move(wd)),
      b_down_(std::move(bd)),
      w_up_(std::move(wu)),
      b_up_(std::move(bu)) {}

Shape AdapterLayer::OutputShape(const std::vector<Shape>& inputs) const {
  NAUTILUS_CHECK_EQ(inputs.size(), 1u);
  NAUTILUS_CHECK_EQ(inputs[0].dim(inputs[0].rank() - 1), hidden_);
  return inputs[0];
}

double AdapterLayer::ForwardFlopsPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  const double rows =
      static_cast<double>(input_record_shapes[0].NumElements()) /
      static_cast<double>(hidden_);
  return rows * 4.0 * static_cast<double>(hidden_) *
             static_cast<double>(bottleneck_) +
         static_cast<double>(input_record_shapes[0].NumElements());
}

double AdapterLayer::InternalActivationBytesPerRecord(
    const std::vector<Shape>& input_record_shapes) const {
  const double rows =
      static_cast<double>(input_record_shapes[0].NumElements()) /
      static_cast<double>(hidden_);
  // bottleneck pre/post activations + up-projection output.
  return (2.0 * rows * static_cast<double>(bottleneck_) +
          static_cast<double>(input_record_shapes[0].NumElements())) *
         sizeof(float);
}

Tensor AdapterLayer::Forward(const std::vector<const Tensor*>& inputs,
                             std::unique_ptr<LayerCache>* cache) const {
  const Tensor& x = *inputs[0];
  auto c = std::make_unique<AdapterCache>();
  // Both bottleneck projections run fused (matmul+bias+activation).
  c->r = ops::DenseForward(x, w_down_.value, b_down_.value,
                           ops::EpilogueKind::kBiasRelu);
  Tensor up = ops::DenseForward(c->r, w_up_.value, b_up_.value,
                                ops::EpilogueKind::kBias);
  Tensor y = ops::Add(x, std::move(up).Reshaped(x.shape()));
  if (cache != nullptr) *cache = std::move(c);
  return y;
}

std::vector<Tensor> AdapterLayer::Backward(
    const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
    const LayerCache& cache, const std::vector<bool>& needs_input_grad) {
  const Tensor& x = *inputs[0];
  const auto& c = static_cast<const AdapterCache&>(cache);
  // y = x + Wu(relu(Wd x)).
  ops::AxpyInPlace(1.0f, ops::MatMulTN(c.r, grad_out), &w_up_.grad);
  ops::AxpyInPlace(1.0f, ops::ColumnSum(grad_out), &b_up_.grad);
  Tensor dr = ops::MatMulNT(grad_out, w_up_.value);
  Tensor dz = ops::ReluBackward(dr, c.r);
  ops::AxpyInPlace(1.0f, ops::MatMulTN(x, dz), &w_down_.grad);
  ops::AxpyInPlace(1.0f, ops::ColumnSum(dz), &b_down_.grad);
  if (!needs_input_grad[0]) return {Tensor()};
  Tensor dx = ops::MatMulNT(dz, w_down_.value).Reshaped(x.shape());
  ops::AxpyInPlace(1.0f, grad_out, &dx);
  return {dx};
}

std::vector<Parameter*> AdapterLayer::Params() {
  return {&w_down_, &b_down_, &w_up_, &b_up_};
}

std::shared_ptr<Layer> AdapterLayer::Clone() const {
  return std::shared_ptr<Layer>(new AdapterLayer(
      name_, hidden_, bottleneck_, w_down_, b_down_, w_up_, b_up_));
}

}  // namespace nn
}  // namespace nautilus

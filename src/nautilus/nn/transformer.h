#ifndef NAUTILUS_NN_TRANSFORMER_H_
#define NAUTILUS_NN_TRANSFORMER_H_

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nautilus/nn/layer.h"
#include "nautilus/tensor/gemm.h"
#include "nautilus/tensor/quant.h"
#include "nautilus/util/random.h"

namespace nautilus {
namespace nn {

/// One fixed-size KV page: `page_rows` positions of [heads, dh] K and V
/// rows, laid out as [heads, page_rows, dh] planes (head h's plane starts at
/// offset h * page_rows * dh). Storage is pool-rented
/// (Tensor::Uninitialized). Pages are shared between streams via
/// shared_ptr — a page referenced by more than one owner is immutable.
struct KvPage {
  Tensor k, v;  // [heads, page_rows, dh]

  KvPage(int64_t heads, int64_t page_rows, int64_t dh)
      : k(Tensor::Uninitialized(Shape({heads, page_rows, dh}))),
        v(Tensor::Uninitialized(Shape({heads, page_rows, dh}))) {}

  int64_t SizeBytes() const { return k.SizeBytes() + v.SizeBytes(); }
};

/// Paged per-(stream, block) KV cache: positions live in fixed-size pages so
/// streams with a common prompt prefix can reference the same physical pages
/// (attached via AttachShared) instead of each materializing its own copy.
/// Appends write only pages this entry exclusively owns; appending into a
/// shared page copies it first (copy-on-write on divergence), so shared
/// pages are never mutated and attached prefixes stay bitwise-stable.
struct PagedKvEntry {
  int64_t heads = 0;
  int64_t dh = 0;
  int64_t page_rows = 0;
  int64_t len = 0;  // valid positions across pages
  std::vector<std::shared_ptr<KvPage>> pages;

  /// Fixes the geometry. Must run once before any append/attach.
  void Init(int64_t heads, int64_t dh, int64_t page_rows);

  /// Appends one position. `k_row`/`v_row` are [heads*dh] in merged layout
  /// (head h at offset h*dh), i.e. one row of the K/V projection output.
  /// Allocates a fresh page at page boundaries; triggers copy-on-write when
  /// the tail page is shared.
  void AppendRow(const float* k_row, const float* v_row);

  /// Attaches `rows` (1 <= rows <= page_rows) positions of `page` by
  /// reference. `len` must be page-aligned (prefix attachment happens before
  /// any private rows exist past it); a partial attach (rows < page_rows)
  /// must be the last one — the next AppendRow copies the page (CoW).
  void AttachShared(std::shared_ptr<KvPage> page, int64_t rows);

  /// Base pointers of every page's K/V storage, for the paged attention
  /// kernel (ops::AttentionDecodeRowPaged); head h's plane sits at
  /// head_offset = h * page_rows * dh within each page.
  void CollectPageTable(std::vector<const float*>* k_pages,
                        std::vector<const float*>* v_pages) const;

  /// Bytes across all referenced pages (shared pages included — see
  /// serve::KvCache for deduplicated accounting).
  int64_t SizeBytes() const;

  /// True when the page holding position `len` (the next append target) is
  /// referenced by another owner too.
  bool TailShared() const;
};

/// BERT-style input block: token embedding + learned positional embedding +
/// layer norm. Maps integer token ids [b, s] to [b, s, hidden]. Treated as a
/// composite layer for memory accounting.
class EmbeddingBlockLayer : public Layer {
 public:
  EmbeddingBlockLayer(std::string name, int64_t vocab, int64_t seq_len,
                      int64_t hidden, Rng* rng);

  std::string type_name() const override { return "EmbeddingBlock"; }
  int64_t hidden() const { return hidden_; }
  int64_t vocab() const { return vocab_; }
  int64_t seq_len() const { return seq_len_; }
  /// Token embedding table [vocab, hidden]; the serving engine ties the LM
  /// head to it (logits = h @ table^T).
  const Tensor& token_table() const { return token_table_.value; }

  /// Serving embed: one output row per (token, position) pair — the gather +
  /// positional add + layer norm of Forward restricted to the given
  /// positions. `tokens` and `positions` are parallel arrays of length `n`
  /// (positions < seq_len). Returns [n, hidden]; bitwise-equal to the
  /// matching rows of Forward on a full [1, seq_len] sequence.
  Tensor ServeEmbedRows(const int64_t* tokens, const int64_t* positions,
                        int64_t n) const;

  Shape OutputShape(const std::vector<Shape>& inputs) const override;
  double ForwardFlopsPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  double InternalActivationBytesPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  Tensor Forward(const std::vector<const Tensor*>& inputs,
                 std::unique_ptr<LayerCache>* cache) const override;
  std::vector<Tensor> Backward(
      const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
      const LayerCache& cache,
      const std::vector<bool>& needs_input_grad) override;
  std::vector<Parameter*> Params() override;
  std::shared_ptr<Layer> Clone() const override;

 private:
  EmbeddingBlockLayer(std::string name, int64_t vocab, int64_t seq_len,
                      int64_t hidden, Parameter token_table,
                      Parameter pos_table, Parameter gamma, Parameter beta);

  int64_t vocab_;
  int64_t seq_len_;
  int64_t hidden_;
  Parameter token_table_;  // [vocab, hidden]
  Parameter pos_table_;    // [seq, hidden]
  Parameter gamma_;        // [hidden]
  Parameter beta_;         // [hidden]
};

/// Post-norm transformer encoder block (multi-head self-attention + FFN with
/// residual connections and layer norms), as in BERT. A composite layer: the
/// paper's memory model charges it the sum of its internal activation
/// tensors (Section 4.3.3).
class TransformerBlockLayer : public Layer {
 public:
  TransformerBlockLayer(std::string name, int64_t hidden, int64_t heads,
                        int64_t ffn_dim, Rng* rng);

  std::string type_name() const override { return "TransformerBlock"; }
  int64_t hidden() const { return hidden_; }
  int64_t heads() const { return heads_; }
  int64_t ffn_dim() const { return ffn_dim_; }

  Shape OutputShape(const std::vector<Shape>& inputs) const override;
  double ForwardFlopsPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  double InternalActivationBytesPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  Tensor Forward(const std::vector<const Tensor*>& inputs,
                 std::unique_ptr<LayerCache>* cache) const override;
  /// Frozen-prefix forward with every dense projection (QKV, output, FFN)
  /// routed through the reduced-precision dense path; attention, layer norm,
  /// and residuals stay f32. Same gating contract as DenseLayer.
  Tensor ForwardQuantized(
      const std::vector<const Tensor*>& inputs) const override;

  /// The serving forward: x is [n, hidden] and row i is the next position
  /// of the stream that kvs[i] caches for this block. A prefill chunk passes
  /// one entry c times; a decode step passes one entry per live stream.
  /// Every row's K/V is appended first; row i then attends causally over the
  /// first `len` positions of its stream, `len` being the stream's length
  /// just after row i was appended. Returns [n, hidden]. Dense projections
  /// honor quant::GlobalQuantMode() exactly like ForwardQuantized.
  ///
  /// Row i is bitwise-equal to the matching row of a whole-prompt pass,
  /// whatever the chunking, the page size, or which other streams share the
  /// call: every row runs the same per-row attention kernel over the same
  /// positions in the same order.
  Tensor ServeRows(const Tensor& x,
                   const std::vector<PagedKvEntry*>& kvs) const;
  std::vector<Tensor> Backward(
      const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
      const LayerCache& cache,
      const std::vector<bool>& needs_input_grad) override;
  std::vector<Parameter*> Params() override;
  std::shared_ptr<Layer> Clone() const override;

 private:
  TransformerBlockLayer(std::string name, int64_t hidden, int64_t heads,
                        int64_t ffn_dim);

  // Quantizes the six projection weights on first quantized forward (the
  // layer is frozen, so the caches never invalidate). Slot order: wq, wk,
  // wv, wo, w1, w2.
  void EnsureQuantWeights(quant::QuantMode mode) const;

  // Fused dense projection for ServeRows and ForwardQuantized: slot indexes
  // the EnsureQuantWeights order, and the weight is taken from the f32 value,
  // the int8 cache, or the f16 cache according to the global quant mode.
  Tensor ServeProject(size_t slot, const Tensor& in,
                      ops::EpilogueKind kind) const;

  // Shared tail of ServeRows/ForwardQuantized: attention-out projection,
  // residuals, layer norms, and the fused FFN.
  Tensor ServeFfnTail(const Tensor& x, const Tensor& attn_merged) const;

  int64_t hidden_;
  int64_t heads_;
  int64_t ffn_dim_;
  // Attention projections [hidden, hidden] + biases.
  std::vector<std::unique_ptr<Parameter>> params_;
  // Named accessors into params_ (set up at construction).
  Parameter* wq_;
  Parameter* bq_;
  Parameter* wk_;
  Parameter* bk_;
  Parameter* wv_;
  Parameter* bv_;
  Parameter* wo_;
  Parameter* bo_;
  Parameter* w1_;
  Parameter* b1_;
  Parameter* w2_;
  Parameter* b2_;
  Parameter* ln1_gamma_;
  Parameter* ln1_beta_;
  Parameter* ln2_gamma_;
  Parameter* ln2_beta_;

  // Lazily built reduced-precision projection caches for ForwardQuantized
  // (same pattern as DenseLayer); indexed in EnsureQuantWeights slot order.
  mutable std::mutex quant_mu_;
  mutable std::array<quant::QuantizedMatrix, 6> qweights_;
  mutable std::array<Tensor, 6> weights_f16_;
  mutable bool qweights_ready_ = false;
  mutable bool f16_ready_ = false;
};

/// Houlsby-style bottleneck adapter with a residual connection:
/// y = x + W_up(relu(W_down x)). Inserted after frozen transformer blocks in
/// the adapter-training scheme (Section 2.4 of the paper).
class AdapterLayer : public Layer {
 public:
  AdapterLayer(std::string name, int64_t hidden, int64_t bottleneck, Rng* rng);

  std::string type_name() const override { return "Adapter"; }
  int64_t bottleneck() const { return bottleneck_; }

  Shape OutputShape(const std::vector<Shape>& inputs) const override;
  double ForwardFlopsPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  double InternalActivationBytesPerRecord(
      const std::vector<Shape>& input_record_shapes) const override;
  Tensor Forward(const std::vector<const Tensor*>& inputs,
                 std::unique_ptr<LayerCache>* cache) const override;
  std::vector<Tensor> Backward(
      const Tensor& grad_out, const std::vector<const Tensor*>& inputs,
      const LayerCache& cache,
      const std::vector<bool>& needs_input_grad) override;
  std::vector<Parameter*> Params() override;
  std::shared_ptr<Layer> Clone() const override;

 private:
  AdapterLayer(std::string name, int64_t hidden, int64_t bottleneck,
               Parameter wd, Parameter bd, Parameter wu, Parameter bu);

  int64_t hidden_;
  int64_t bottleneck_;
  Parameter w_down_;  // [hidden, bottleneck]
  Parameter b_down_;
  Parameter w_up_;  // [bottleneck, hidden]
  Parameter b_up_;
};

}  // namespace nn
}  // namespace nautilus

#endif  // NAUTILUS_NN_TRANSFORMER_H_

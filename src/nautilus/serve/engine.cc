#include "nautilus/serve/engine.h"

#include <algorithm>
#include <string>

#include "nautilus/obs/metrics.h"
#include "nautilus/obs/trace.h"
#include "nautilus/tensor/ops.h"
#include "nautilus/tensor/quant.h"
#include "nautilus/util/logging.h"

namespace nautilus {
namespace serve {

namespace {

obs::Counter& PrefixHits() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("serve.prefix_cache.hits");
  return c;
}
obs::Counter& PrefixMisses() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("serve.prefix_cache.misses");
  return c;
}
obs::Counter& PrefixPagesShared() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("serve.prefix_cache.pages_shared");
  return c;
}
obs::Counter& PrefixRowsReused() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("serve.prefix_cache.rows_reused");
  return c;
}

}  // namespace

Engine::Engine(const zoo::BertLikeModel& model, const EngineOptions& opts)
    : model_(model), opts_(opts) {
  const zoo::BertConfig& cfg = model_.config();
  NAUTILUS_CHECK_GE(opts_.num_adapters, 0);
  NAUTILUS_CHECK_LE(opts_.num_adapters, cfg.num_blocks);
  NAUTILUS_CHECK_GT(opts_.page_rows, 0);
  adapters_.resize(static_cast<size_t>(cfg.num_blocks));
  if (opts_.num_adapters > 0) {
    // Same construction order and Rng stream as BuildBertAdapterModel, so a
    // given adapter_seed serves the weights that builder would train.
    Rng rng(opts_.adapter_seed);
    const int64_t first_adapted = cfg.num_blocks - opts_.num_adapters;
    for (int64_t i = first_adapted; i < cfg.num_blocks; ++i) {
      adapters_[static_cast<size_t>(i)] = std::make_shared<nn::AdapterLayer>(
          "serve.adapter" + std::to_string(i), cfg.hidden,
          /*bottleneck=*/std::max<int64_t>(cfg.hidden / 8, 2), &rng);
    }
  }
  if (opts_.prefix_cache) {
    PrefixCache::Options popts;
    popts.page_rows = opts_.page_rows;
    popts.num_blocks = cfg.num_blocks;
    popts.budget_bytes = opts_.prefix_cache_mb << 20;
    prefix_cache_ = std::make_unique<PrefixCache>(popts);
  }
}

std::unique_ptr<KvCache> Engine::NewCache() const {
  const zoo::BertConfig& cfg = model_.config();
  return std::make_unique<KvCache>(cfg.num_blocks, cfg.heads,
                                   cfg.hidden / cfg.heads, opts_.page_rows);
}

void Engine::CheckCache(const KvCache* cache) const {
  NAUTILUS_CHECK(cache != nullptr);
  NAUTILUS_CHECK_EQ(cache->num_blocks(), num_blocks());
  NAUTILUS_CHECK_EQ(cache->page_rows(), opts_.page_rows)
      << "cache page geometry does not match the engine";
}

Tensor Engine::ServeRows(const int64_t* tokens, const int64_t* positions,
                         const std::vector<KvCache*>& caches) const {
  const size_t n = caches.size();
  Tensor h = model_.embedding()->ServeEmbedRows(tokens, positions,
                                                static_cast<int64_t>(n));
  const auto& blocks = model_.blocks();
  std::vector<nn::PagedKvEntry*> kvs(n);
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (size_t i = 0; i < n; ++i) {
      kvs[i] = caches[i]->entry(static_cast<int64_t>(b));
    }
    h = blocks[b]->ServeRows(h, kvs);
    if (adapters_[b] != nullptr) {
      h = adapters_[b]->Forward({&h}, /*cache=*/nullptr);
    }
  }
  return h;
}

Tensor Engine::Logits(const Tensor& h) const {
  // Weight-tied LM head: [n, hidden] x [vocab, hidden]^T -> [n, vocab].
  return ops::MatMulNT(h, model_.embedding()->token_table());
}

int64_t Engine::BeginPrefill(const int64_t* tokens, int64_t n,
                             KvCache* cache) const {
  CheckCache(cache);
  NAUTILUS_CHECK_EQ(cache->len(), 0);
  NAUTILUS_CHECK_GE(n, 1);
  NAUTILUS_CHECK_LE(n, max_len());
  if (prefix_cache_ == nullptr) return 0;
  // Cap at n-1: the last prompt position is always computed so the final
  // chunk has a row to produce logits from, even on a full trie hit.
  const PrefixCache::AttachResult res =
      prefix_cache_->Attach(tokens, n, /*limit=*/n - 1,
                            static_cast<uint64_t>(quant::GlobalQuantMode()),
                            cache);
  if (res.rows > 0) {
    PrefixHits().Add();
    PrefixPagesShared().Add(res.pages);
    PrefixRowsReused().Add(res.rows);
  } else {
    PrefixMisses().Add();
  }
  return res.rows;
}

Tensor Engine::PrefillChunk(const int64_t* tokens, int64_t c, KvCache* cache,
                            bool want_logits) const {
  obs::TraceScope span("serve", "serve.prefill_chunk");
  CheckCache(cache);
  NAUTILUS_CHECK_GE(c, 1);
  const int64_t start = cache->len();
  NAUTILUS_CHECK_LE(start + c, max_len());

  std::vector<int64_t> positions(static_cast<size_t>(c));
  for (int64_t i = 0; i < c; ++i) {
    positions[static_cast<size_t>(i)] = start + i;
  }
  Tensor h = ServeRows(tokens, positions.data(),
                       std::vector<KvCache*>(static_cast<size_t>(c), cache));
  if (!want_logits) return Tensor();
  // Only the final position feeds generation; slice it before the LM head.
  const int64_t hidden = h.shape().dim(1);
  Tensor last = Tensor::Uninitialized({1, hidden});
  std::copy(h.data() + (c - 1) * hidden, h.data() + c * hidden, last.data());
  return Logits(last);
}

void Engine::FinishPrefill(const int64_t* tokens, int64_t n,
                           KvCache* cache) const {
  CheckCache(cache);
  NAUTILUS_CHECK_EQ(cache->len(), n) << "prefill did not cover the prompt";
  if (prefix_cache_ == nullptr) return;
  prefix_cache_->Insert(tokens, n,
                        static_cast<uint64_t>(quant::GlobalQuantMode()),
                        *cache);
}

Tensor Engine::Prefill(const int64_t* tokens, int64_t n,
                       KvCache* cache) const {
  obs::TraceScope span("serve", "serve.prefill");
  const int64_t start = BeginPrefill(tokens, n, cache);
  Tensor logits =
      PrefillChunk(tokens + start, n - start, cache, /*want_logits=*/true);
  FinishPrefill(tokens, n, cache);
  return logits;
}

Tensor Engine::DecodeStep(const int64_t* last_tokens,
                          const std::vector<KvCache*>& caches) const {
  NAUTILUS_CHECK(!caches.empty());
  std::vector<int64_t> positions(caches.size());
  for (size_t i = 0; i < caches.size(); ++i) {
    CheckCache(caches[i]);
    NAUTILUS_CHECK_GE(caches[i]->len(), 1);
    NAUTILUS_CHECK_LT(caches[i]->len(), max_len());
    positions[i] = caches[i]->len();
  }
  return Logits(ServeRows(last_tokens, positions.data(), caches));
}

}  // namespace serve
}  // namespace nautilus

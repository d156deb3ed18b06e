#ifndef NAUTILUS_SERVE_ENGINE_H_
#define NAUTILUS_SERVE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nautilus/serve/kv_cache.h"
#include "nautilus/serve/prefix_cache.h"
#include "nautilus/tensor/tensor.h"
#include "nautilus/zoo/bert_like.h"

namespace nautilus {
namespace serve {

struct EngineOptions {
  /// Adapters after the top-N transformer blocks (0 = serve the pretrained
  /// encoder as-is). Mirrors zoo::BuildBertAdapterModel: same bottleneck
  /// (max(hidden/8, 2)) and the same per-seed init stream, so the served
  /// weights match a model selected by that builder.
  int64_t num_adapters = 0;
  uint64_t adapter_seed = 1234;

  /// Positions per KV page: fixed-size pages rented from the tensor buffer
  /// pool, shareable across streams. Smaller pages share shorter common
  /// prefixes but cost more page-table entries; the page size never changes
  /// the produced logits.
  int64_t page_rows = 64;
  /// Shared-prefix reuse: cache full prompt pages in a per-model radix trie
  /// and attach them by reference to later prompts with the same prefix, so
  /// the shared rows prefill exactly once.
  bool prefix_cache = true;
  /// Byte budget for trie-retained pages (LRU eviction past it).
  int64_t prefix_cache_mb = 64;
};

/// Autoregressive generation over the selected BERT-like model: embedding +
/// frozen transformer blocks (+ optional adapters) with a weight-tied LM
/// head (logits = h @ token_table^T). Prefill runs a prompt through the
/// causal serving path and fills the stream's KvCache; DecodeStep advances
/// any number of live streams by one position with a single batched forward.
/// All per-stream state lives in KvCache; the only engine-level mutable
/// state is the internally-locked prefix cache, so one Engine is safe to
/// share between threads that own disjoint stream caches.
class Engine {
 public:
  explicit Engine(const zoo::BertLikeModel& model,
                  const EngineOptions& opts = {});

  int64_t vocab() const { return model_.config().vocab; }
  /// Hard generation-length bound: the positional table has seq_len rows.
  int64_t max_len() const { return model_.config().seq_len; }
  int64_t num_blocks() const { return model_.config().num_blocks; }
  int64_t page_rows() const { return opts_.page_rows; }
  /// Null when disabled.
  const PrefixCache* prefix_cache() const { return prefix_cache_.get(); }

  /// Fresh empty cache shaped for this model and page size. Every method
  /// below rejects a cache whose page geometry is not this engine's.
  std::unique_ptr<KvCache> NewCache() const;

  /// Runs an n-token prompt (1 <= n <= max_len) through the model, filling
  /// `cache` (which must be empty). Returns the last position's logits
  /// [1, vocab]. This is BeginPrefill + one PrefillChunk + FinishPrefill: a
  /// cached shared prefix is attached by reference and only the remaining
  /// rows are computed — bitwise-identical logits either way.
  Tensor Prefill(const int64_t* tokens, int64_t n, KvCache* cache) const;

  /// Chunked prefill, for interleaving long prompts with decode steps.
  /// BeginPrefill consults the prefix cache and returns the resume position
  /// (rows attached by reference; 0 on a miss). PrefillChunk then advances
  /// the prompt by c tokens (tokens points at the chunk, positions
  /// cache->len()..cache->len()+c-1); it returns the chunk's last-row
  /// logits when want_logits (the final chunk), else an empty tensor.
  /// FinishPrefill publishes the prompt's full pages to the prefix cache.
  /// Chunk boundaries never change the produced logits.
  int64_t BeginPrefill(const int64_t* tokens, int64_t n, KvCache* cache) const;
  Tensor PrefillChunk(const int64_t* tokens, int64_t c, KvCache* cache,
                      bool want_logits) const;
  void FinishPrefill(const int64_t* tokens, int64_t n, KvCache* cache) const;

  /// One decode step for `caches.size()` live streams. last_tokens[i] is
  /// stream i's most recent token; its position is caches[i]->len(), which
  /// must be in [1, max_len). Returns logits [n, vocab]; row i is
  /// bitwise-independent of which other streams share the batch.
  Tensor DecodeStep(const int64_t* last_tokens,
                    const std::vector<KvCache*>& caches) const;

 private:
  // Dies unless `cache` has this engine's block count and page geometry.
  void CheckCache(const KvCache* cache) const;
  // The one serving forward: embeds (tokens[i], positions[i]), runs every
  // block's ServeRows with caches[i] as row i's stream (a prefill chunk
  // repeats one cache, a decode step lists one per stream), applies the
  // adapters, and returns the final hidden rows [n, hidden].
  Tensor ServeRows(const int64_t* tokens, const int64_t* positions,
                   const std::vector<KvCache*>& caches) const;
  Tensor Logits(const Tensor& h) const;

  const zoo::BertLikeModel& model_;
  EngineOptions opts_;
  // Parallel to model_.blocks(); null where the block has no adapter.
  std::vector<std::shared_ptr<nn::AdapterLayer>> adapters_;
  // Shared-prefix page index; internally locked. Null when disabled.
  std::unique_ptr<PrefixCache> prefix_cache_;
};

}  // namespace serve
}  // namespace nautilus

#endif  // NAUTILUS_SERVE_ENGINE_H_

#ifndef NAUTILUS_SERVE_PREFIX_CACHE_H_
#define NAUTILUS_SERVE_PREFIX_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "nautilus/serve/kv_cache.h"

namespace nautilus {
namespace serve {

/// Per-model radix index over prompt token ids, mapping shared prompt
/// prefixes to ref-counted KV page runs — the serving-time analogue of the
/// paper's frozen-prefix materialization: the K/V rows of a prompt prefix
/// depend only on the token ids at and before each position (causal
/// attention, fixed positions), so two prompts with a common prefix produce
/// bitwise-identical K/V rows for it and can share the physical pages.
///
/// Structure: a trie whose edges are page-sized token chunks (`page_rows`
/// ids per node); each node owns one full KV page per transformer block.
/// `Attach` walks the trie and attaches matching pages to a fresh stream's
/// cache by reference (a partially matching edge attaches the matched rows
/// of its page — the stream's first divergent append then copies the page,
/// see nn::PagedKvEntry). `Insert` publishes a finished prefill's full
/// prompt pages. Entries are keyed by a `variant` tag (the global quant
/// mode) because reduced-precision projections change the K/V bytes.
///
/// A byte budget bounds retained pages: inserts past the budget evict the
/// least-recently-used leaves. Eviction only drops the trie's reference —
/// streams still holding the pages keep them alive until they retire.
class PrefixCache {
 public:
  struct Options {
    int64_t page_rows = 64;
    int64_t num_blocks = 0;
    int64_t budget_bytes = 64ll << 20;
  };

  struct AttachResult {
    int64_t rows = 0;   // prompt positions attached by reference
    int64_t pages = 0;  // physical pages attached (chunks * num_blocks)
  };

  explicit PrefixCache(const Options& opts);

  /// Attaches up to `limit` leading positions of `tokens` to `cache` (which
  /// must be empty, with this trie's page_rows) from cached page runs.
  /// Thread-safe.
  AttachResult Attach(const int64_t* tokens, int64_t n, int64_t limit,
                      uint64_t variant, KvCache* cache);

  /// Publishes the full-page chunks of a completed prefill: `cache` must
  /// hold at least the first `n` positions of `tokens`. Pages already in the
  /// trie are kept (they are the same physical pages when the stream
  /// attached them). Evicts LRU leaves past the byte budget. Thread-safe.
  void Insert(const int64_t* tokens, int64_t n, uint64_t variant,
              const KvCache& cache);

  /// Bytes of K/V pages currently referenced by the trie.
  int64_t CachedBytes() const;
  /// Number of chunk nodes in the trie (across variants).
  int64_t NodeCount() const;

 private:
  struct Node {
    std::vector<int64_t> tokens;  // page_rows ids (empty at a root)
    std::vector<std::shared_ptr<nn::KvPage>> pages;  // one per block
    std::vector<std::unique_ptr<Node>> children;
    uint64_t last_use = 0;
  };

  int64_t NodeBytes(const Node& node) const;
  void EvictLruLeavesLocked();

  const Options opts_;
  mutable std::mutex mu_;
  std::map<uint64_t, Node> roots_;  // by variant (quant mode)
  uint64_t tick_ = 0;
  int64_t cached_bytes_ = 0;
  int64_t node_count_ = 0;
};

}  // namespace serve
}  // namespace nautilus

#endif  // NAUTILUS_SERVE_PREFIX_CACHE_H_

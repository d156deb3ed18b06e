#ifndef NAUTILUS_SERVE_KV_CACHE_H_
#define NAUTILUS_SERVE_KV_CACHE_H_

#include <cstdint>
#include <vector>

#include "nautilus/nn/transformer.h"

namespace nautilus {
namespace serve {

/// Per-stream KV cache: one `nn::PagedKvEntry` per transformer block, all
/// advancing in lockstep (every block appends exactly one position per
/// served row), so `len()` is the number of positions the stream has run
/// through the model. Positions live in fixed pages of `page_rows` rows
/// rented from the tensor buffer pool, shareable between streams by
/// reference (the prefix cache), with copy-on-write on divergence.
class KvCache {
 public:
  KvCache(int64_t num_blocks, int64_t heads, int64_t head_dim,
          int64_t page_rows);

  int64_t num_blocks() const { return static_cast<int64_t>(entries_.size()); }
  /// Positions per page. A cache may only be served by an engine (and
  /// shared through a prefix cache) with the same page geometry.
  int64_t page_rows() const { return page_rows_; }
  nn::PagedKvEntry* entry(int64_t block) {
    return &entries_[static_cast<size_t>(block)];
  }
  const nn::PagedKvEntry& entry(int64_t block) const {
    return entries_[static_cast<size_t>(block)];
  }

  /// Cached positions (identical across blocks; 0 when empty).
  int64_t len() const;

  /// Bytes reachable through this cache's K/V storage. Pages shared with
  /// other streams are counted in full — use SharedPages()/OwnedBytes() for
  /// deduplicated accounting.
  int64_t SizeBytes() const;

  /// Pages referenced by at least one other owner (the prefix trie or
  /// another stream), and bytes of pages this cache is the sole owner of.
  /// SharedBytes = SizeBytes - OwnedBytes.
  int64_t SharedPages() const;
  int64_t OwnedBytes() const;

 private:
  int64_t page_rows_;
  std::vector<nn::PagedKvEntry> entries_;
};

}  // namespace serve
}  // namespace nautilus

#endif  // NAUTILUS_SERVE_KV_CACHE_H_

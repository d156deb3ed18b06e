#include "nautilus/serve/prefix_cache.h"

#include <algorithm>

#include "nautilus/util/logging.h"

namespace nautilus {
namespace serve {

PrefixCache::PrefixCache(const Options& opts) : opts_(opts) {
  NAUTILUS_CHECK_GT(opts_.page_rows, 0);
  NAUTILUS_CHECK_GT(opts_.num_blocks, 0);
  NAUTILUS_CHECK_GE(opts_.budget_bytes, 0);
}

int64_t PrefixCache::NodeBytes(const Node& node) const {
  int64_t bytes = 0;
  for (const std::shared_ptr<nn::KvPage>& p : node.pages) {
    bytes += p->SizeBytes();
  }
  return bytes;
}

PrefixCache::AttachResult PrefixCache::Attach(const int64_t* tokens, int64_t n,
                                              int64_t limit, uint64_t variant,
                                              KvCache* cache) {
  NAUTILUS_CHECK(cache != nullptr);
  NAUTILUS_CHECK_EQ(cache->len(), 0) << "attach requires an empty cache";
  NAUTILUS_CHECK_EQ(cache->num_blocks(), opts_.num_blocks);
  NAUTILUS_CHECK_EQ(cache->page_rows(), opts_.page_rows);
  AttachResult result;
  if (limit > n) limit = n;

  std::lock_guard<std::mutex> lock(mu_);
  auto it = roots_.find(variant);
  if (it == roots_.end()) return result;
  Node* node = &it->second;
  while (result.rows < limit) {
    // Rows still attachable from one more chunk: bounded by the chunk size,
    // the prompt, and the caller's limit (which keeps at least one prompt
    // position to compute, so prefill always has a last row to emit logits
    // from).
    const int64_t want =
        std::min(opts_.page_rows, limit - result.rows);
    // Longest-prefix child match for the next chunk.
    Node* best = nullptr;
    int64_t best_match = 0;
    for (const std::unique_ptr<Node>& child : node->children) {
      int64_t m = 0;
      while (m < want && tokens[result.rows + m] ==
                             child->tokens[static_cast<size_t>(m)]) {
        ++m;
      }
      if (m > best_match) {
        best_match = m;
        best = child.get();
      }
    }
    if (best == nullptr) break;
    best->last_use = ++tick_;
    for (int64_t b = 0; b < opts_.num_blocks; ++b) {
      cache->entry(b)->AttachShared(
          best->pages[static_cast<size_t>(b)], best_match);
    }
    result.rows += best_match;
    result.pages += opts_.num_blocks;
    // A partial chunk (divergence, prompt end, or the limit) ends the walk:
    // the next cached position no longer lines up with the prompt.
    if (best_match < opts_.page_rows) break;
    node = best;
  }
  return result;
}

void PrefixCache::Insert(const int64_t* tokens, int64_t n, uint64_t variant,
                         const KvCache& cache) {
  NAUTILUS_CHECK_GE(cache.len(), n);
  NAUTILUS_CHECK_EQ(cache.num_blocks(), opts_.num_blocks);
  NAUTILUS_CHECK_EQ(cache.page_rows(), opts_.page_rows);
  const int64_t full_chunks = n / opts_.page_rows;
  if (full_chunks == 0) return;

  std::lock_guard<std::mutex> lock(mu_);
  Node* node = &roots_[variant];
  for (int64_t c = 0; c < full_chunks; ++c) {
    const int64_t* chunk = tokens + c * opts_.page_rows;
    Node* next = nullptr;
    for (const std::unique_ptr<Node>& child : node->children) {
      if (std::equal(chunk, chunk + opts_.page_rows,
                     child->tokens.begin())) {
        next = child.get();
        break;
      }
    }
    if (next == nullptr) {
      auto fresh = std::make_unique<Node>();
      fresh->tokens.assign(chunk, chunk + opts_.page_rows);
      fresh->pages.reserve(static_cast<size_t>(opts_.num_blocks));
      for (int64_t b = 0; b < opts_.num_blocks; ++b) {
        fresh->pages.push_back(
            cache.entry(b).pages[static_cast<size_t>(c)]);
      }
      next = fresh.get();
      cached_bytes_ += NodeBytes(*fresh);
      ++node_count_;
      node->children.push_back(std::move(fresh));
    }
    next->last_use = ++tick_;
    node = next;
  }
  EvictLruLeavesLocked();
}

void PrefixCache::EvictLruLeavesLocked() {
  while (cached_bytes_ > opts_.budget_bytes && node_count_ > 0) {
    // Find the least-recently-used leaf (inner nodes are pinned by their
    // descendants: dropping one would orphan fresher suffixes).
    Node* parent = nullptr;
    size_t child_idx = 0;
    uint64_t oldest = UINT64_MAX;
    struct Frame {
      Node* node;
    };
    std::vector<Frame> stack;
    for (auto& [variant, root] : roots_) {
      (void)variant;
      stack.push_back({&root});
    }
    while (!stack.empty()) {
      Node* cur = stack.back().node;
      stack.pop_back();
      for (size_t i = 0; i < cur->children.size(); ++i) {
        Node* child = cur->children[i].get();
        if (child->children.empty()) {
          if (child->last_use < oldest) {
            oldest = child->last_use;
            parent = cur;
            child_idx = i;
          }
        } else {
          stack.push_back({child});
        }
      }
    }
    if (parent == nullptr) break;
    cached_bytes_ -= NodeBytes(*parent->children[child_idx]);
    --node_count_;
    parent->children.erase(parent->children.begin() +
                           static_cast<std::ptrdiff_t>(child_idx));
  }
}

int64_t PrefixCache::CachedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cached_bytes_;
}

int64_t PrefixCache::NodeCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return node_count_;
}

}  // namespace serve
}  // namespace nautilus

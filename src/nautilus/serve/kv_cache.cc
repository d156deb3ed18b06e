#include "nautilus/serve/kv_cache.h"

namespace nautilus {
namespace serve {

KvCache::KvCache(int64_t num_blocks, int64_t heads, int64_t head_dim,
                 int64_t page_rows)
    : page_rows_(page_rows), entries_(static_cast<size_t>(num_blocks)) {
  for (nn::PagedKvEntry& e : entries_) e.Init(heads, head_dim, page_rows);
}

int64_t KvCache::len() const {
  return entries_.empty() ? 0 : entries_[0].len;
}

int64_t KvCache::SizeBytes() const {
  int64_t total = 0;
  for (const nn::PagedKvEntry& e : entries_) total += e.SizeBytes();
  return total;
}

int64_t KvCache::SharedPages() const {
  int64_t shared = 0;
  for (const nn::PagedKvEntry& e : entries_) {
    for (const std::shared_ptr<nn::KvPage>& p : e.pages) {
      if (p.use_count() > 1) ++shared;
    }
  }
  return shared;
}

int64_t KvCache::OwnedBytes() const {
  int64_t owned = 0;
  for (const nn::PagedKvEntry& e : entries_) {
    for (const std::shared_ptr<nn::KvPage>& p : e.pages) {
      if (p.use_count() == 1) owned += p->SizeBytes();
    }
  }
  return owned;
}

}  // namespace serve
}  // namespace nautilus

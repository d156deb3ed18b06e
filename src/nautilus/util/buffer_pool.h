#ifndef NAUTILUS_UTIL_BUFFER_POOL_H_
#define NAUTILUS_UTIL_BUFFER_POOL_H_

#include <cstdint>
#include <mutex>
#include <vector>

namespace nautilus {
namespace util {

/// Counters describing pool effectiveness. `hits` / `misses` count Rent
/// calls for poolable sizes (>= kMinPooledFloats); `bytes_reused` is the sum
/// of rented bytes served without touching the allocator; `resident_bytes`
/// is the capacity currently parked in the pool.
struct BufferPoolStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t bytes_reused = 0;
  int64_t resident_bytes = 0;
  int64_t recycled = 0;  // buffers accepted back
  int64_t dropped = 0;   // poolable buffers rejected by the budget
};

/// Size-class recycler for tensor storage. Training allocates and frees the
/// same activation/gradient shapes every step; without a pool each step pays
/// malloc + page faults + a pointless zero-fill for buffers that are fully
/// overwritten anyway. The pool keeps freed float buffers in power-of-two
/// size classes (LIFO, so the hottest cache lines come back first) under a
/// byte budget and hands them back uncleared. Every owned Tensor buffer is
/// rented here and recycled here, so in steady state the pool holds only
/// what the last step handed out, far below the budget.
///
/// Contents of a rented buffer are ARBITRARY on a hit (recycled values) and
/// zero on a miss (fresh allocation) — callers must fully overwrite or use
/// RentZeroed / RentCopy. Requests below kMinPooledFloats bypass the pool
/// entirely (plain allocation, not counted): the lock + bookkeeping would
/// cost more than the malloc they save.
class BufferPool {
 public:
  /// 4 KiB: below this a buffer is never pooled.
  static constexpr int64_t kMinPooledFloats = 1024;

  /// Process-wide pool shared by every Tensor. Intentionally leaked (never
  /// destroyed) so tensors destroyed during static teardown can still
  /// recycle safely; the memory stays reachable, so LeakSanitizer is quiet.
  static BufferPool& Global();

  BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a buffer with size() == n exactly. Served from the matching
  /// size class when possible (no allocation, contents arbitrary).
  std::vector<float> Rent(int64_t n);

  /// Rent, with every element zero.
  std::vector<float> RentZeroed(int64_t n);

  /// Rent, holding a copy of the n floats at `src`. Neither a hit nor a
  /// miss is cleared first.
  std::vector<float> RentCopy(const float* src, int64_t n);

  /// Takes ownership of a freed buffer. Buffers smaller than
  /// kMinPooledFloats are left to the caller to free (uncounted); buffers
  /// larger than a quarter of the budget, or not fitting under it, are
  /// dropped (freed normally).
  void Recycle(std::vector<float>&& buf);

  BufferPoolStats stats() const;

  /// Frees every pooled buffer (stats are kept). For tests.
  void Clear();

  void set_budget_bytes(int64_t budget);
  int64_t budget_bytes() const;

 private:
  static int ClassIndex(int64_t floats);  // -1 when not poolable
  // A buffer with capacity >= n: a hit as it was recycled (size and
  // contents arbitrary), a miss empty.
  std::vector<float> Take(int64_t n);

  mutable std::mutex mu_;
  // Class c holds buffers with capacity >= kMinPooledFloats << c.
  static constexpr int kNumClasses = 22;  // 4 KiB .. 8 GiB
  std::vector<std::vector<float>> classes_[kNumClasses];
  int64_t budget_bytes_;
  BufferPoolStats stats_;
};

enum class BufferPoolEvent { kHit, kMiss, kRecycled, kDropped };

/// Observability hook: called (when set) after every poolable Rent (kHit or
/// kMiss, with the bytes requested) and every Recycle (kRecycled or
/// kDropped, with the buffer's capacity in bytes), together with the pool's
/// resident bytes right after the event. Installed once by the obs layer
/// (util cannot link obs); must be cheap and thread-safe.
void SetBufferPoolObserver(void (*observer)(BufferPoolEvent event,
                                            int64_t bytes,
                                            int64_t resident_bytes));

}  // namespace util
}  // namespace nautilus

#endif  // NAUTILUS_UTIL_BUFFER_POOL_H_

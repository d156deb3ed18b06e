#include "nautilus/util/buffer_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

namespace nautilus {
namespace util {
namespace {

std::atomic<void (*)(BufferPoolEvent, int64_t, int64_t)> g_observer{
    nullptr};

int64_t DefaultBudgetBytes() {
  // NAUTILUS_POOL_MB caps the memory parked in the pool; 0 disables pooling.
  if (const char* env = std::getenv("NAUTILUS_POOL_MB")) {
    char* end = nullptr;
    const long long mb = std::strtoll(env, &end, 10);
    if (end != env && mb >= 0) return static_cast<int64_t>(mb) << 20;
  }
  return int64_t{256} << 20;  // 256 MiB
}

void Notify(BufferPoolEvent event, int64_t bytes, int64_t resident_bytes) {
  if (auto* fn = g_observer.load(std::memory_order_relaxed)) {
    fn(event, bytes, resident_bytes);
  }
}

}  // namespace

BufferPool::BufferPool() : budget_bytes_(DefaultBudgetBytes()) {}

BufferPool& BufferPool::Global() {
  // Leaked on purpose: see the class comment.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

int BufferPool::ClassIndex(int64_t floats) {
  if (floats < kMinPooledFloats) return -1;
  // Smallest c with (kMinPooledFloats << c) >= floats.
  int c = 0;
  int64_t cap = kMinPooledFloats;
  while (cap < floats && c < kNumClasses - 1) {
    cap <<= 1;
    ++c;
  }
  return cap >= floats ? c : -1;
}

// Each Rent form fills the buffer Take returns exactly once: capacity is at
// least n, so resize/assign never reallocate.
std::vector<float> BufferPool::Rent(int64_t n) {
  std::vector<float> buf = Take(n);
  // A hit keeps its old contents; growing within capacity zero-fills only
  // the tail gap (empty in steady state, where the same sizes recur). A
  // miss is zero-filled here, once per cold buffer.
  buf.resize(static_cast<size_t>(std::max<int64_t>(n, 0)));
  return buf;
}

std::vector<float> BufferPool::RentZeroed(int64_t n) {
  std::vector<float> buf = Take(n);
  buf.assign(static_cast<size_t>(std::max<int64_t>(n, 0)), 0.0f);
  return buf;
}

std::vector<float> BufferPool::RentCopy(const float* src, int64_t n) {
  std::vector<float> buf = Take(n);
  buf.assign(src, src + std::max<int64_t>(n, 0));
  return buf;
}

std::vector<float> BufferPool::Take(int64_t n) {
  if (n < 0) n = 0;
  const int cls = ClassIndex(n);
  std::vector<float> buf;
  if (cls < 0) {
    // Too small to be worth the lock; plain allocation, uncounted.
    buf.reserve(static_cast<size_t>(n));
    return buf;
  }
  const int64_t bytes = n * static_cast<int64_t>(sizeof(float));
  bool hit = false;
  int64_t resident = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& bucket = classes_[cls];
    if (!bucket.empty()) {
      buf = std::move(bucket.back());
      bucket.pop_back();
      stats_.resident_bytes -= static_cast<int64_t>(buf.capacity()) *
                               static_cast<int64_t>(sizeof(float));
      stats_.hits += 1;
      stats_.bytes_reused += bytes;
      hit = true;
    } else {
      stats_.misses += 1;
    }
    resident = stats_.resident_bytes;
  }
  if (!hit) {
    // Miss: allocate with capacity rounded up to the class size so the
    // buffer recycles into the same class it will be rented from next time.
    buf.reserve(static_cast<size_t>(kMinPooledFloats << cls));
  }
  Notify(hit ? BufferPoolEvent::kHit : BufferPoolEvent::kMiss, bytes,
         resident);
  return buf;
}

void BufferPool::Recycle(std::vector<float>&& buf) {
  const int64_t cap = static_cast<int64_t>(buf.capacity());
  // Too small to pool, like the Rent requests it came from: freed by the
  // caller, uncounted.
  if (cap < kMinPooledFloats) return;
  const int64_t cap_bytes = cap * static_cast<int64_t>(sizeof(float));
  // Bucket by capacity, rounded DOWN, so a rented buffer is always at least
  // as big as its class promises.
  int cls = 0;  // largest class whose size fits within cap
  int64_t size = kMinPooledFloats;
  while (cls + 1 < kNumClasses && (size << 1) <= cap) {
    size <<= 1;
    ++cls;
  }
  bool kept = false;
  int64_t resident = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    kept = cap_bytes <= budget_bytes_ / 4 &&
           stats_.resident_bytes + cap_bytes <= budget_bytes_;
    if (kept) {
      classes_[cls].push_back(std::move(buf));
      stats_.resident_bytes += cap_bytes;
      stats_.recycled += 1;
    } else {
      stats_.dropped += 1;  // buf frees on scope exit
    }
    resident = stats_.resident_bytes;
  }
  Notify(kept ? BufferPoolEvent::kRecycled : BufferPoolEvent::kDropped,
         cap_bytes, resident);
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BufferPool::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& bucket : classes_) bucket.clear();
  stats_.resident_bytes = 0;
}

void BufferPool::set_budget_bytes(int64_t budget) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_bytes_ = budget < 0 ? 0 : budget;
}

int64_t BufferPool::budget_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_bytes_;
}

void SetBufferPoolObserver(void (*observer)(BufferPoolEvent event,
                                            int64_t bytes,
                                            int64_t resident_bytes)) {
  g_observer.store(observer, std::memory_order_relaxed);
}

}  // namespace util
}  // namespace nautilus

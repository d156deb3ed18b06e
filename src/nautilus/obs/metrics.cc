#include "nautilus/obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "nautilus/obs/trace.h"
#include "nautilus/tensor/gemm.h"
#include "nautilus/tensor/qgemm.h"
#include "nautilus/util/buffer_pool.h"
#include "nautilus/util/parallel.h"

namespace nautilus {
namespace obs {

namespace {

// Target of the thread-pool queue observer (util cannot link obs, so the
// pool exposes a function-pointer hook instead of setting a gauge itself).
// Runs with the pool's queue lock held: a relaxed atomic store only.
Gauge* g_pool_queue_gauge = nullptr;

void PoolQueueObserver(int64_t depth) {
  g_pool_queue_gauge->Set(static_cast<double>(depth));
}

// Buffer-pool and GEMM observers, wired the same way (the tensor and util
// libraries cannot link obs, so they expose function-pointer hooks).
Counter* g_bufpool_hits = nullptr;
Counter* g_bufpool_misses = nullptr;
Counter* g_bufpool_bytes_reused = nullptr;
Counter* g_bufpool_dropped = nullptr;
Gauge* g_bufpool_resident = nullptr;

void BufferPoolMetricObserver(util::BufferPoolEvent event, int64_t bytes,
                              int64_t resident_bytes) {
  switch (event) {
    case util::BufferPoolEvent::kHit:
      g_bufpool_hits->Add();
      g_bufpool_bytes_reused->Add(bytes);
      break;
    case util::BufferPoolEvent::kMiss:
      g_bufpool_misses->Add();
      break;
    case util::BufferPoolEvent::kRecycled:
      // Only a recycle grows the pool, so the high-water mark moves here.
      g_bufpool_resident->SetMax(static_cast<double>(resident_bytes));
      break;
    case util::BufferPoolEvent::kDropped:
      g_bufpool_dropped->Add();
      break;
  }
}

Counter* g_gemm_simd_calls = nullptr;
Counter* g_gemm_portable_calls = nullptr;
Counter* g_gemm_fused_epilogues = nullptr;
Gauge* g_gemm_dispatch = nullptr;

void GemmMetricObserver(bool simd, bool fused_epilogue) {
  if (simd) {
    g_gemm_simd_calls->Add();
  } else {
    g_gemm_portable_calls->Add();
  }
  if (fused_epilogue) g_gemm_fused_epilogues->Add();
  g_gemm_dispatch->Set(simd ? 1.0 : 0.0);
}

Counter* g_qgemm_simd_calls = nullptr;
Counter* g_qgemm_portable_calls = nullptr;

void QGemmMetricObserver(bool simd) {
  if (simd) {
    g_qgemm_simd_calls->Add();
  } else {
    g_qgemm_portable_calls->Add();
  }
}

int BucketFor(int64_t v) {
  if (v <= 1) return 0;
  // Index of the highest set bit, clamped to the table.
  int b = 63 - __builtin_clzll(static_cast<uint64_t>(v));
  return std::min(b, Histogram::kBuckets - 1);
}

void AtomicMin(std::atomic<int64_t>* slot, int64_t v) {
  int64_t cur = slot->load(std::memory_order_relaxed);
  while (v < cur &&
         !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<int64_t>* slot, int64_t v) {
  int64_t cur = slot->load(std::memory_order_relaxed);
  while (v > cur &&
         !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Record(int64_t v) {
  if (v < 0) v = 0;
  buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  AtomicMin(&min_, v);
  AtomicMax(&max_, v);
}

int64_t Histogram::min() const {
  const int64_t v = min_.load(std::memory_order_relaxed);
  return v == INT64_MAX ? 0 : v;
}

int64_t Histogram::max() const {
  const int64_t v = max_.load(std::memory_order_relaxed);
  return v == INT64_MIN ? 0 : v;
}

double Histogram::mean() const {
  const int64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

int64_t Histogram::ApproxPercentile(double p) const {
  const int64_t n = count();
  if (n == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(p * static_cast<double>(n) + 0.5));
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const int64_t in_bucket = bucket_count(b);
    if (seen + in_bucket < rank) {
      seen += in_bucket;
      continue;
    }
    // Bucket b spans [2^b, 2^(b+1)) (bucket 0 from 0, the last one open);
    // clamping to the observed extremes keeps the estimate inside them.
    const int64_t lo = std::max(b == 0 ? int64_t{0} : int64_t{1} << b, min());
    const int64_t hi =
        b + 1 < kBuckets ? std::min(int64_t{1} << (b + 1), max()) : max();
    const double frac =
        static_cast<double>(rank - seen) / static_cast<double>(in_bucket);
    return lo + static_cast<int64_t>(static_cast<double>(hi - lo) * frac);
  }
  return max();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(INT64_MIN, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  static const bool observer_installed = [] {
    g_pool_queue_gauge = &registry.gauge("pool.queue_depth");
    SetThreadPoolQueueObserver(&PoolQueueObserver);
    g_bufpool_hits = &registry.counter("tensor.pool.hits");
    g_bufpool_misses = &registry.counter("tensor.pool.misses");
    g_bufpool_bytes_reused = &registry.counter("tensor.pool.bytes_reused");
    g_bufpool_dropped = &registry.counter("tensor.pool.dropped");
    g_bufpool_resident = &registry.gauge("tensor.pool.resident_bytes");
    util::SetBufferPoolObserver(&BufferPoolMetricObserver);
    g_gemm_simd_calls = &registry.counter("gemm.calls.simd");
    g_gemm_portable_calls = &registry.counter("gemm.calls.portable");
    g_gemm_fused_epilogues = &registry.counter("gemm.epilogue_fused");
    g_gemm_dispatch = &registry.gauge("gemm.dispatch");
    ops::SetGemmObserver(&GemmMetricObserver);
    g_qgemm_simd_calls = &registry.counter("gemm.int8.calls.simd");
    g_qgemm_portable_calls = &registry.counter("gemm.int8.calls.portable");
    ops::SetQGemmObserver(&QGemmMetricObserver);
    return true;
  }();
  (void)observer_installed;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) names.push_back(name);
  for (const auto& [name, g] : gauges_) names.push_back(name);
  for (const auto& [name, h] : histograms_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::string MetricsRegistry::Summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[256];
  for (const auto& [name, c] : counters_) {
    if (c->value() == 0) continue;
    std::snprintf(buf, sizeof(buf), "%-44s %" PRId64 "\n", name.c_str(),
                  c->value());
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    if (g->value() == 0.0) continue;
    std::snprintf(buf, sizeof(buf), "%-44s %.6g\n", name.c_str(), g->value());
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    if (h->count() == 0) continue;
    // Histograms named *_ns hold durations and print in ms; the rest hold
    // plain sizes/counts (e.g. wavefront widths) and print raw values.
    if (name.size() >= 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
      std::snprintf(buf, sizeof(buf),
                    "%-44s count %" PRId64 "  mean %.3f ms  p50 %.3f ms  "
                    "p99 %.3f ms  max %.3f ms\n",
                    name.c_str(), h->count(), h->mean() / 1e6,
                    static_cast<double>(h->ApproxPercentile(0.5)) / 1e6,
                    static_cast<double>(h->ApproxPercentile(0.99)) / 1e6,
                    static_cast<double>(h->max()) / 1e6);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%-44s count %" PRId64 "  mean %.2f  p50 <=%" PRId64
                    "  p99 <=%" PRId64 "  max %" PRId64 "\n",
                    name.c_str(), h->count(), h->mean(),
                    h->ApproxPercentile(0.5), h->ApproxPercentile(0.99),
                    h->max());
    }
    out += buf;
  }
  return out;
}

ScopedLatency::ScopedLatency(Histogram& hist) {
  if (!TracingEnabled()) return;
  hist_ = &hist;
  start_ns_ = NowNs();
}

ScopedLatency::~ScopedLatency() {
  if (hist_ != nullptr) hist_->Record(NowNs() - start_ns_);
}

}  // namespace obs
}  // namespace nautilus

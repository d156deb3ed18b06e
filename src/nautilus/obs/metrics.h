#ifndef NAUTILUS_OBS_METRICS_H_
#define NAUTILUS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nautilus {
namespace obs {

/// Monotonic event count (exact under concurrency: relaxed atomic adds).
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins scalar (e.g. a budget or a plan size), or a high-water
/// mark when written only through SetMax.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the value to `v` if `v` is larger (lock-free).
  void SetMax(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Lock-free histogram over power-of-two buckets, built for nanosecond
/// latencies (bucket b counts samples in [2^b, 2^(b+1)); bucket 0 also takes
/// v <= 1). count/sum/min/max are exact; percentiles interpolate within a
/// bucket.
class Histogram {
 public:
  static constexpr int kBuckets = 44;  // covers up to ~4.8 hours in ns

  void Record(int64_t v);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t min() const;  // 0 when empty
  int64_t max() const;  // 0 when empty
  double mean() const;
  /// Estimated p-th percentile (p in [0,1]): finds the bucket holding the
  /// sample of that rank and interpolates linearly by rank across the
  /// bucket's range clamped to [min(), max()]. Constant samples return that
  /// value exactly; every estimate lies in [min(), max()]. 0 when empty.
  int64_t ApproxPercentile(double p) const;
  int64_t bucket_count(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  void Reset();

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
};

/// Named metric directory. Lookup registers on first use and returns a
/// reference that stays valid for the registry's lifetime, so hot paths
/// should cache it:
///
///   static obs::Counter& hits =
///       obs::MetricsRegistry::Global().counter("trainer.feed_loads.materialized");
///   hits.Add();
///
/// Metrics are always on: recording is a relaxed atomic op, never a lock.
/// Only lookup takes the registry mutex.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zeroes every registered metric (registrations and references survive).
  void ResetAll();

  /// Sorted names of all registered metrics, for docs/tests.
  std::vector<std::string> Names() const;

  /// Human-readable dump of every non-empty metric, one per line, sorted by
  /// name. Histograms print count/mean/p50/p99/max in milliseconds.
  std::string Summary() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Feeds the elapsed time of a scope into a histogram, but only when the
/// global tracer is recording — per-operation clock reads stay off the
/// default path. Pair it with a TraceScope for span + histogram in one place.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& hist);
  ~ScopedLatency();
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* hist_ = nullptr;
  int64_t start_ns_ = 0;
};

}  // namespace obs
}  // namespace nautilus

#endif  // NAUTILUS_OBS_METRICS_H_

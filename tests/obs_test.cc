#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "nautilus/obs/metrics.h"
#include "nautilus/obs/trace.h"

namespace nautilus {
namespace obs {
namespace {

// Minimal structural JSON validator: tracks {}/[] nesting with full string
// and escape awareness. Catches unbalanced braces, raw control characters,
// and truncated output — the failure modes of a hand-rolled serializer.
bool IsStructurallyValidJson(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  bool saw_value = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        saw_value = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        saw_value = true;
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty() && saw_value;
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

class TracerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
};

TEST_F(TracerTest, ConcurrentSpansExportBalancedValidJson) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable();

  constexpr int kThreads = 8;
  constexpr int kOuterSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kOuterSpansPerThread; ++i) {
        TraceScope outer("test", "outer");
        outer.AddArg("thread", t).AddArg("i", i);
        {
          TraceScope inner("test", "inner");
          inner.AddArgHex("hash", 0xdeadbeefcafef00dULL)
              .AddArg("frozen", true);
        }
        Tracer::Global().RecordInstant("test", "tick");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every span is one B plus one E; nothing is dropped under contention.
  constexpr size_t kSpans = kThreads * kOuterSpansPerThread * 2;  // outer+inner
  constexpr size_t kInstants = kThreads * kOuterSpansPerThread;
  EXPECT_EQ(tracer.event_count(), kSpans * 2 + kInstants);

  const std::string json = tracer.ExportChromeJson();
  EXPECT_TRUE(IsStructurallyValidJson(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), kSpans);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"E\""), kSpans);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"i\""), kInstants);
  EXPECT_NE(json.find("0xdeadbeefcafef00d"), std::string::npos);
}

TEST_F(TracerTest, SpanArgsAreEscaped) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  {
    TraceScope span("test", "na\"me\\with\nnasties");
    span.AddArg("key", std::string_view("va\"lue\twith\x01junk"));
    // A string literal must export as a JSON string, not decay to bool.
    span.AddArg("mode", "optimized");
  }
  const std::string json = tracer.ExportChromeJson();
  EXPECT_TRUE(IsStructurallyValidJson(json));
  EXPECT_NE(json.find("\\\"lue"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"optimized\""), std::string::npos);
}

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Disable();
  tracer.Clear();
  {
    TraceScope span("test", "ignored");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.ElapsedNs(), 0);
    span.AddArg("key", 1).AddArg("s", std::string_view("x"));
  }
  tracer.RecordInstant("test", "also ignored");
  EXPECT_EQ(tracer.event_count(), 0u);
  const std::string json = tracer.ExportChromeJson();
  EXPECT_TRUE(IsStructurallyValidJson(json));
  // Only the process-name metadata event remains.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), 0u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"E\""), 0u);
}

TEST_F(TracerTest, ClearDropsEvents) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  { TraceScope span("test", "x"); }
  EXPECT_EQ(tracer.event_count(), 2u);
  tracer.Clear();
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST_F(TracerTest, LocalTracerInstanceIsIndependent) {
  Tracer local;
  local.Enable();
  EXPECT_FALSE(Tracer::Global().enabled());
  { TraceScope span(local, "test", "local-span"); }
  EXPECT_EQ(local.event_count(), 2u);
  EXPECT_EQ(Tracer::Global().event_count(), 0u);
}

TEST(MetricsTest, CountersExactUnderContention) {
  Counter counter;
  constexpr int kThreads = 16;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), int64_t{kThreads} * kAddsPerThread);
}

TEST(MetricsTest, HistogramExactCountAndSumUnderContention) {
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kRecordsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        hist.Record(t * 1000 + 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist.count(), int64_t{kThreads} * kRecordsPerThread);
  int64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += int64_t{kRecordsPerThread} * (t * 1000 + 1);
  }
  EXPECT_EQ(hist.sum(), expected_sum);
  EXPECT_EQ(hist.min(), 1);
  EXPECT_EQ(hist.max(), 7001);
}

TEST(MetricsTest, HistogramPercentileInterpolatesWithinBucket) {
  // Constant samples: every percentile is exactly the recorded value, never
  // the bucket's upper edge (128) above the observed max.
  Histogram constant;
  for (int i = 0; i < 100; ++i) constant.Record(100);  // bucket [64, 128)
  EXPECT_EQ(constant.ApproxPercentile(0.0), 100);
  EXPECT_EQ(constant.ApproxPercentile(0.5), 100);
  EXPECT_EQ(constant.ApproxPercentile(0.99), 100);
  EXPECT_EQ(constant.ApproxPercentile(1.0), 100);
  // Samples spread inside one bucket: p50 and p99 are told apart and stay
  // within the observed range.
  Histogram spread;
  for (int v = 64; v < 128; ++v) spread.Record(v);
  const int64_t p50 = spread.ApproxPercentile(0.5);
  const int64_t p99 = spread.ApproxPercentile(0.99);
  EXPECT_LT(p50, p99);
  EXPECT_GE(p50, spread.min());
  EXPECT_LE(p99, spread.max());
  EXPECT_EQ(spread.ApproxPercentile(1.0), spread.max());
  Histogram empty;
  EXPECT_EQ(empty.ApproxPercentile(0.5), 0);
}

TEST(MetricsTest, RegistryReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("test.counter");
  Counter& b = registry.counter("test.counter");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3);
  registry.gauge("test.gauge").Set(2.5);
  registry.histogram("test.hist").Record(7);

  const std::vector<std::string> names = registry.Names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "test.counter");
  EXPECT_EQ(names[1], "test.gauge");
  EXPECT_EQ(names[2], "test.hist");

  const std::string summary = registry.Summary();
  EXPECT_NE(summary.find("test.counter"), std::string::npos);
  EXPECT_NE(summary.find("test.gauge"), std::string::npos);
  EXPECT_NE(summary.find("test.hist"), std::string::npos);

  registry.ResetAll();
  EXPECT_EQ(a.value(), 0);
  EXPECT_EQ(registry.gauge("test.gauge").value(), 0.0);
  EXPECT_EQ(registry.histogram("test.hist").count(), 0);
  // References remain valid after reset.
  a.Add(1);
  EXPECT_EQ(b.value(), 1);
}

TEST(MetricsTest, ScopedLatencyOnlyRecordsWhileTracing) {
  Histogram hist;
  { ScopedLatency latency(hist); }
  EXPECT_EQ(hist.count(), 0);
  Tracer::Global().Enable();
  { ScopedLatency latency(hist); }
  Tracer::Global().Disable();
  Tracer::Global().Clear();
  EXPECT_EQ(hist.count(), 1);
}

}  // namespace
}  // namespace obs
}  // namespace nautilus

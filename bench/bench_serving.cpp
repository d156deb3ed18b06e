// Serving benchmark: continuous batching vs serial decode on the KV-cache
// generation engine, plus a shared-prefix workload measuring prefix reuse
// (prefill tok/s and KV bytes vs the same engine with the prefix cache
// off), reporting to stdout and BENCH_serve.json.
//
// Self-checking: every scheduler completion must be bitwise-identical to the
// same request generated solo (greedy decode is batch-invariant), and every
// prefix-cached prefill must be bitwise-identical to the cold prefill of the
// prefix-cache-off engine, so a speedup can never come from changed outputs.
#include <cstdio>
#include <future>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "nautilus/nn/transformer.h"
#include "nautilus/obs/metrics.h"
#include "nautilus/serve/engine.h"
#include "nautilus/serve/scheduler.h"
#include "nautilus/util/logging.h"
#include "nautilus/util/stopwatch.h"
#include "nautilus/zoo/bert_like.h"

using namespace nautilus;

namespace {

// Big enough that a decode step is real GEMM work (MiniScale's hidden=32
// steps are overhead-bound), small enough to stay a quick CPU bench.
zoo::BertConfig ServeScale() {
  return {.vocab = 1000,
          .seq_len = 64,
          .hidden = 128,
          .heads = 8,
          .ffn = 256,
          .num_blocks = 4};
}

constexpr int kStreams = 8;
constexpr int64_t kMaxNew = 32;

std::vector<serve::Request> MakeRequests(int64_t vocab) {
  std::vector<serve::Request> reqs;
  Rng rng(17);
  for (int i = 0; i < kStreams; ++i) {
    serve::Request r;
    const int64_t plen = 6 + rng.UniformInt(6);
    for (int64_t j = 0; j < plen; ++j) r.prompt.push_back(rng.UniformInt(vocab));
    r.max_new_tokens = kMaxNew;
    r.seed = static_cast<uint64_t>(i);
    reqs.push_back(r);
  }
  return reqs;
}

int64_t TotalTokens(const std::vector<serve::Completion>& cs) {
  int64_t n = 0;
  for (const serve::Completion& c : cs) n += static_cast<int64_t>(c.tokens.size());
  return n;
}

double PctMs(const obs::Histogram& h, double p) {
  return static_cast<double>(h.ApproxPercentile(p)) / 1e6;
}

}  // namespace

int main() {
  zoo::BertLikeModel model(ServeScale(), 7);
  serve::Engine engine(model);
  std::vector<serve::Request> reqs = MakeRequests(engine.vocab());

  // Warm-up (first-touch allocations, lazily-built weight packs).
  (void)serve::GenerateOne(engine, reqs[0]);

  // Serial baseline: one stream at a time, start to finish.
  Stopwatch serial_watch;
  std::vector<serve::Completion> serial;
  for (const serve::Request& r : reqs) {
    serial.push_back(serve::GenerateOne(engine, r));
  }
  const double serial_secs = serial_watch.ElapsedSeconds();
  const int64_t tokens = TotalTokens(serial);

  // Continuous batching: all streams admitted into one batched step loop.
  obs::MetricsRegistry::Global().ResetAll();
  serve::SchedulerOptions opts;
  opts.max_batch = kStreams;
  Stopwatch batched_watch;
  std::vector<serve::Completion> batched;
  {
    serve::RequestScheduler scheduler(engine, opts);
    std::vector<std::future<serve::Completion>> futures;
    for (const serve::Request& r : reqs) futures.push_back(scheduler.Submit(r));
    for (auto& f : futures) batched.push_back(f.get());
    scheduler.Shutdown();
  }
  const double batched_secs = batched_watch.ElapsedSeconds();

  // Self-check: continuous batching must not change a single token.
  NAUTILUS_CHECK_EQ(batched.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    NAUTILUS_CHECK(batched[i].tokens == serial[i].tokens)
        << "stream " << i << " diverged under batching";
  }
  NAUTILUS_CHECK_EQ(TotalTokens(batched), tokens);

  const double serial_tps = tokens / serial_secs;
  const double batched_tps = tokens / batched_secs;
  const double speedup = batched_tps / serial_tps;
  const obs::Histogram& step =
      obs::MetricsRegistry::Global().histogram("serve.step_ns");
  const obs::Histogram& req =
      obs::MetricsRegistry::Global().histogram("serve.request_ns");

  std::printf("serving bench: %d streams, %lld tokens generated\n", kStreams,
              static_cast<long long>(tokens));
  std::printf("  serial:   %.3fs  (%.1f tok/s)\n", serial_secs, serial_tps);
  std::printf("  batched:  %.3fs  (%.1f tok/s)  speedup %.2fx\n", batched_secs,
              batched_tps, speedup);
  std::printf("  step latency    p50 %.3fms  p95 %.3fms  p99 %.3fms  (%lld steps)\n",
              PctMs(step, 0.50), PctMs(step, 0.95), PctMs(step, 0.99),
              static_cast<long long>(step.count()));
  std::printf("  request latency p50 %.3fms  p95 %.3fms  p99 %.3fms\n",
              PctMs(req, 0.50), PctMs(req, 0.95), PctMs(req, 0.99));

  // -------------------------------------------------------------------------
  // Shared-prefix workload: kStreams prompts sharing a 75% common prefix.
  // Prefix-cached prefill vs the same engine with the prefix cache off:
  // tok/s, rows computed, FLOPs saved, and physical KV bytes after page
  // dedup.
  // -------------------------------------------------------------------------
  constexpr int64_t kPrefixLen = 24;  // 75% of kPromptLen, = 3 full pages
  constexpr int64_t kPromptLen = 32;
  constexpr int64_t kPageRows = 8;
  constexpr int kPrefixReps = 10;

  std::vector<int64_t> common_prefix;
  {
    Rng rng(23);
    for (int64_t j = 0; j < kPrefixLen; ++j) {
      common_prefix.push_back(rng.UniformInt(engine.vocab()));
    }
  }
  // Fresh per-rep tails: only the common prefix repeats across streams and
  // reps, so reuse comes from prefix sharing, not repeated whole prompts.
  auto make_prompts = [&](uint64_t rep) {
    std::vector<std::vector<int64_t>> prompts;
    Rng rng(100 + rep);
    for (int i = 0; i < kStreams; ++i) {
      std::vector<int64_t> p = common_prefix;
      while (static_cast<int64_t>(p.size()) < kPromptLen) {
        p.push_back(rng.UniformInt(engine.vocab()));
      }
      prompts.push_back(std::move(p));
    }
    return prompts;
  };

  serve::EngineOptions on_opts;
  on_opts.page_rows = kPageRows;  // prefix cache on by default
  serve::Engine eng_on(model, on_opts);
  serve::EngineOptions off_opts = on_opts;
  off_opts.prefix_cache = false;  // every prompt prefills cold, no sharing
  serve::Engine eng_off(model, off_opts);

  obs::Counter& rows_reused =
      obs::MetricsRegistry::Global().counter("serve.prefix_cache.rows_reused");
  obs::Counter& prefix_hits =
      obs::MetricsRegistry::Global().counter("serve.prefix_cache.hits");

  // Warm-up: first-touch allocations on both engines and the first trie
  // publication, so the measured reps see the steady state.
  {
    auto warm = make_prompts(0);
    auto c1 = eng_on.NewCache();
    (void)eng_on.Prefill(warm[0].data(), kPromptLen, c1.get());
    auto c2 = eng_off.NewCache();
    (void)eng_off.Prefill(warm[0].data(), kPromptLen, c2.get());
  }

  const int64_t reused0 = rows_reused.value();
  const int64_t hits0 = prefix_hits.value();
  std::vector<std::unique_ptr<serve::KvCache>> on_caches, off_caches;
  double on_secs = 0, off_secs = 0;
  for (int rep = 1; rep <= kPrefixReps; ++rep) {
    auto prompts = make_prompts(static_cast<uint64_t>(rep));
    off_caches.clear();
    std::vector<Tensor> off_logits;
    Stopwatch off_watch;
    for (int i = 0; i < kStreams; ++i) {
      off_caches.push_back(eng_off.NewCache());
      off_logits.push_back(eng_off.Prefill(
          prompts[static_cast<size_t>(i)].data(), kPromptLen,
          off_caches.back().get()));
    }
    off_secs += off_watch.ElapsedSeconds();

    on_caches.clear();
    std::vector<Tensor> on_logits;
    Stopwatch on_watch;
    for (int i = 0; i < kStreams; ++i) {
      on_caches.push_back(eng_on.NewCache());
      on_logits.push_back(eng_on.Prefill(
          prompts[static_cast<size_t>(i)].data(), kPromptLen,
          on_caches.back().get()));
    }
    on_secs += on_watch.ElapsedSeconds();

    // Self-check: prefix reuse must not move a single logit bit.
    for (int i = 0; i < kStreams; ++i) {
      const Tensor& a = off_logits[static_cast<size_t>(i)];
      const Tensor& b = on_logits[static_cast<size_t>(i)];
      NAUTILUS_CHECK_EQ(a.NumElements(), b.NumElements());
      for (int64_t j = 0; j < a.NumElements(); ++j) {
        NAUTILUS_CHECK(a.data()[j] == b.data()[j])
            << "prefix-cached prefill diverged: stream " << i << " logit " << j;
      }
    }
  }

  const int64_t prompt_tokens =
      static_cast<int64_t>(kPrefixReps) * kStreams * kPromptLen;
  const double off_prefill_tps = prompt_tokens / off_secs;
  const double on_prefill_tps = prompt_tokens / on_secs;
  const double prefill_speedup = on_prefill_tps / off_prefill_tps;
  const int64_t reused = rows_reused.value() - reused0;
  const double reused_frac =
      static_cast<double>(reused) / static_cast<double>(prompt_tokens);
  // Dense per-row prefill work the attach skipped: the QKV/output projections
  // and the FFN matmuls (2 flops per MAC); attention scores are excluded, so
  // this undercounts actual savings.
  const zoo::BertConfig cfg = ServeScale();
  const double flops_per_row =
      static_cast<double>(cfg.num_blocks) * 2.0 *
      (4.0 * cfg.hidden * cfg.hidden + 2.0 * cfg.hidden * cfg.ffn);
  const double flops_saved = static_cast<double>(reused) * flops_per_row;

  // Physical KV bytes for the final rep's streams: logical (every stream
  // counts its full run) vs unique pages after dedup.
  int64_t kv_logical = 0, kv_unique = 0, kv_no_sharing = 0;
  {
    std::unordered_set<const nn::KvPage*> seen;
    for (const auto& c : on_caches) {
      kv_logical += c->SizeBytes();
      for (int64_t b = 0; b < eng_on.num_blocks(); ++b) {
        for (const std::shared_ptr<nn::KvPage>& p : c->entry(b)->pages) {
          if (seen.insert(p.get()).second) kv_unique += p->SizeBytes();
        }
      }
    }
    for (const auto& c : off_caches) kv_no_sharing += c->SizeBytes();
  }
  const double kv_saved_frac =
      1.0 - static_cast<double>(kv_unique) / static_cast<double>(kv_logical);

  std::printf("shared-prefix bench: %d streams, %lld-token prompts, %lld shared"
              " (%d reps)\n",
              kStreams, static_cast<long long>(kPromptLen),
              static_cast<long long>(kPrefixLen), kPrefixReps);
  std::printf("  prefill cold:         %.1f tok/s\n", off_prefill_tps);
  std::printf("  prefill prefix-cache: %.1f tok/s  speedup %.2fx\n",
              on_prefill_tps, prefill_speedup);
  std::printf("  rows reused %lld/%lld (%.0f%%), ~%.2f GFLOP of projections"
              " skipped, %lld prefix hits\n",
              static_cast<long long>(reused),
              static_cast<long long>(prompt_tokens), 100.0 * reused_frac,
              flops_saved / 1e9,
              static_cast<long long>(prefix_hits.value() - hits0));
  std::printf("  kv bytes: %.1f KiB logical -> %.1f KiB unique (%.0f%% shared;"
              " no-sharing baseline %.1f KiB)\n",
              kv_logical / 1024.0, kv_unique / 1024.0, 100.0 * kv_saved_frac,
              kv_no_sharing / 1024.0);

  std::FILE* json = std::fopen("BENCH_serve.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"streams\": %d,\n", kStreams);
    std::fprintf(json, "  \"tokens\": %lld,\n", static_cast<long long>(tokens));
    std::fprintf(json, "  \"serial_tok_per_s\": %.1f,\n", serial_tps);
    std::fprintf(json, "  \"batched_tok_per_s\": %.1f,\n", batched_tps);
    std::fprintf(json, "  \"speedup\": %.3f,\n", speedup);
    std::fprintf(json, "  \"step_p50_ms\": %.4f,\n", PctMs(step, 0.50));
    std::fprintf(json, "  \"step_p95_ms\": %.4f,\n", PctMs(step, 0.95));
    std::fprintf(json, "  \"step_p99_ms\": %.4f,\n", PctMs(step, 0.99));
    std::fprintf(json, "  \"request_p50_ms\": %.4f,\n", PctMs(req, 0.50));
    std::fprintf(json, "  \"request_p95_ms\": %.4f,\n", PctMs(req, 0.95));
    std::fprintf(json, "  \"request_p99_ms\": %.4f,\n", PctMs(req, 0.99));
    std::fprintf(json, "  \"prefix_streams\": %d,\n", kStreams);
    std::fprintf(json, "  \"prefix_common_frac\": %.2f,\n",
                 static_cast<double>(kPrefixLen) / kPromptLen);
    std::fprintf(json, "  \"prefill_tok_per_s_no_prefix_cache\": %.1f,\n",
                 off_prefill_tps);
    std::fprintf(json, "  \"prefill_tok_per_s_prefix_cache\": %.1f,\n",
                 on_prefill_tps);
    std::fprintf(json, "  \"prefill_speedup\": %.3f,\n", prefill_speedup);
    std::fprintf(json, "  \"prefill_rows_reused_frac\": %.3f,\n", reused_frac);
    std::fprintf(json, "  \"prefill_gflops_saved\": %.3f,\n",
                 flops_saved / 1e9);
    std::fprintf(json, "  \"kv_bytes_logical\": %lld,\n",
                 static_cast<long long>(kv_logical));
    std::fprintf(json, "  \"kv_bytes_unique\": %lld,\n",
                 static_cast<long long>(kv_unique));
    std::fprintf(json, "  \"kv_bytes_no_sharing\": %lld,\n",
                 static_cast<long long>(kv_no_sharing));
    std::fprintf(json, "  \"kv_bytes_saved_frac\": %.3f\n", kv_saved_frac);
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("written to BENCH_serve.json\n");
  }
  return 0;
}

// Serving-path tests: NaN guards for fully-masked softmax/attention rows,
// the unbiased Rng, paged KV growth and copy-on-write, bitwise decode parity
// (incremental KV-cache decode vs full-sequence prefill, across thread
// degrees, quant modes, fusion, and page sizes), batched-vs-solo stream
// independence, and the continuous-batching scheduler's correctness under
// backpressure.
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "nautilus/nn/transformer.h"
#include "nautilus/obs/metrics.h"
#include "nautilus/serve/engine.h"
#include "nautilus/serve/kv_cache.h"
#include "nautilus/serve/sampler.h"
#include "nautilus/serve/scheduler.h"
#include "nautilus/tensor/fused_ops.h"
#include "nautilus/tensor/ops.h"
#include "nautilus/tensor/quant.h"
#include "nautilus/util/parallel.h"
#include "nautilus/util/random.h"
#include "nautilus/zoo/bert_like.h"

namespace nautilus {
namespace {

class ScopedDegree {
 public:
  explicit ScopedDegree(int degree) : saved_(ParallelismDegree()) {
    SetParallelismDegree(degree);
  }
  ~ScopedDegree() { SetParallelismDegree(saved_); }

 private:
  int saved_;
};

Tensor RandTensor(const Shape& shape, uint64_t seed, float scale = 0.5f) {
  Rng rng(seed);
  Tensor t(shape);
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    t.data()[i] = rng.Normal() * scale;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Satellite: softmax / attention NaN guards.
// ---------------------------------------------------------------------------

TEST(SoftmaxGuard, AllNegInfRowEmitsZeros) {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor logits({2, 3});
  float vals[] = {-inf, -inf, -inf, 1.0f, 2.0f, 3.0f};
  for (int i = 0; i < 6; ++i) logits.data()[i] = vals[i];
  Tensor y = ops::SoftmaxForward(logits);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(y.data()[j], 0.0f) << "masked row must be exactly zero";
  }
  float sum = 0.0f;
  for (int j = 3; j < 6; ++j) {
    EXPECT_FALSE(std::isnan(y.data()[j]));
    sum += y.data()[j];
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(SoftmaxGuard, UnderflowedRowEmitsZeros) {
  // Finite logits so far below the row max that every exp underflows to
  // zero is impossible after max-subtraction (the max maps to exp(0)=1),
  // but a row whose max IS -inf after masking must not divide by zero.
  const float inf = std::numeric_limits<float>::infinity();
  Tensor logits({1, 4});
  for (int i = 0; i < 4; ++i) logits.data()[i] = -inf;
  Tensor y = ops::SoftmaxForward(logits);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(y.data()[i], 0.0f);
}

TEST(AttentionMask, FullyMaskedQueryRowsEmitZerosNotNaN) {
  const int64_t b = 2, heads = 2, s = 3, dh = 4;
  Tensor q = RandTensor({b, heads, s, dh}, 11);
  Tensor k = RandTensor({b, heads, s, dh}, 12);
  Tensor v = RandTensor({b, heads, s, dh}, 13);
  // Batch 0 has zero valid keys: every query row is fully masked.
  std::vector<int64_t> valid = {0, s};
  ops::AttentionMask mask;
  mask.valid_lens = valid.data();
  ops::AttentionCache cache;
  Tensor y = ops::AttentionForward(q, k, v, &cache, &mask);
  for (int64_t i = 0; i < heads * s * dh; ++i) {
    EXPECT_EQ(y.data()[i], 0.0f) << "fully-masked batch must emit zeros";
  }
  for (int64_t i = heads * s * dh; i < y.NumElements(); ++i) {
    EXPECT_FALSE(std::isnan(y.data()[i]));
  }
  // The cached probability rows for the masked batch are zero, so backward
  // sends no gradient through them.
  for (int64_t i = 0; i < heads * s * s; ++i) {
    EXPECT_EQ(cache.probs.data()[i], 0.0f);
  }
  // The cache-free inference variant agrees bitwise.
  Tensor yi = ops::AttentionInference(q, k, v, &mask);
  for (int64_t i = 0; i < y.NumElements(); ++i) {
    EXPECT_EQ(y.data()[i], yi.data()[i]);
  }
}

TEST(AttentionMask, UnmaskedPathUnchangedAndCausalMatchesInference) {
  const int64_t b = 1, heads = 2, s = 4, dh = 3;
  Tensor q = RandTensor({b, heads, s, dh}, 21);
  Tensor k = RandTensor({b, heads, s, dh}, 22);
  Tensor v = RandTensor({b, heads, s, dh}, 23);
  ops::AttentionCache c1;
  Tensor no_mask = ops::AttentionForward(q, k, v, &c1, nullptr);
  Tensor no_mask_inf = ops::AttentionInference(q, k, v, nullptr);
  for (int64_t i = 0; i < no_mask.NumElements(); ++i) {
    EXPECT_EQ(no_mask.data()[i], no_mask_inf.data()[i]);
  }
  ops::AttentionMask causal;
  causal.causal = true;
  ops::AttentionCache c2;
  Tensor cm = ops::AttentionForward(q, k, v, &c2, &causal);
  Tensor ci = ops::AttentionInference(q, k, v, &causal);
  for (int64_t i = 0; i < cm.NumElements(); ++i) {
    EXPECT_EQ(cm.data()[i], ci.data()[i]);
  }
  // Causal row 0 only sees key 0; it must differ from the unmasked result
  // somewhere (sanity that the mask actually bites).
  bool differs = false;
  for (int64_t i = 0; i < cm.NumElements(); ++i) {
    if (cm.data()[i] != no_mask.data()[i]) differs = true;
  }
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// Satellite: unbiased Rng.
// ---------------------------------------------------------------------------

TEST(RngUniformInt, DeterministicInRangeAndCoversSupport) {
  Rng a(42), b(42);
  const int64_t n = 13;
  std::vector<int64_t> counts(static_cast<size_t>(n), 0);
  for (int i = 0; i < 20000; ++i) {
    int64_t va = a.UniformInt(n);
    int64_t vb = b.UniformInt(n);
    EXPECT_EQ(va, vb) << "same seed must give the same stream";
    ASSERT_GE(va, 0);
    ASSERT_LT(va, n);
    counts[static_cast<size_t>(va)]++;
  }
  // Every value appears, and no value is grossly over-weighted (each
  // expected ~1538; a 3x band is astronomically safe for a correct
  // generator but catches systematic bias).
  for (int64_t c : counts) {
    EXPECT_GT(c, 20000 / n / 3);
    EXPECT_LT(c, 3 * 20000 / n);
  }
}

TEST(RngUniformInt, PowerOfTwoAndOneBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.UniformInt(1), 0);
    int64_t v = rng.UniformInt(64);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 64);
  }
}

// ---------------------------------------------------------------------------
// Sampler.
// ---------------------------------------------------------------------------

TEST(Sampler, GreedyPicksArgmaxLowestIndexOnTies) {
  serve::SamplingParams greedy;
  serve::Sampler s(greedy, 1);
  std::vector<float> logits = {0.1f, 2.0f, 2.0f, -1.0f};
  EXPECT_EQ(s.Sample(logits.data(), 4), 1);
}

TEST(Sampler, TemperatureSamplingIsSeedDeterministicAndRespectsTopK) {
  serve::SamplingParams p;
  p.temperature = 0.7f;
  p.top_k = 3;
  std::vector<float> logits = {5.0f, 4.0f, 3.0f, -10.0f, -20.0f, 2.0f};
  serve::Sampler a(p, 123), b(p, 123);
  for (int i = 0; i < 500; ++i) {
    int64_t va = a.Sample(logits.data(), 6);
    EXPECT_EQ(va, b.Sample(logits.data(), 6));
    // top_k=3 restricts to the three largest logits: ids {0, 1, 2}.
    EXPECT_TRUE(va == 0 || va == 1 || va == 2) << va;
  }
}

// ---------------------------------------------------------------------------
// Tentpole: decode parity. Incremental KV-cache decode must be bitwise
// equal to a full-sequence prefill at every step, for every thread degree,
// in f32, int8, f16, and with fusion enabled.
// ---------------------------------------------------------------------------

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.NumElements(), b.NumElements());
  for (int64_t i = 0; i < a.NumElements(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i])
        << what << " diverges at flat index " << i;
  }
}

void RunDecodeParity(const serve::Engine& engine) {
  const std::vector<int64_t> prompt = {5, 17, 42, 3};
  const int64_t steps = 5;

  // Incremental: one prefill, then KV-cache decode steps, greedily feeding
  // the argmax token. Collect the logits of every step.
  std::vector<Tensor> inc_logits;
  std::vector<int64_t> seq = prompt;
  auto cache = engine.NewCache();
  inc_logits.push_back(
      engine.Prefill(prompt.data(), static_cast<int64_t>(prompt.size()),
                     cache.get()));
  serve::Sampler greedy(serve::SamplingParams{}, 0);
  for (int64_t t = 0; t < steps; ++t) {
    int64_t tok =
        greedy.Sample(inc_logits.back().data(), engine.vocab());
    seq.push_back(tok);
    std::vector<serve::KvCache*> caches = {cache.get()};
    inc_logits.push_back(engine.DecodeStep(&tok, caches));
  }

  // Oracle: for every prefix, a fresh full-sequence prefill must reproduce
  // the incremental logits bitwise.
  for (size_t plen = prompt.size(); plen < seq.size(); ++plen) {
    auto fresh = engine.NewCache();
    Tensor full = engine.Prefill(seq.data(), static_cast<int64_t>(plen),
                                 fresh.get());
    ExpectBitwiseEqual(inc_logits[plen - prompt.size()], full,
                       "incremental vs full-prefill logits");
  }
}

TEST(DecodeParity, IncrementalMatchesFullPrefillAcrossDegrees) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  serve::Engine engine(model);
  for (int degree : {1, 2, 8}) {
    ScopedDegree d(degree);
    RunDecodeParity(engine);
  }
}

TEST(DecodeParity, HoldsUnderInt8Quant) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  serve::Engine engine(model);
  quant::ScopedQuantMode q(quant::QuantMode::kInt8);
  for (int degree : {1, 8}) {
    ScopedDegree d(degree);
    RunDecodeParity(engine);
  }
}

TEST(DecodeParity, HoldsUnderF16QuantAndFusion) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  serve::Engine engine(model);
  {
    quant::ScopedQuantMode q(quant::QuantMode::kF16);
    RunDecodeParity(engine);
  }
  {
    fused::ScopedFusion f(true);
    RunDecodeParity(engine);
  }
}

TEST(DecodeParity, HoldsWithAdapters) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  serve::EngineOptions opts;
  opts.num_adapters = 2;
  serve::Engine engine(model, opts);
  RunDecodeParity(engine);
}

// ---------------------------------------------------------------------------
// Tentpole: batched decode is bitwise-independent of batch composition.
// ---------------------------------------------------------------------------

TEST(BatchedDecode, RowsMatchSoloStreamsBitwise) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  serve::Engine engine(model);
  const std::vector<std::vector<int64_t>> prompts = {
      {1, 2, 3}, {9, 8, 7, 6, 5}, {40}, {100, 200, 300, 400}};
  const int64_t n = static_cast<int64_t>(prompts.size());

  // Solo: each stream decodes alone; record every step's logits.
  std::vector<std::vector<Tensor>> solo(static_cast<size_t>(n));
  std::vector<std::vector<int64_t>> solo_toks(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    auto cache = engine.NewCache();
    Tensor logits = engine.Prefill(
        prompts[static_cast<size_t>(i)].data(),
        static_cast<int64_t>(prompts[static_cast<size_t>(i)].size()),
        cache.get());
    serve::Sampler greedy(serve::SamplingParams{}, 0);
    for (int step = 0; step < 4; ++step) {
      int64_t tok = greedy.Sample(logits.data(), engine.vocab());
      solo_toks[static_cast<size_t>(i)].push_back(tok);
      std::vector<serve::KvCache*> caches = {cache.get()};
      logits = engine.DecodeStep(&tok, caches);
      solo[static_cast<size_t>(i)].push_back(logits);
    }
  }

  // Batched: all four streams advance together in one DecodeStep per step.
  std::vector<std::unique_ptr<serve::KvCache>> caches;
  std::vector<Tensor> prefill(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    caches.push_back(engine.NewCache());
    prefill[static_cast<size_t>(i)] = engine.Prefill(
        prompts[static_cast<size_t>(i)].data(),
        static_cast<int64_t>(prompts[static_cast<size_t>(i)].size()),
        caches.back().get());
  }
  std::vector<int64_t> last(static_cast<size_t>(n));
  serve::Sampler greedy(serve::SamplingParams{}, 0);
  for (int64_t i = 0; i < n; ++i) {
    last[static_cast<size_t>(i)] =
        greedy.Sample(prefill[static_cast<size_t>(i)].data(), engine.vocab());
    EXPECT_EQ(last[static_cast<size_t>(i)],
              solo_toks[static_cast<size_t>(i)][0]);
  }
  std::vector<serve::KvCache*> cptrs;
  for (auto& c : caches) cptrs.push_back(c.get());
  for (int step = 0; step < 4; ++step) {
    Tensor batched = engine.DecodeStep(last.data(), cptrs);
    const int64_t vocab = engine.vocab();
    for (int64_t i = 0; i < n; ++i) {
      const Tensor& want = solo[static_cast<size_t>(i)][static_cast<size_t>(step)];
      for (int64_t j = 0; j < vocab; ++j) {
        ASSERT_EQ(batched.data()[i * vocab + j], want.data()[j])
            << "stream " << i << " logit " << j << " at step " << step;
      }
      if (step + 1 < 4) {
        last[static_cast<size_t>(i)] =
            solo_toks[static_cast<size_t>(i)][static_cast<size_t>(step) + 1];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler: continuous batching produces exactly the solo results, under
// backpressure, across batch limits.
// ---------------------------------------------------------------------------

TEST(Scheduler, CompletionsMatchGenerateOneUnderBackpressure) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  serve::Engine engine(model);

  std::vector<serve::Request> reqs;
  for (int i = 0; i < 10; ++i) {
    serve::Request r;
    r.prompt = {static_cast<int64_t>(i * 7 % engine.vocab()),
                static_cast<int64_t>(i + 1)};
    r.max_new_tokens = 3 + (i % 4);
    r.seed = static_cast<uint64_t>(i);
    if (i % 2 == 1) {  // alternate sampled streams to exercise the Rng path
      r.sampling.temperature = 0.9f;
      r.sampling.top_k = 16;
    }
    reqs.push_back(r);
  }
  std::vector<serve::Completion> want;
  for (const serve::Request& r : reqs) want.push_back(GenerateOne(engine, r));

  // Tiny queue forces Submit to block (backpressure); small max_batch forces
  // several admission waves with retirement in between.
  serve::SchedulerOptions opts;
  opts.max_batch = 3;
  opts.queue_capacity = 2;
  serve::RequestScheduler scheduler(engine, opts);
  std::vector<std::future<serve::Completion>> futures;
  for (const serve::Request& r : reqs) futures.push_back(scheduler.Submit(r));
  for (size_t i = 0; i < futures.size(); ++i) {
    serve::Completion got = futures[i].get();
    EXPECT_EQ(got.tokens, want[i].tokens) << "request " << i;
    EXPECT_EQ(got.reason, want[i].reason) << "request " << i;
  }
  scheduler.Shutdown();
}

TEST(Scheduler, EosStopsAStreamEarly) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  serve::Engine engine(model);
  serve::Request probe;
  probe.prompt = {5, 17, 42, 3};
  probe.max_new_tokens = 6;
  serve::Completion free_run = GenerateOne(engine, probe);
  ASSERT_GE(free_run.tokens.size(), 2u);

  serve::Request r = probe;
  r.eos_id = free_run.tokens[1];  // the greedy second token becomes eos
  serve::Completion got = GenerateOne(engine, r);
  ASSERT_EQ(got.tokens.size(), 2u);
  EXPECT_EQ(got.tokens[1], r.eos_id);
  EXPECT_EQ(got.reason, serve::FinishReason::kEos);
}

TEST(Scheduler, FullLengthPromptYieldsExactlyOneToken) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  serve::Engine engine(model);
  serve::Request r;
  // Full-length prompt: the one sampled token comes from prefill logits and
  // is never fed back, so max_new_tokens = 1 exactly fits the table.
  r.prompt.assign(static_cast<size_t>(engine.max_len()), 3);
  r.max_new_tokens = 1;
  serve::Completion got = GenerateOne(engine, r);
  EXPECT_EQ(got.tokens.size(), 1u);
  EXPECT_EQ(got.reason, serve::FinishReason::kLength);
}

// ---------------------------------------------------------------------------
// Satellite: requests that cannot honor max_new_tokens within the positional
// table are rejected up front, in Submit and GenerateOne alike.
// ---------------------------------------------------------------------------

TEST(SchedulerDeathTest, RejectsPromptPlusMaxNewBeyondMaxLen) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  serve::Engine engine(model);
  serve::Request r;
  r.prompt.assign(static_cast<size_t>(engine.max_len()), 3);
  r.max_new_tokens = 2;  // needs max_len + 1 positions
  EXPECT_DEATH(GenerateOne(engine, r), "request rejected");
  EXPECT_DEATH(
      {
        serve::RequestScheduler scheduler(engine);
        scheduler.Submit(r);
      },
      "request rejected");

  serve::Request edge;  // largest admissible request at this prompt length
  edge.prompt = {5, 17, 42};
  edge.max_new_tokens = engine.max_len() - 2;  // 3 + 10 - 1 == max_len
  serve::Completion got = GenerateOne(engine, edge);
  EXPECT_EQ(static_cast<int64_t>(got.tokens.size()), edge.max_new_tokens);
  EXPECT_EQ(got.reason, serve::FinishReason::kLength);
}

// ---------------------------------------------------------------------------
// Paged KV storage. Page-table append/growth, copy-on-write on divergence
// from a shared page, page-size invariance, rejection of a cache with foreign
// page geometry, and shared-prefix reuse through the prefix cache.
// ---------------------------------------------------------------------------

TEST(PagedKvEntry, AppendAcrossPagesPreservesRows) {
  const int64_t heads = 3, dh = 5, page_rows = 4;
  nn::PagedKvEntry e;
  e.Init(heads, dh, page_rows);
  std::vector<std::vector<float>> krows, vrows;
  Rng rng(99);
  for (int step = 0; step < 11; ++step) {  // 2 full pages + a partial tail
    std::vector<float> kr(static_cast<size_t>(heads * dh));
    std::vector<float> vr(static_cast<size_t>(heads * dh));
    for (float& x : kr) x = rng.Normal();
    for (float& x : vr) x = rng.Normal();
    e.AppendRow(kr.data(), vr.data());
    krows.push_back(kr);
    vrows.push_back(vr);
  }
  EXPECT_EQ(e.len, 11);
  ASSERT_EQ(e.pages.size(), 3u);
  std::vector<const float*> kp, vp;
  e.CollectPageTable(&kp, &vp);
  for (int64_t h = 0; h < heads; ++h) {
    for (int64_t t = 0; t < e.len; ++t) {
      const float* krow =
          kp[static_cast<size_t>(t / page_rows)] +
          (h * page_rows + t % page_rows) * dh;
      const float* vrow =
          vp[static_cast<size_t>(t / page_rows)] +
          (h * page_rows + t % page_rows) * dh;
      for (int64_t d = 0; d < dh; ++d) {
        EXPECT_EQ(krow[d],
                  krows[static_cast<size_t>(t)][static_cast<size_t>(h * dh + d)]);
        EXPECT_EQ(vrow[d],
                  vrows[static_cast<size_t>(t)][static_cast<size_t>(h * dh + d)]);
      }
    }
  }
}

TEST(PagedKvEntry, CopyOnWriteLeavesSharedPageUntouched) {
  const int64_t heads = 2, dh = 3, page_rows = 4;
  nn::PagedKvEntry a;
  a.Init(heads, dh, page_rows);
  Rng rng(7);
  std::vector<float> row(static_cast<size_t>(heads * dh));
  for (int step = 0; step < 6; ++step) {  // one full page + 2 tail rows
    for (float& x : row) x = rng.Normal();
    a.AppendRow(row.data(), row.data());
  }

  nn::PagedKvEntry b;
  b.Init(heads, dh, page_rows);
  b.AttachShared(a.pages[0], page_rows);  // full page by reference
  b.AttachShared(a.pages[1], 2);          // partial tail by reference
  EXPECT_EQ(b.len, 6);
  EXPECT_TRUE(b.TailShared());
  EXPECT_EQ(b.pages[1].get(), a.pages[1].get());

  // Snapshot a's tail page, then diverge b: its append must copy, not write
  // through the shared page.
  std::vector<float> a_tail_k(a.pages[1]->k.data(),
                              a.pages[1]->k.data() + a.pages[1]->k.NumElements());
  for (float& x : row) x = 1000.0f;
  b.AppendRow(row.data(), row.data());
  EXPECT_EQ(b.len, 7);
  EXPECT_NE(b.pages[1].get(), a.pages[1].get()) << "divergence must copy";
  EXPECT_FALSE(b.TailShared());
  for (int64_t i = 0; i < a.pages[1]->k.NumElements(); ++i) {
    ASSERT_EQ(a.pages[1]->k.data()[i], a_tail_k[static_cast<size_t>(i)])
        << "shared page mutated at " << i;
  }
  // b sees the 2 attached rows it copied plus its divergent row.
  for (int64_t h = 0; h < heads; ++h) {
    const float* copied = b.pages[1]->k.data() + h * page_rows * dh;
    const float* orig = a.pages[1]->k.data() + h * page_rows * dh;
    for (int64_t i = 0; i < 2 * dh; ++i) ASSERT_EQ(copied[i], orig[i]);
    for (int64_t d = 0; d < dh; ++d) {
      ASSERT_EQ(copied[2 * dh + d], 1000.0f);
    }
  }
}

// Page-size invariance. The reference engine holds each stream in one page
// spanning every position (the contiguous layout); 4-row pages split the
// 9 positions into two full pages and a tail, and 5-row pages (not a divisor
// of seq_len) leave a partial tail page. Prefill and every decode step must
// agree bitwise.
void RunPageSizeParity(const zoo::BertLikeModel& model) {
  serve::EngineOptions ref_opts;
  ref_opts.page_rows = model.config().seq_len;
  serve::Engine ref(model, ref_opts);
  for (int64_t page_rows : {4, 5}) {
    serve::EngineOptions opts;
    opts.page_rows = page_rows;
    serve::Engine paged(model, opts);

    const std::vector<int64_t> prompt = {5, 17, 42, 3};
    auto rc = ref.NewCache();
    auto pc = paged.NewCache();
    Tensor rl = ref.Prefill(prompt.data(),
                            static_cast<int64_t>(prompt.size()), rc.get());
    Tensor pl = paged.Prefill(prompt.data(),
                              static_cast<int64_t>(prompt.size()), pc.get());
    ExpectBitwiseEqual(rl, pl, "paged vs spanning-page prefill logits");
    serve::Sampler greedy(serve::SamplingParams{}, 0);
    for (int step = 0; step < 5; ++step) {
      int64_t tok = greedy.Sample(rl.data(), ref.vocab());
      std::vector<serve::KvCache*> rcs = {rc.get()};
      std::vector<serve::KvCache*> pcs = {pc.get()};
      rl = ref.DecodeStep(&tok, rcs);
      pl = paged.DecodeStep(&tok, pcs);
      ExpectBitwiseEqual(rl, pl, "paged vs spanning-page decode logits");
    }
    EXPECT_EQ(pc->entry(0)->pages.size(),
              static_cast<size_t>((9 + page_rows - 1) / page_rows));
  }
}

TEST(PageSizeParity, MatchesSpanningPageBitwiseAcrossDegrees) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  for (int degree : {1, 2, 8}) {
    ScopedDegree d(degree);
    RunPageSizeParity(model);
  }
}

TEST(PageSizeParity, HoldsUnderInt8AndF16Quant) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  {
    quant::ScopedQuantMode q(quant::QuantMode::kInt8);
    for (int degree : {1, 8}) {
      ScopedDegree d(degree);
      RunPageSizeParity(model);
    }
  }
  {
    quant::ScopedQuantMode q(quant::QuantMode::kF16);
    RunPageSizeParity(model);
  }
}

// A cache made by an engine with another page size must be refused: served
// anyway, its pages would be published to this engine's prefix trie under
// keys of the wrong length and later read with the wrong page geometry.
TEST(EngineDeathTest, RejectsCacheWithForeignPageGeometry) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  serve::EngineOptions a_opts;
  a_opts.page_rows = 4;
  serve::Engine a(model, a_opts);
  serve::EngineOptions b_opts;
  b_opts.page_rows = 8;
  serve::Engine b(model, b_opts);
  const std::vector<int64_t> prompt = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const int64_t n = static_cast<int64_t>(prompt.size());

  auto foreign = a.NewCache();
  EXPECT_EQ(foreign->page_rows(), 4);
  EXPECT_DEATH(b.Prefill(prompt.data(), n, foreign.get()), "page geometry");
  EXPECT_DEATH(b.BeginPrefill(prompt.data(), n, foreign.get()),
               "page geometry");
  EXPECT_DEATH(b.PrefillChunk(prompt.data(), n, foreign.get(),
                              /*want_logits=*/true),
               "page geometry");
  Tensor logits = a.Prefill(prompt.data(), n, foreign.get());
  int64_t tok = serve::Sampler(serve::SamplingParams{}, 0)
                    .Sample(logits.data(), a.vocab());
  std::vector<serve::KvCache*> caches = {foreign.get()};
  EXPECT_DEATH(b.DecodeStep(&tok, caches), "page geometry");
}

TEST(PrefixCacheReuse, SecondStreamAttachesSharedPagesBitwise) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  serve::EngineOptions opts;
  opts.page_rows = 4;
  serve::Engine engine(model, opts);
  obs::Counter& hits =
      obs::MetricsRegistry::Global().counter("serve.prefix_cache.hits");
  obs::Counter& shared =
      obs::MetricsRegistry::Global().counter("serve.prefix_cache.pages_shared");
  obs::Counter& reused =
      obs::MetricsRegistry::Global().counter("serve.prefix_cache.rows_reused");
  const int64_t hits0 = hits.value();
  const int64_t shared0 = shared.value();
  const int64_t reused0 = reused.value();

  const std::vector<int64_t> prompt = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto c1 = engine.NewCache();
  Tensor l1 = engine.Prefill(prompt.data(),
                             static_cast<int64_t>(prompt.size()), c1.get());
  ASSERT_NE(engine.prefix_cache(), nullptr);
  EXPECT_GT(engine.prefix_cache()->NodeCount(), 0);  // 2 full pages published
  EXPECT_GT(engine.prefix_cache()->CachedBytes(), 0);

  // Identical prompt: the second stream attaches the published pages by
  // reference and computes only the uncached tail — logits must not budge.
  auto c2 = engine.NewCache();
  Tensor l2 = engine.Prefill(prompt.data(),
                             static_cast<int64_t>(prompt.size()), c2.get());
  ExpectBitwiseEqual(l1, l2, "prefix-cache hit vs miss prefill logits");
  EXPECT_GT(hits.value(), hits0);
  EXPECT_GT(shared.value(), shared0);
  EXPECT_EQ(reused.value() - reused0, 8);  // both full pages attached
  EXPECT_GT(c2->SharedPages(), 0);
  EXPECT_LT(c2->OwnedBytes(), c2->SizeBytes());

  // A prompt sharing only the first page then diverging must still match a
  // cold engine (no prefix cache) bitwise: CoW isolates the divergence.
  const std::vector<int64_t> div = {1, 2, 3, 4, 99, 98, 97};
  auto c3 = engine.NewCache();
  Tensor l3 = engine.Prefill(div.data(), static_cast<int64_t>(div.size()),
                             c3.get());
  serve::EngineOptions cold_opts = opts;
  cold_opts.prefix_cache = false;
  serve::Engine cold(model, cold_opts);
  EXPECT_EQ(cold.prefix_cache(), nullptr);
  auto c4 = cold.NewCache();
  Tensor l4 = cold.Prefill(div.data(), static_cast<int64_t>(div.size()),
                           c4.get());
  ExpectBitwiseEqual(l3, l4, "divergent prefix-cache prefill vs cold");
}

// ---------------------------------------------------------------------------
// Tentpole: chunked prefill. Chunk boundaries never change completions, and
// a long prompt stalls a live stream's decode by at most one chunk.
// ---------------------------------------------------------------------------

TEST(ChunkedPrefill, CompletionsMatchGenerateOne) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  serve::Engine engine(model);
  std::vector<serve::Request> reqs;
  for (int i = 0; i < 6; ++i) {
    serve::Request r;
    r.prompt.assign(static_cast<size_t>(3 + (i * 3) % 7), 0);
    for (size_t j = 0; j < r.prompt.size(); ++j) {
      r.prompt[j] = static_cast<int64_t>((i * 31 + j * 7) % engine.vocab());
    }
    r.max_new_tokens =
        engine.max_len() - static_cast<int64_t>(r.prompt.size()) + 1;
    r.seed = static_cast<uint64_t>(i);
    reqs.push_back(r);
  }
  std::vector<serve::Completion> want;
  for (const serve::Request& r : reqs) want.push_back(GenerateOne(engine, r));

  obs::Histogram& chunks =
      obs::MetricsRegistry::Global().histogram("serve.prefill_chunks");
  const int64_t count0 = chunks.count();
  serve::SchedulerOptions opts;
  opts.max_batch = 3;
  opts.prefill_chunk = 2;
  serve::RequestScheduler scheduler(engine, opts);
  std::vector<std::future<serve::Completion>> futures;
  for (const serve::Request& r : reqs) futures.push_back(scheduler.Submit(r));
  for (size_t i = 0; i < futures.size(); ++i) {
    serve::Completion got = futures[i].get();
    EXPECT_EQ(got.tokens, want[i].tokens) << "request " << i;
    EXPECT_EQ(got.reason, want[i].reason) << "request " << i;
  }
  scheduler.Shutdown();
  // One histogram sample per completed prefill; prompts of 3..9 tokens in
  // chunks of 2 take 2..5 chunks each.
  EXPECT_EQ(chunks.count() - count0, static_cast<int64_t>(reqs.size()));
  EXPECT_GE(chunks.max(), 2);
}

TEST(ChunkedPrefill, LongPromptDelaysDecodeByAtMostOneChunk) {
  zoo::BertLikeModel model(zoo::BertConfig::MiniScale(), 7);
  serve::Engine engine(model);

  std::mutex mu;
  std::vector<serve::SchedulerStepInfo> steps;
  serve::SchedulerOptions opts;
  opts.max_batch = 4;
  opts.prefill_chunk = 3;
  opts.on_step = [&](const serve::SchedulerStepInfo& info) {
    std::lock_guard<std::mutex> lk(mu);
    steps.push_back(info);
  };
  serve::RequestScheduler scheduler(engine, opts);

  // A short stream with a long decode, then a long prompt (11 rows = 4
  // chunks of 3) that must not monopolize iterations.
  serve::Request short_req;
  short_req.prompt = {5, 17};
  short_req.max_new_tokens = 8;
  serve::Request long_req;
  long_req.prompt.assign(11, 0);
  for (size_t j = 0; j < long_req.prompt.size(); ++j) {
    long_req.prompt[j] = static_cast<int64_t>(j * 13 % engine.vocab());
  }
  long_req.max_new_tokens = 2;
  auto f1 = scheduler.Submit(short_req);
  auto f2 = scheduler.Submit(long_req);
  serve::Completion got_short = f1.get();
  serve::Completion got_long = f2.get();
  scheduler.Shutdown();

  EXPECT_EQ(got_short.tokens, GenerateOne(engine, short_req).tokens);
  EXPECT_EQ(got_long.tokens, GenerateOne(engine, long_req).tokens);

  bool interleaved = false;
  std::lock_guard<std::mutex> lk(mu);
  for (const serve::SchedulerStepInfo& info : steps) {
    // The stall bound: an iteration never computes more than one chunk of
    // prompt rows, and a decode-ready stream always decodes that iteration.
    EXPECT_LE(info.prefill_rows, opts.prefill_chunk);
    if (info.decoded > 0 && (info.prefilling > 0 || info.prefill_rows > 0)) {
      interleaved = true;
    }
  }
  EXPECT_TRUE(interleaved)
      << "long-prompt prefill never overlapped a decode step";
}

}  // namespace
}  // namespace nautilus

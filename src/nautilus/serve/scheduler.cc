#include "nautilus/serve/scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "nautilus/obs/metrics.h"
#include "nautilus/obs/trace.h"
#include "nautilus/util/logging.h"

namespace nautilus {
namespace serve {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Counter& StepCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter("serve.steps");
  return c;
}
obs::Counter& TokensOutCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("serve.tokens_out");
  return c;
}
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().gauge("serve.queue_depth");
  return g;
}
obs::Histogram& StepLatency() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().histogram("serve.step_ns");
  return h;
}
obs::Histogram& RequestLatency() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().histogram("serve.request_ns");
  return h;
}
obs::Histogram& PrefillChunksHist() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().histogram("serve.prefill_chunks");
  return h;
}

void ValidateRequest(const Engine& engine, const Request& req) {
  NAUTILUS_CHECK_GE(static_cast<int64_t>(req.prompt.size()), 1);
  NAUTILUS_CHECK_LE(static_cast<int64_t>(req.prompt.size()), engine.max_len());
  NAUTILUS_CHECK_GE(req.max_new_tokens, 1);
  // The last generated token is never fed back, so a request fits exactly
  // when prompt_len + max_new_tokens - 1 positions exist. Anything larger
  // could not honor max_new_tokens and is rejected up front.
  NAUTILUS_CHECK_LE(
      static_cast<int64_t>(req.prompt.size()) + req.max_new_tokens - 1,
      engine.max_len())
      << "request rejected: prompt_len + max_new_tokens exceeds the model's "
         "max sequence length "
      << engine.max_len();
  for (int64_t t : req.prompt) {
    NAUTILUS_CHECK_GE(t, 0);
    NAUTILUS_CHECK_LT(t, engine.vocab());
  }
}

}  // namespace

const char* FinishReasonName(FinishReason r) {
  switch (r) {
    case FinishReason::kLength:
      return "length";
    case FinishReason::kEos:
      return "eos";
    case FinishReason::kMaxLen:
      return "max_len";
  }
  return "unknown";
}

struct RequestScheduler::Stream {
  Request req;
  std::promise<Completion> promise;
  Sampler sampler;
  std::unique_ptr<KvCache> cache;  // null until admitted (prefill)
  int64_t last_token = -1;         // staged input for the next decode step
  int64_t start_ns = 0;
  int64_t prefill_pos = 0;     // prompt rows in the cache (attached+computed)
  int64_t prefill_chunks = 0;  // chunks run so far for this prompt
  bool prefill_done = false;   // first token staged; decode-ready
  bool retired = false;        // promise resolved this iteration

  Stream(Request r, std::promise<Completion> p)
      : req(std::move(r)),
        promise(std::move(p)),
        sampler(req.sampling, req.seed) {}

  Completion result;  // tokens accumulate here until retirement
};

RequestScheduler::RequestScheduler(const Engine& engine,
                                   const SchedulerOptions& opts)
    : engine_(engine), opts_(opts) {
  NAUTILUS_CHECK_GE(opts_.max_batch, 1);
  NAUTILUS_CHECK_GE(opts_.queue_capacity, 1);
  NAUTILUS_CHECK_GE(opts_.prefill_chunk, 0);
  worker_ = std::thread([this] { WorkerLoop(); });
}

RequestScheduler::~RequestScheduler() { Shutdown(); }

std::future<Completion> RequestScheduler::Submit(Request req) {
  ValidateRequest(engine_, req);
  std::promise<Completion> promise;
  std::future<Completion> future = promise.get_future();
  {
    std::unique_lock<std::mutex> lk(mu_);
    NAUTILUS_CHECK(!shutdown_);
    queue_space_.wait(lk, [this] {
      return static_cast<int64_t>(queue_.size()) < opts_.queue_capacity;
    });
    queue_.push_back(
        std::make_unique<Stream>(std::move(req), std::move(promise)));
    queue_.back()->start_ns = NowNs();
    QueueDepthGauge().Set(static_cast<double>(queue_.size()));
  }
  queue_ready_.notify_one();
  return future;
}

void RequestScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shutdown_ && !worker_.joinable()) return;
    shutdown_ = true;
  }
  queue_ready_.notify_all();
  if (worker_.joinable()) worker_.join();
}

bool RequestScheduler::RecordToken(Stream* s, int64_t tok) {
  s->result.tokens.push_back(tok);
  TokensOutCounter().Add();
  bool stop = false;
  if (s->req.eos_id >= 0 && tok == s->req.eos_id) {
    stop = true;
    s->result.reason = FinishReason::kEos;
  } else if (static_cast<int64_t>(s->result.tokens.size()) >=
             s->req.max_new_tokens) {
    stop = true;
    s->result.reason = FinishReason::kLength;
  } else if (s->cache->len() >= engine_.max_len()) {
    // The sampled token has no position left to occupy on the next step.
    stop = true;
    s->result.reason = FinishReason::kMaxLen;
  }
  if (stop) {
    RequestLatency().Record(NowNs() - s->start_ns);
    s->promise.set_value(std::move(s->result));
    return true;
  }
  s->last_token = tok;
  return false;
}

int64_t RequestScheduler::AdvancePrefill(Stream* s, bool* finished) {
  *finished = false;
  const int64_t n = static_cast<int64_t>(s->req.prompt.size());
  if (opts_.prefill_chunk == 0) {
    // Whole-prompt prefill (engine handles prefix attach + publish).
    s->cache = engine_.NewCache();
    Tensor logits =
        engine_.Prefill(s->req.prompt.data(), n, s->cache.get());
    s->prefill_pos = n;
    s->prefill_chunks = 1;
    s->prefill_done = true;
    PrefillChunksHist().Record(1);
    const int64_t tok = s->sampler.Sample(logits.data(), engine_.vocab());
    *finished = RecordToken(s, tok);
    return n;
  }

  // Chunked: first visit attaches any cached shared prefix, every visit
  // computes one bounded chunk; the final chunk emits the prompt's logits.
  if (s->cache == nullptr) {
    s->cache = engine_.NewCache();
    s->prefill_pos =
        engine_.BeginPrefill(s->req.prompt.data(), n, s->cache.get());
  }
  const int64_t c = std::min(opts_.prefill_chunk, n - s->prefill_pos);
  const bool last = s->prefill_pos + c == n;
  Tensor logits = engine_.PrefillChunk(s->req.prompt.data() + s->prefill_pos,
                                       c, s->cache.get(), last);
  s->prefill_pos += c;
  ++s->prefill_chunks;
  if (last) {
    engine_.FinishPrefill(s->req.prompt.data(), n, s->cache.get());
    s->prefill_done = true;
    PrefillChunksHist().Record(s->prefill_chunks);
    const int64_t tok = s->sampler.Sample(logits.data(), engine_.vocab());
    *finished = RecordToken(s, tok);
  }
  return c;
}

void RequestScheduler::WorkerLoop() {
  std::vector<std::unique_ptr<Stream>> live;
  while (true) {
    // Admit: top the live set up to max_batch from the FIFO queue. Blocks
    // only when fully idle; with live streams it just drains what fits and
    // moves straight on to the next step.
    {
      std::unique_lock<std::mutex> lk(mu_);
      queue_ready_.wait(lk, [&] {
        return shutdown_ || !queue_.empty() || !live.empty();
      });
      if (shutdown_ && queue_.empty() && live.empty()) break;
      bool admitted = false;
      while (static_cast<int64_t>(live.size()) < opts_.max_batch &&
             !queue_.empty()) {
        live.push_back(std::move(queue_.front()));
        queue_.pop_front();
        admitted = true;
      }
      QueueDepthGauge().Set(static_cast<double>(queue_.size()));
      if (admitted) queue_space_.notify_all();
    }

    SchedulerStepInfo info;

    // Prefill. Unchunked: run every newly admitted prompt to completion.
    // Chunked: run ONE chunk of the oldest mid-prefill stream, so streams
    // already decoding stall by at most prefill_chunk rows per iteration.
    std::vector<std::unique_ptr<Stream>> survivors;
    survivors.reserve(live.size());
    bool chunk_spent = false;
    for (std::unique_ptr<Stream>& sp : live) {
      if (!sp->prefill_done &&
          (opts_.prefill_chunk == 0 || !chunk_spent)) {
        chunk_spent = true;
        bool finished = false;
        info.prefill_rows += AdvancePrefill(sp.get(), &finished);
        if (finished) continue;  // retired at prefill (eos / max_new == 1)
      }
      survivors.push_back(std::move(sp));
    }
    live = std::move(survivors);

    // One batched forward for every decode-ready stream, then per-stream
    // sampling and retirement. Logits row j belongs to ready[j].
    std::vector<Stream*> ready;
    ready.reserve(live.size());
    for (const std::unique_ptr<Stream>& sp : live) {
      if (sp->prefill_done) {
        ready.push_back(sp.get());
      } else {
        ++info.prefilling;
      }
    }
    if (!ready.empty()) {
      std::vector<int64_t> last(ready.size());
      std::vector<KvCache*> caches(ready.size());
      for (size_t j = 0; j < ready.size(); ++j) {
        last[j] = ready[j]->last_token;
        caches[j] = ready[j]->cache.get();
      }
      const int64_t t0 = NowNs();
      Tensor logits;
      {
        obs::TraceScope span("serve", "serve.step");
        logits = engine_.DecodeStep(last.data(), caches);
      }
      StepLatency().Record(NowNs() - t0);
      StepCounter().Add();
      info.decoded = static_cast<int64_t>(ready.size());
      const int64_t vocab = engine_.vocab();
      for (size_t j = 0; j < ready.size(); ++j) {
        Stream* s = ready[j];
        const int64_t tok = s->sampler.Sample(
            logits.data() + static_cast<int64_t>(j) * vocab, vocab);
        s->retired = RecordToken(s, tok);
      }
      survivors.clear();
      survivors.reserve(live.size());
      for (std::unique_ptr<Stream>& sp : live) {
        if (!sp->retired) survivors.push_back(std::move(sp));
      }
      live = std::move(survivors);
    }
    if (opts_.on_step) opts_.on_step(info);
  }
}

Completion GenerateOne(const Engine& engine, const Request& req) {
  ValidateRequest(engine, req);
  Sampler sampler(req.sampling, req.seed);
  std::unique_ptr<KvCache> cache = engine.NewCache();
  Tensor logits = engine.Prefill(
      req.prompt.data(), static_cast<int64_t>(req.prompt.size()), cache.get());
  Completion out;
  int64_t tok = sampler.Sample(logits.data(), engine.vocab());
  while (true) {
    out.tokens.push_back(tok);
    if (req.eos_id >= 0 && tok == req.eos_id) {
      out.reason = FinishReason::kEos;
      break;
    }
    if (static_cast<int64_t>(out.tokens.size()) >= req.max_new_tokens) {
      out.reason = FinishReason::kLength;
      break;
    }
    if (cache->len() >= engine.max_len()) {
      out.reason = FinishReason::kMaxLen;
      break;
    }
    std::vector<KvCache*> caches = {cache.get()};
    Tensor step = engine.DecodeStep(&tok, caches);
    tok = sampler.Sample(step.data(), engine.vocab());
  }
  return out;
}

}  // namespace serve
}  // namespace nautilus

#ifndef NAUTILUS_SERVE_SCHEDULER_H_
#define NAUTILUS_SERVE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "nautilus/serve/engine.h"
#include "nautilus/serve/sampler.h"

namespace nautilus {
namespace serve {

/// One generation request. `seed` makes the request's sampler deterministic;
/// with greedy sampling it is unused but still fixed per request.
struct Request {
  std::vector<int64_t> prompt;   // non-empty, <= Engine::max_len()
  int64_t max_new_tokens = 16;   // >= 1
  int64_t eos_id = -1;           // stop token; -1 disables
  SamplingParams sampling;
  uint64_t seed = 0;
};

enum class FinishReason {
  kLength,  // produced max_new_tokens
  kEos,     // sampled eos_id (included in tokens)
  kMaxLen,  // ran into the positional-table bound Engine::max_len()
};

const char* FinishReasonName(FinishReason r);

struct Completion {
  std::vector<int64_t> tokens;  // generated ids, prompt excluded
  FinishReason reason = FinishReason::kLength;
};

/// Per-iteration snapshot handed to SchedulerOptions::on_step (worker
/// thread). One scheduler iteration = at most one prefill chunk plus one
/// batched decode step, so `prefill_rows <= prefill_chunk` whenever chunking
/// is on — the invariant that bounds decode stalls behind long prompts.
struct SchedulerStepInfo {
  int64_t prefill_rows = 0;  // prompt rows computed this iteration
  int64_t decoded = 0;       // streams advanced by the decode step
  int64_t prefilling = 0;    // streams still mid-prefill afterwards
};

struct SchedulerOptions {
  int64_t max_batch = 8;        // live streams batched into one step
  int64_t queue_capacity = 64;  // Submit blocks past this (backpressure)
  /// Chunked prefill: split prompts into chunks of at
  /// most this many rows and run at most ONE chunk per scheduler iteration,
  /// interleaved with the batched decode step — a long prompt can then delay
  /// a live stream's next decode by one chunk, not a whole prompt. 0 keeps
  /// whole-prompt prefill.
  int64_t prefill_chunk = 0;
  /// Observer invoked after every scheduler iteration (from the worker
  /// thread); for tests and instrumentation. May be empty.
  std::function<void(const SchedulerStepInfo&)> on_step;
};

/// Continuous-batching scheduler: a dedicated worker thread admits queued
/// requests into the live set between decode steps (FIFO, up to max_batch),
/// runs ONE batched Engine::DecodeStep per step for all live streams, and
/// retires streams the moment their stop condition fires — no waiting for
/// batch-mates, freed slots refill on the next step. Because each stream's
/// rows are bitwise-independent of its batch-mates, scheduling order never
/// changes what a request generates, only when it finishes.
class RequestScheduler {
 public:
  RequestScheduler(const Engine& engine, const SchedulerOptions& opts = {});
  ~RequestScheduler();

  /// Enqueues a request; blocks while the queue is at capacity. The future
  /// resolves when the stream retires.
  std::future<Completion> Submit(Request req);

  /// Finishes all queued and live work, then stops the worker. Idempotent;
  /// Submit after Shutdown is an error.
  void Shutdown();

 private:
  struct Stream;

  void WorkerLoop();
  /// Records `tok` for the stream; returns true (and resolves the future)
  /// when a stop condition fires, else stages the token for the next step.
  bool RecordToken(Stream* s, int64_t tok);
  /// Runs the whole prompt (unchunked mode) or one chunk (chunked mode) of
  /// the stream's prefill. Returns rows computed; sets *finished when the
  /// stream retired at prefill (eos / max_new == 1).
  int64_t AdvancePrefill(Stream* s, bool* finished);

  const Engine& engine_;
  SchedulerOptions opts_;

  std::mutex mu_;
  std::condition_variable queue_ready_;  // worker waits: work or shutdown
  std::condition_variable queue_space_;  // submitters wait: room in queue
  std::deque<std::unique_ptr<Stream>> queue_;
  bool shutdown_ = false;
  std::thread worker_;
};

/// Runs one request to completion on a private stream (prefill + solo decode
/// steps). The serial baseline for bench_serving and the parity oracle for
/// tests: a scheduler-produced Completion for the same request is identical.
Completion GenerateOne(const Engine& engine, const Request& req);

}  // namespace serve
}  // namespace nautilus

#endif  // NAUTILUS_SERVE_SCHEDULER_H_

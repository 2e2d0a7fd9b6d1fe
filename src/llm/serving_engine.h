// Executing continuous-batching serving engine.
//
// Where SimulateServing (src/llm/serving.h) only *prices* a serving
// trajectory, this engine *runs* one: real requests with real token ids flow
// through a thread-safe queue, an Orca-style iteration-level scheduler, a
// block-paged KV cache (PagedKvCache), and TinyTransformer's mixed
// prefill+decode step — one SpMM with N = decode_batch + prefill_chunk
// columns per weight matrix per iteration.
//
// Time model: execution is real, the clock is virtual. Each iteration's
// duration is priced by the same cost model the analytic simulator uses
// (PrefillTimeUs / DecodeStepTimeUs), with arithmetic mirrored expression for
// expression. Consequences, both load-bearing for the tests:
//   * Reports are deterministic for a fixed seed — independent of thread
//     count, machine speed, and tracing — because no wall clock feeds them.
//   * With EOS disabled, uniform request shapes, defaults for the v2 knobs
//     (no chunking, no prefix cache, no cancels), and an ample KV pool, the
//     engine's trajectory coincides with SimulateServing's, so the analytic
//     report cross-checks the executing one to floating-point exactness.
//
// Scheduling policy (DESIGN.md §5, §7): strict-FIFO admission at iteration
// granularity. A request is admitted only when a batch slot is free AND the
// KV pool can cover its prompt blocks now plus every running sequence's
// worst-case growth to prompt + max_new — the growth-reserve form of the
// full-footprint commitment, which collapses to the classic
// sum-of-footprints check when nothing is shared but counts shared prefix
// blocks once when it is. AppendToken can therefore never fail mid-decode
// and no preemption machinery is needed. The queue head blocks admission
// while it waits (no skip-ahead), which is what makes FIFO-completion and
// no-starvation testable properties.
//
// v2 additions (all default-off; defaults reproduce the v1 engine bit for
// bit): hash-based shared-prefix KV reuse (enable_prefix_cache), chunked
// prefill (prefill_chunk_tokens), and client cancellation (Cancel).
//
// Observability (ServingObsConfig, one default-off switch): a per-request
// event timeline (obs::RequestLog), a scheduler flight recorder wired into
// SPINFER_CHECK crash dumps (obs::FlightRecorder + src/util/crash_dump), and
// a windowed SLO tracker publishing srv.slo.* gauges (obs::SloTracker). All
// of it only *reads* engine state: token streams, reports, and the virtual
// clock are bit-identical with observability on or off.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/llm/engine.h"
#include "src/llm/kv_allocator.h"
#include "src/llm/serving_substrate.h"
#include "src/llm/tiny_transformer.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/request_log.h"
#include "src/obs/slo_tracker.h"
#include "src/util/stats.h"

namespace spinfer {

// Cost-model description of a TinyTransformer, so the virtual clock and the
// analytic cross-check price the same architecture.
ModelConfig ModelConfigFor(const TinyConfig& cfg);

enum class FinishReason {
  kNone,       // still queued or running
  kEos,        // generated the configured EOS token
  kMaxTokens,  // hit its max_new_tokens budget
  kRejected,   // can never run (empty/oversized prompt, a token outside the
               // vocabulary, or footprint > pool)
  kCancelled,  // client cancellation (ServingEngine::Cancel)
};

// The servability rule every scheduler rejects by: a request can ever run
// only with a non-empty prompt and budget, prompt + budget within the
// model's context window `max_seq`, its worst-case blocks within `pool`, and
// every prompt token in [0, vocab).
bool IsServable(const PagedKvCache& pool, const TinyConfig& model,
                const std::vector<int32_t>& prompt, int64_t max_new);

// Request-scoped observability. It is off by default, and turning it on
// never changes token streams, reports, or the virtual clock
// (tests/request_log_test.cc asserts bit-identity).
struct ServingObsConfig {
  // Turns on, together: the structured per-request event timeline (read it
  // after Run via ServingEngine::request_log(): WriteJsonl /
  // ChromeAsyncSpans); the flight recorder of the last 64 scheduler
  // iterations, with Run installing the SPINFER_CHECK crash-dump hook so a
  // check failure dumps them to stderr (the engine uninstalls its own hook
  // on destruction); and the sliding-window (64 iterations) TTFT/TBT
  // percentiles + KV occupancy, published to srv.slo.* gauges in the global
  // MetricsRegistry every iteration.
  bool enabled = false;
  // Wall clock for the timeline's wall_ns stamps (borrowed, must outlive the
  // engine; nullptr = monotonic SteadyClock). Tests inject obs::FakeClock to
  // make the JSONL byte-stable.
  obs::Clock* wall_clock = nullptr;
};

struct ServingEngineConfig {
  int64_t max_batch = 8;
  int64_t kv_block_tokens = 16;
  int64_t kv_num_blocks = 64;
  // Token id that terminates a sequence early; -1 disables EOS eviction.
  int32_t eos_token = -1;
  MatmulBackend backend = MatmulBackend::kTcaBmeCpu;
  // Chunked prefill: cap on prompt tokens computed per iteration across all
  // prefilling sequences; a longer prompt spreads over several iterations,
  // riding the decode batch's SpMM, so one long arrival stalls decode by at
  // most one chunk. 0 = a whole prompt prefills in its admission iteration
  // (the v1 schedule).
  int64_t prefill_chunk_tokens = 0;
  // Shared-prefix KV reuse: admission matches the prompt against the cache's
  // prefix index and adopts identical full blocks (refcounted) instead of
  // recomputing them; only the unmatched tail is prefetched. Off by default.
  bool enable_prefix_cache = false;
  // Prices the virtual clock (PrefillTimeUs / DecodeStepTimeUs). Its
  // num_gpus (>= 1) is the tensor-parallel degree: the clock prices the sharded
  // linears and the per-layer all-reduces, while the executed step and its
  // tokens stay the one model's.
  EngineConfig cost;
  // Request-scoped observability (timeline + flight recorder + SLO tracker).
  ServingObsConfig obs;
};

// Poisson open-loop traffic for InjectPoissonArrivals. Arrival times are
// drawn from Rng(seed) with exactly the analytic simulator's draw sequence;
// request *content* (prompt lengths, token ids, output budgets) comes from an
// independently-seeded second stream so the arrival process stays comparable
// to SimulateServing whatever the content distribution.
struct PoissonTraffic {
  double arrival_rate_rps = 4.0;
  double horizon_s = 10.0;
  uint64_t seed = 1;
  int64_t prompt_len_min = 8;
  int64_t prompt_len_max = 8;
  int64_t max_new_min = 8;
  int64_t max_new_max = 8;
};

// Full per-request trajectory, kept for every submitted request.
struct RequestRecord {
  int64_t id = 0;
  std::vector<int32_t> prompt;
  int64_t max_new_tokens = 0;
  std::vector<int32_t> generated;  // includes the EOS token when one fired
  double arrival_s = 0.0;  // virtual
  double admit_s = 0.0;    // virtual; 0 if never admitted
  double first_token_s = 0.0;  // virtual; 0 if no token was produced
  double finish_s = 0.0;   // virtual
  double latency_ms = 0.0;  // finish - arrival; 0 for rejected
  double ttft_ms = 0.0;     // first_token - arrival; 0 if no token produced
  // Prompt tokens served from the shared-prefix cache at admission (0
  // without a hit or with the cache disabled).
  int64_t cached_prompt_tokens = 0;
  FinishReason reason = FinishReason::kNone;
};

struct ExecServingReport {
  int64_t arrived = 0;
  int64_t rejected = 0;
  int64_t cancelled = 0;
  int64_t completed = 0;
  int64_t tokens_generated = 0;
  int64_t iterations = 0;
  int64_t peak_batch = 0;
  int64_t peak_kv_blocks = 0;
  // Prefix-cache effectiveness: prompt blocks adopted from the index vs
  // freshly allocated at admission, and copy-on-write block copies.
  int64_t prefix_hit_blocks = 0;
  int64_t prefix_miss_blocks = 0;
  int64_t cow_copies = 0;
  // Longest priced iteration (virtual). An iteration is every in-flight
  // decode sequence's inter-token gap, so this IS the worst decode stall:
  // unchunked, one long prefill pushes it to the whole prompt's cost;
  // chunked, it is bounded by one chunk's prefill riding a decode step.
  double peak_iter_ms = 0.0;
  double sim_time_s = 0.0;
  double throughput_tps = 0.0;  // generated tokens per virtual second
  double mean_batch = 0.0;      // time-weighted in-flight sequences
  LatencySummary ttft;          // time-to-first-token over completed requests
  LatencySummary latency;

  // Deterministic rendering; the byte-stability tests compare these strings
  // across reruns and thread counts.
  std::string ToString() const;
};

class ServingEngine {
 public:
  // `model` is borrowed and must outlive the engine. The KV pool
  // (kv_num_blocks x kv_block_tokens slots per layer) is allocated here,
  // inside an owned SingleInstanceSubstrate.
  ServingEngine(const TinyTransformer* model, const ServingEngineConfig& cfg);
  // Runs the same scheduler over a caller-owned execution substrate (e.g. a
  // disaggregated decode instance). `substrate` is borrowed, must outlive the
  // engine, and must not be shared with another engine (the scheduler owns
  // its sequence-id space). cfg.kv_block_tokens/kv_num_blocks are ignored —
  // the substrate brings its own pool.
  ServingEngine(ServingSubstrate* substrate, const ServingEngineConfig& cfg);
  // Uninstalls this engine's crash-dump hook (if it installed one).
  ~ServingEngine();

  // Thread-safe enqueue; returns the request id (dense, starting at 0, in
  // submission order). `arrival_s` is the request's virtual arrival time.
  int64_t Submit(std::vector<int32_t> prompt, int64_t max_new_tokens,
                 double arrival_s = 0.0);
  // Enqueues a request prefilled elsewhere (a disaggregated prefill
  // instance): it starts with `first_token` generated, admission registers
  // it through the substrate's AddSequenceSharing, which must bring its
  // prompt's KV in, and it decodes from its first iteration. It feeds no
  // TTFT sample. `max_new_tokens` counts `first_token` and must be >= 2.
  int64_t SubmitPrefilled(std::vector<int32_t> prompt, int32_t first_token,
                          int64_t max_new_tokens, double arrival_s = 0.0);

  // Draws an open-loop Poisson trace and submits every request. Deterministic
  // for a fixed traffic spec (see PoissonTraffic).
  void InjectPoissonArrivals(const PoissonTraffic& traffic);

  // Requests cancellation of `id` at virtual time `at_s`. Takes effect at
  // the first iteration boundary whose virtual time is >= at_s: a queued
  // request is dropped, a running one is evicted and its (refcounted) KV
  // blocks released; either way the record's terminal state is kCancelled.
  // No-op for a request that already finished by then. Thread-safe; may be
  // called before or during Run.
  void Cancel(int64_t id, double at_s = 0.0);

  // Runs the scheduler until every submitted request is finished (completed,
  // rejected, or cancelled) and returns the report. Single-shot: one Run per
  // engine. Must not race Submit.
  ExecServingReport Run();

  // Post-Run inspection. `results()` is indexed by request id.
  const std::vector<RequestRecord>& results() const { return records_; }
  // Request ids in the order the scheduler admitted them (strict FIFO by
  // (arrival, id) — the no-starvation property tests assert on this).
  const std::vector<int64_t>& admission_order() const { return admission_order_; }
  const PagedKvCache& kv_cache() const { return substrate_->cache(); }

  // Observability surfaces; nullptr when ServingObsConfig::enabled is off.
  obs::RequestLog* request_log() const { return request_log_.get(); }
  obs::FlightRecorder* flight_recorder() const { return flight_recorder_.get(); }
  obs::SloTracker* slo_tracker() const { return slo_tracker_.get(); }

 private:
  struct Active {
    int64_t id = 0;
    // Next prompt position to compute; == prompt length once prefill is
    // done and the sequence decodes.
    int64_t prefill_pos = 0;
    bool prefilled = false;  // submitted with its first token (SubmitPrefilled)
  };

  // The TinyTransformer constructor's target: runs the borrowed-substrate
  // constructor over `owned`, then keeps it alive.
  ServingEngine(std::unique_ptr<SingleInstanceSubstrate> owned,
                const ServingEngineConfig& cfg);

  // Owned when constructed from a TinyTransformer; null when the substrate
  // is borrowed. `substrate_` is the working pointer either way.
  std::unique_ptr<SingleInstanceSubstrate> owned_substrate_;
  ServingSubstrate* substrate_;
  ServingEngineConfig cfg_;

  std::mutex submit_mu_;
  std::vector<RequestRecord> records_;
  // Pending Cancel calls as (at_s, id), drained by Run at iteration
  // boundaries; guarded by submit_mu_.
  std::vector<std::pair<double, int64_t>> cancels_;
  std::vector<int64_t> admission_order_;
  bool ran_ = false;

  // Constructed from cfg.obs in the ctor; null when off. Declared after the
  // state they observe so they are destroyed first.
  std::unique_ptr<obs::RequestLog> request_log_;
  std::unique_ptr<obs::FlightRecorder> flight_recorder_;
  std::unique_ptr<obs::SloTracker> slo_tracker_;
};

}  // namespace spinfer

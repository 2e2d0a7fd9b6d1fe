// Timing decorator over a ServingSubstrate.
//
// The serving engine drives its execution substrate through five calls:
// MatchPrefix, AddSequenceSharing, RemoveSequence, IndexPrefix and
// MixedStep. TimingSubstrate forwards each one unchanged to the wrapped
// substrate and timestamps it from outside, so the engine itself carries no
// benchmark code. Because the engine uses request ids as sequence ids, the
// stamps give per-request wall-clock numbers directly:
//   * TTFT (admitted): AddSequenceSharing call -> return of the MixedStep
//     whose chunk completes the prompt (chunk_next >= 0).
//   * TBT: gap between the returns of consecutive steps that emit a token
//     for the same sequence.
//   * queue wait: StartRun() -> AddSequenceSharing call.
// It also records the schedule those stamps sit on: when each step returned,
// and which steps each TBT gap and TTFT spans, so rounds that replay the
// same schedule can be combined step by step (fastest_repeat.h).
// With a KernelProbe attached (the traced pass), every step's kernels are
// replayed after the step returns. The replay is counted in the wrapped-call
// time and in probe_ms, never in the step's own wall time.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/llm/serving_substrate.h"
#include "src/util/thread_pool.h"

namespace servebench {

class KernelProbe;

// Wall time of one MixedStep and the panel it ran: N = decode_cols +
// chunk_tokens columns per weight matmul.
struct StepSample {
  int64_t decode_cols = 0;
  int64_t chunk_tokens = 0;
  double wall_ms = 0.0;

  int64_t cols() const { return decode_cols + chunk_tokens; }
};

// Calls and total wall time of one wrapped KV-pool entry point.
struct CallStats {
  int64_t calls = 0;
  double total_ms = 0.0;

  double MeanUs() const {
    return calls == 0 ? 0.0 : total_ms * 1e3 / static_cast<double>(calls);
  }
  void Add(const CallStats& o) {
    calls += o.calls;
    total_ms += o.total_ms;
  }
};

// A TBT gap: from the return of step `from` to the return of step `to`
// (indices into RoundTiming::steps).
struct TbtSpan {
  int32_t from = 0;
  int32_t to = 0;
};

// A TTFT: admitted before step `first` started, first token with the
// return of step `token`.
struct TtftSpan {
  int32_t first = 0;
  int32_t token = 0;
};

// Everything one engine Run left in the decorator.
struct RoundTiming {
  std::vector<StepSample> steps;
  std::vector<double> step_end_ms;  // return of each step, after StartRun
  std::vector<double> ttft_admitted_ms;
  std::vector<TtftSpan> ttft_spans;  // parallel to ttft_admitted_ms
  std::vector<double> tbt_ms;
  std::vector<TbtSpan> tbt_spans;  // parallel to tbt_ms
  std::vector<double> queue_wait_ms;
  CallStats match, admit, release, index;
  double step_ms = 0.0;     // sum of StepSample::wall_ms
  double wrapped_ms = 0.0;  // every wrapped call, probe replays included
  double probe_ms = 0.0;    // probe replays alone
  // Global ThreadPool counter deltas over the steps themselves.
  spinfer::ThreadPool::Stats pool;
};

class TimingSubstrate final : public spinfer::ServingSubstrate {
 public:
  // `inner` and `probe` are borrowed; `probe` may be null (untraced).
  explicit TimingSubstrate(spinfer::ServingSubstrate* inner,
                           KernelProbe* probe = nullptr);

  // Call immediately before ServingEngine::Run: queue waits start here.
  void StartRun();
  const RoundTiming& timing() const { return timing_; }

  const spinfer::TinyConfig& model_config() const override;
  const spinfer::PagedKvCache& cache() const override;
  spinfer::PagedKvCache::PrefixMatch MatchPrefix(
      const std::vector<int32_t>& prompt) const override;
  bool AddSequenceSharing(int64_t seq_id, const std::vector<int32_t>& prompt,
                          int64_t tokens,
                          const spinfer::PagedKvCache::PrefixMatch& match) override;
  void RemoveSequence(int64_t seq_id) override;
  void IndexPrefix(int64_t seq_id, const std::vector<int32_t>& prompt,
                   int64_t filled) override;
  void MixedStep(const std::vector<int64_t>& dec_ids,
                 const std::vector<int32_t>& dec_last,
                 const std::vector<spinfer::PrefillChunk>& chunks,
                 spinfer::MatmulBackend backend, std::vector<int32_t>* dec_next,
                 std::vector<int32_t>* chunk_next) override;

 private:
  using Clock = std::chrono::steady_clock;

  struct SeqState {
    Clock::time_point admitted;
    int32_t first_step = 0;  // index of the first step after admission
    Clock::time_point last_token;
    int32_t last_step = 0;  // index of the step that emitted last_token
  };
  SeqState& Seq(int64_t seq_id);
  // Adds the span [t0, now) to `stats` and to the wrapped total.
  void Close(Clock::time_point t0, CallStats* stats) const;

  spinfer::ServingSubstrate* inner_;
  KernelProbe* probe_;
  Clock::time_point run_start_;
  std::vector<SeqState> seqs_;  // indexed by sequence (= request) id
  // MatchPrefix is const in the interface; the stats it adds are
  // bookkeeping, not substrate state.
  mutable RoundTiming timing_;
};

// Milliseconds between two steady_clock points.
inline double MsBetween(std::chrono::steady_clock::time_point a,
                        std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace servebench

#include "timing_substrate.h"

#include "kernel_probe.h"
#include "src/util/check.h"

namespace servebench {

using spinfer::PagedKvCache;
using spinfer::PrefillChunk;
using spinfer::ThreadPool;

TimingSubstrate::TimingSubstrate(spinfer::ServingSubstrate* inner,
                                 KernelProbe* probe)
    : inner_(inner), probe_(probe), run_start_(Clock::now()) {
  SPINFER_CHECK(inner != nullptr);
}

void TimingSubstrate::StartRun() { run_start_ = Clock::now(); }

TimingSubstrate::SeqState& TimingSubstrate::Seq(int64_t seq_id) {
  SPINFER_CHECK(seq_id >= 0);
  if (static_cast<size_t>(seq_id) >= seqs_.size()) {
    seqs_.resize(static_cast<size_t>(seq_id) + 1);
  }
  return seqs_[static_cast<size_t>(seq_id)];
}

void TimingSubstrate::Close(Clock::time_point t0, CallStats* stats) const {
  const double ms = MsBetween(t0, Clock::now());
  ++stats->calls;
  stats->total_ms += ms;
  timing_.wrapped_ms += ms;
}

const spinfer::TinyConfig& TimingSubstrate::model_config() const {
  return inner_->model_config();
}

const PagedKvCache& TimingSubstrate::cache() const { return inner_->cache(); }

PagedKvCache::PrefixMatch TimingSubstrate::MatchPrefix(
    const std::vector<int32_t>& prompt) const {
  const Clock::time_point t0 = Clock::now();
  PagedKvCache::PrefixMatch m = inner_->MatchPrefix(prompt);
  Close(t0, &timing_.match);
  return m;
}

bool TimingSubstrate::AddSequenceSharing(int64_t seq_id,
                                         const std::vector<int32_t>& prompt,
                                         int64_t tokens,
                                         const PagedKvCache::PrefixMatch& match) {
  const Clock::time_point t0 = Clock::now();
  const bool ok = inner_->AddSequenceSharing(seq_id, prompt, tokens, match);
  Close(t0, &timing_.admit);
  if (ok) {
    SeqState& seq = Seq(seq_id);
    seq.admitted = t0;
    seq.first_step = static_cast<int32_t>(timing_.steps.size());
    timing_.queue_wait_ms.push_back(MsBetween(run_start_, t0));
  }
  return ok;
}

void TimingSubstrate::RemoveSequence(int64_t seq_id) {
  const Clock::time_point t0 = Clock::now();
  inner_->RemoveSequence(seq_id);
  Close(t0, &timing_.release);
}

void TimingSubstrate::IndexPrefix(int64_t seq_id,
                                  const std::vector<int32_t>& prompt,
                                  int64_t filled) {
  const Clock::time_point t0 = Clock::now();
  inner_->IndexPrefix(seq_id, prompt, filled);
  Close(t0, &timing_.index);
}

void TimingSubstrate::MixedStep(const std::vector<int64_t>& dec_ids,
                                const std::vector<int32_t>& dec_last,
                                const std::vector<PrefillChunk>& chunks,
                                spinfer::MatmulBackend backend,
                                std::vector<int32_t>* dec_next,
                                std::vector<int32_t>* chunk_next) {
  const ThreadPool::Stats p0 = ThreadPool::Global().stats();
  const Clock::time_point t0 = Clock::now();
  inner_->MixedStep(dec_ids, dec_last, chunks, backend, dec_next, chunk_next);
  const Clock::time_point t1 = Clock::now();
  const ThreadPool::Stats p1 = ThreadPool::Global().stats();

  StepSample s;
  s.decode_cols = static_cast<int64_t>(dec_ids.size());
  for (const PrefillChunk& c : chunks) {
    s.chunk_tokens += c.count;
  }
  s.wall_ms = MsBetween(t0, t1);
  const int32_t step = static_cast<int32_t>(timing_.steps.size());
  timing_.steps.push_back(s);
  timing_.step_end_ms.push_back(MsBetween(run_start_, t1));
  timing_.step_ms += s.wall_ms;

  ThreadPool::Stats& d = timing_.pool;
  d.tasks_submitted += p1.tasks_submitted - p0.tasks_submitted;
  d.tasks_inline += p1.tasks_inline - p0.tasks_inline;
  d.tasks_popped += p1.tasks_popped - p0.tasks_popped;
  d.tasks_stolen += p1.tasks_stolen - p0.tasks_stolen;
  d.parallel_fors += p1.parallel_fors - p0.parallel_fors;
  d.parallel_fors_inline += p1.parallel_fors_inline - p0.parallel_fors_inline;

  for (const int64_t id : dec_ids) {
    SeqState& seq = Seq(id);
    timing_.tbt_ms.push_back(MsBetween(seq.last_token, t1));
    timing_.tbt_spans.push_back({seq.last_step, step});
    seq.last_token = t1;
    seq.last_step = step;
  }
  for (size_t c = 0; c < chunks.size(); ++c) {
    if ((*chunk_next)[c] < 0) {
      continue;  // mid-prompt chunk: no token yet
    }
    SeqState& seq = Seq(chunks[c].seq_id);
    timing_.ttft_admitted_ms.push_back(MsBetween(seq.admitted, t1));
    timing_.ttft_spans.push_back({seq.first_step, step});
    seq.last_token = t1;
    seq.last_step = step;
  }

  if (probe_ != nullptr) {
    const Clock::time_point tp = Clock::now();
    probe_->Replay(inner_->cache(), dec_ids, chunks);
    timing_.probe_ms += MsBetween(tp, Clock::now());
  }
  timing_.wrapped_ms += MsBetween(t0, Clock::now());
}

}  // namespace servebench

// Execution substrate behind the serving engine's scheduler.
//
// ServingEngine's Orca-style loop (admission, chunk scheduling, virtual-time
// pricing, retirement) is independent of WHAT executes an iteration: a single
// TinyTransformer over one PagedKvCache, or a decode instance whose
// sequences arrive by KV handoff (DisaggCluster). This interface is that
// seam. Every executing substrate in this library is a
// SingleInstanceSubstrate: one model and one KV pool, which `cache()`
// exposes as the view the scheduler admits against. The derived substrates
// override only what differs: the step, or how a sequence is registered.
#pragma once

#include <cstdint>
#include <vector>

#include "src/llm/kv_allocator.h"
#include "src/llm/tiny_transformer.h"

namespace spinfer {

class ServingSubstrate {
 public:
  virtual ~ServingSubstrate() = default;

  // Architecture of the served model (vocab for traffic generation, max_seq
  // for admission limits).
  virtual const TinyConfig& model_config() const = 0;

  // Accounting/read-only view of the KV pool: block counts, per-sequence
  // tokens, utilization, cow_copies.
  virtual const PagedKvCache& cache() const = 0;

  // Longest indexed shared prefix of `prompt` (empty match when the prefix
  // cache is unused). The returned block ids are in terms of `cache()`.
  virtual PagedKvCache::PrefixMatch MatchPrefix(
      const std::vector<int32_t>& prompt) const = 0;

  // Registers `seq_id` with `tokens` slots, adopting `match` (from
  // MatchPrefix on this substrate) as its leading blocks. `prompt` is the
  // full prompt; the substrates in this library register by id and do not
  // read it.
  virtual bool AddSequenceSharing(int64_t seq_id,
                                  const std::vector<int32_t>& prompt,
                                  int64_t tokens,
                                  const PagedKvCache::PrefixMatch& match) = 0;

  // Releases `seq_id`'s blocks (refcount-aware).
  virtual void RemoveSequence(int64_t seq_id) = 0;

  // Files `seq_id`'s full prompt-prefix blocks in the prefix index.
  virtual void IndexPrefix(int64_t seq_id, const std::vector<int32_t>& prompt,
                           int64_t filled) = 0;

  // One mixed continuous-batching iteration (TinyTransformer::MixedStep
  // semantics, against this substrate's own KV storage).
  virtual void MixedStep(const std::vector<int64_t>& dec_ids,
                         const std::vector<int32_t>& dec_last,
                         const std::vector<PrefillChunk>& chunks,
                         MatmulBackend backend, std::vector<int32_t>* dec_next,
                         std::vector<int32_t>* chunk_next) = 0;
};

// The single-model, single-cache substrate — ServingEngine's v1 execution
// path, verbatim, behind the interface — and the base of every other one.
class SingleInstanceSubstrate : public ServingSubstrate {
 public:
  // `model` is borrowed and must outlive the substrate.
  SingleInstanceSubstrate(const TinyTransformer* model, int64_t kv_block_tokens,
                          int64_t kv_num_blocks);

  const TinyConfig& model_config() const override;
  const PagedKvCache& cache() const override { return cache_; }
  PagedKvCache::PrefixMatch MatchPrefix(
      const std::vector<int32_t>& prompt) const override;
  bool AddSequenceSharing(int64_t seq_id, const std::vector<int32_t>& prompt,
                          int64_t tokens,
                          const PagedKvCache::PrefixMatch& match) override;
  void RemoveSequence(int64_t seq_id) override;
  void IndexPrefix(int64_t seq_id, const std::vector<int32_t>& prompt,
                   int64_t filled) override;
  void MixedStep(const std::vector<int64_t>& dec_ids,
                 const std::vector<int32_t>& dec_last,
                 const std::vector<PrefillChunk>& chunks, MatmulBackend backend,
                 std::vector<int32_t>* dec_next,
                 std::vector<int32_t>* chunk_next) override;

 protected:
  const TinyTransformer* model_;
  PagedKvCache cache_;
};

}  // namespace spinfer

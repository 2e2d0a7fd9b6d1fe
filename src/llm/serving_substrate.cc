#include "src/llm/serving_substrate.h"

#include "src/util/check.h"

namespace spinfer {
namespace {

// The borrowed model, CHECKed before the pool is sized from it.
const TinyTransformer& CheckedModel(const TinyTransformer* model) {
  SPINFER_CHECK(model != nullptr);
  return *model;
}

}  // namespace

SingleInstanceSubstrate::SingleInstanceSubstrate(const TinyTransformer* model,
                                                 int64_t kv_block_tokens,
                                                 int64_t kv_num_blocks)
    : model_(model),
      cache_(CheckedModel(model).KvCacheConfig(kv_block_tokens,
                                                kv_num_blocks)) {}

const TinyConfig& SingleInstanceSubstrate::model_config() const {
  return model_->config();
}

PagedKvCache::PrefixMatch SingleInstanceSubstrate::MatchPrefix(
    const std::vector<int32_t>& prompt) const {
  return cache_.MatchPrefix(prompt);
}

bool SingleInstanceSubstrate::AddSequenceSharing(
    int64_t seq_id, const std::vector<int32_t>& /*prompt*/, int64_t tokens,
    const PagedKvCache::PrefixMatch& match) {
  return cache_.AddSequenceSharing(seq_id, tokens, match);
}

void SingleInstanceSubstrate::RemoveSequence(int64_t seq_id) {
  cache_.RemoveSequence(seq_id);
}

void SingleInstanceSubstrate::IndexPrefix(int64_t seq_id,
                                          const std::vector<int32_t>& prompt,
                                          int64_t filled) {
  cache_.IndexPrefix(seq_id, prompt, filled);
}

void SingleInstanceSubstrate::MixedStep(const std::vector<int64_t>& dec_ids,
                                        const std::vector<int32_t>& dec_last,
                                        const std::vector<PrefillChunk>& chunks,
                                        MatmulBackend backend,
                                        std::vector<int32_t>* dec_next,
                                        std::vector<int32_t>* chunk_next) {
  model_->MixedStep(dec_ids, dec_last, chunks, backend, &cache_, dec_next,
                    chunk_next);
}

}  // namespace spinfer

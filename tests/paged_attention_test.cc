// Differential suite for the fused, batched paged-attention decode kernel.
//
// The load-bearing property is bit-identity with the retained scalar
// reference (PagedAttentionDecodeReference): TinyTransformer's serving path
// routes every decode and chunk column through the batched kernel, so any
// bit of divergence would change token streams and break the engine's
// batched-vs-single and decode-vs-Generate contracts. The fusion, the SIMD
// variants, and the thread fan-out are all required to reschedule — never
// reorder — each output element's accumulation chain, so every comparison
// here is exact (ASSERT_EQ on float bits), not tolerance-based.
#include "src/llm/paged_attention.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/llm/kv_allocator.h"
#include "src/llm/tiny_transformer.h"
#include "src/util/cpu_features.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace spinfer {
namespace {

void ExpectBitIdentical(const FloatMatrix& a, const FloatMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i])
        << "first mismatch at flat index " << i << " of " << a.size();
  }
}

// A one-layer cache with `seqs` sequences of the given context lengths,
// filled with deterministic pseudo-random K/V rows.
PagedKvCache MakeFilledCache(int64_t kv_dim, const std::vector<int64_t>& ctxs,
                             uint64_t seed, int64_t block_tokens = 16) {
  PagedKvCacheConfig cfg;
  cfg.layers = 1;
  cfg.kv_dim = kv_dim;
  cfg.block_tokens = block_tokens;
  int64_t blocks = static_cast<int64_t>(ctxs.size());  // slack
  for (const int64_t ctx : ctxs) {
    blocks += (ctx + block_tokens - 1) / block_tokens;
  }
  cfg.num_blocks = blocks;
  PagedKvCache cache(cfg);
  Rng rng(seed);
  for (size_t s = 0; s < ctxs.size(); ++s) {
    const int64_t id = static_cast<int64_t>(s);
    EXPECT_TRUE(cache.AddSequence(id, ctxs[s]));
    for (int64_t t = 0; t < ctxs[s]; ++t) {
      float* k = cache.KRow(0, id, t);
      float* v = cache.VRow(0, id, t);
      for (int64_t r = 0; r < kv_dim; ++r) {
        k[r] = rng.Uniform(-1.0f, 1.0f);
        v[r] = rng.Uniform(-1.0f, 1.0f);
      }
    }
  }
  return cache;
}

FloatMatrix RandomPanel(int64_t rows, int64_t cols, uint64_t seed) {
  FloatMatrix m(rows, cols);
  Rng rng(seed);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.Uniform(-1.0f, 1.0f);
  }
  return m;
}

// Runs the reference per item into a fresh matrix: the ground truth every
// batched result in this file is compared against.
FloatMatrix ReferenceBatch(const PagedKvCache& cache, int64_t heads,
                           int64_t kv_heads, const FloatMatrix& q,
                           const std::vector<PagedAttentionItem>& items) {
  FloatMatrix out(q.rows(), q.cols());
  out.Fill(0.0f);
  std::vector<float> scores;
  for (const PagedAttentionItem& it : items) {
    PagedAttentionDecodeReference(cache, /*layer=*/0, it.seq_id, heads,
                                  kv_heads, q, it.col, &out, &scores,
                                  it.context);
  }
  return out;
}

// Ragged contexts deliberately off block (16) and SIMD-group (8) boundaries:
// 1 and 5 inside one block, 16 exactly one block, 17/100 with ragged tails.
const std::vector<int64_t> kRaggedCtxs = {1, 5, 16, 17, 100};

TEST(PagedAttentionTest, FusedMatchesReferenceOnRaggedContexts) {
  constexpr int64_t kHeads = 4, kHd = 16;
  PagedKvCache cache = MakeFilledCache(kHeads * kHd, kRaggedCtxs, 11);
  const FloatMatrix q = RandomPanel(
      kHeads * kHd, static_cast<int64_t>(kRaggedCtxs.size()), 12);
  std::vector<PagedAttentionItem> items;
  for (size_t s = 0; s < kRaggedCtxs.size(); ++s) {
    items.push_back({static_cast<int64_t>(s), static_cast<int64_t>(s), -1});
  }
  const FloatMatrix ref = ReferenceBatch(cache, kHeads, kHeads, q, items);

  FloatMatrix out(q.rows(), q.cols());
  PagedAttentionScratch scratch;
  PagedAttentionDecodeBatch(cache, /*layer=*/0, kHeads, kHeads, q, items,
                            &out, &scratch);
  ExpectBitIdentical(out, ref);
}

// head_dim 20 defeats the AVX2 QK fast path (which needs hd % 8 == 0), so
// the dispatched variant takes its scalar fallback — the speed-only knob
// must not change bits.
TEST(PagedAttentionTest, OddHeadDimMatchesReference) {
  constexpr int64_t kHeads = 3, kHd = 20;
  PagedKvCache cache = MakeFilledCache(kHeads * kHd, {33, 7}, 13);
  const FloatMatrix q = RandomPanel(kHeads * kHd, 2, 14);
  const std::vector<PagedAttentionItem> items = {{0, 0, -1}, {1, 1, -1}};
  const FloatMatrix ref = ReferenceBatch(cache, kHeads, kHeads, q, items);

  FloatMatrix out(q.rows(), q.cols());
  PagedAttentionScratch scratch;
  PagedAttentionDecodeBatch(cache, /*layer=*/0, kHeads, kHeads, q, items,
                            &out, &scratch);
  ExpectBitIdentical(out, ref);
}

TEST(PagedAttentionTest, ChunkHorizonMatchesReference) {
  constexpr int64_t kHeads = 4, kHd = 16;
  PagedKvCache cache = MakeFilledCache(kHeads * kHd, {64}, 15);
  // Four queries over the same sequence at explicit horizons, as chunked
  // prefill issues them: position p attends slots [0, p] while slots past p
  // are already written.
  const std::vector<PagedAttentionItem> items = {
      {0, 0, 1}, {0, 1, 17}, {0, 2, 40}, {0, 3, 64}};
  const FloatMatrix q = RandomPanel(kHeads * kHd, 4, 16);
  const FloatMatrix ref = ReferenceBatch(cache, kHeads, kHeads, q, items);

  FloatMatrix out(q.rows(), q.cols());
  PagedAttentionScratch scratch;
  PagedAttentionDecodeBatch(cache, /*layer=*/0, kHeads, kHeads, q, items,
                            &out, &scratch);
  ExpectBitIdentical(out, ref);
}

TEST(PagedAttentionTest, SimdVariantsBitIdentical) {
  if (!PagedAttentionVariantAvailable(CpuSpmmVariant::kAvx2)) {
    GTEST_SKIP() << "AVX2 paged-attention variant unavailable on this machine";
  }
  constexpr int64_t kHeads = 8, kHd = 32;
  PagedKvCache cache = MakeFilledCache(kHeads * kHd, {256, 31, 48}, 17);
  const FloatMatrix q = RandomPanel(kHeads * kHd, 3, 18);
  const std::vector<PagedAttentionItem> items = {
      {0, 0, -1}, {1, 1, -1}, {2, 2, -1}};

  FloatMatrix portable(q.rows(), q.cols());
  FloatMatrix avx2(q.rows(), q.cols());
  PagedAttentionScratch scratch;
  PagedAttentionDecodeBatchVariant(cache, /*layer=*/0, kHeads, kHeads, q,
                                   items, &portable, &scratch,
                                   CpuSpmmVariant::kPortable);
  PagedAttentionDecodeBatchVariant(cache, /*layer=*/0, kHeads, kHeads, q,
                                   items, &avx2, &scratch,
                                   CpuSpmmVariant::kAvx2);
  ExpectBitIdentical(avx2, portable);
}

TEST(PagedAttentionTest, ThreadCountsBitIdentical) {
  constexpr int64_t kHeads = 8, kHd = 16;
  PagedKvCache cache = MakeFilledCache(kHeads * kHd, {100, 37, 64, 5}, 19);
  const FloatMatrix q = RandomPanel(kHeads * kHd, 4, 20);
  std::vector<PagedAttentionItem> items;
  for (int64_t s = 0; s < 4; ++s) {
    items.push_back({s, s, -1});
  }

  ThreadPool::SetGlobalThreads(1);
  FloatMatrix base(q.rows(), q.cols());
  PagedAttentionScratch scratch;
  PagedAttentionDecodeBatch(cache, /*layer=*/0, kHeads, kHeads, q, items,
                            &base, &scratch);
  for (const int threads : {2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    FloatMatrix out(q.rows(), q.cols());
    PagedAttentionDecodeBatch(cache, /*layer=*/0, kHeads, kHeads, q, items,
                              &out, &scratch);
    ExpectBitIdentical(out, base);
  }
  ThreadPool::SetGlobalThreads(0);
}

// GQA: 8 query heads sharing 2 kv heads must equal (a) the GQA-aware
// reference on the same cache and (b) classic MHA over a cache where each kv
// head's rows are replicated across its group — adoption of a shared K/V row
// is exactly replication.
TEST(PagedAttentionTest, GqaMatchesReferenceAndReplicatedMha) {
  constexpr int64_t kHeads = 8, kKvHeads = 2, kHd = 16;
  constexpr int64_t kCtx = 53;
  PagedKvCache gqa_cache =
      MakeFilledCache(kKvHeads * kHd, {kCtx}, 21);
  const FloatMatrix q = RandomPanel(kHeads * kHd, 1, 22);
  const std::vector<PagedAttentionItem> items = {{0, 0, -1}};
  const FloatMatrix ref = ReferenceBatch(gqa_cache, kHeads, kKvHeads, q, items);

  FloatMatrix out(q.rows(), q.cols());
  PagedAttentionScratch scratch;
  PagedAttentionDecodeBatch(gqa_cache, /*layer=*/0, kHeads, kKvHeads, q,
                            items, &out, &scratch);
  ExpectBitIdentical(out, ref);

  // Replicated-MHA cross-check: kv head g's rows copied to all heads of its
  // group, then attended as plain MHA.
  PagedKvCacheConfig mha_cfg;
  mha_cfg.layers = 1;
  mha_cfg.kv_dim = kHeads * kHd;
  mha_cfg.block_tokens = 16;
  mha_cfg.num_blocks = 8;
  PagedKvCache mha_cache(mha_cfg);
  ASSERT_TRUE(mha_cache.AddSequence(0, kCtx));
  constexpr int64_t kGroup = kHeads / kKvHeads;
  for (int64_t t = 0; t < kCtx; ++t) {
    const float* gk = gqa_cache.KRow(0, 0, t);
    const float* gv = gqa_cache.VRow(0, 0, t);
    float* mk = mha_cache.KRow(0, 0, t);
    float* mv = mha_cache.VRow(0, 0, t);
    for (int64_t h = 0; h < kHeads; ++h) {
      for (int64_t r = 0; r < kHd; ++r) {
        mk[h * kHd + r] = gk[(h / kGroup) * kHd + r];
        mv[h * kHd + r] = gv[(h / kGroup) * kHd + r];
      }
    }
  }
  FloatMatrix mha_out(q.rows(), q.cols());
  PagedAttentionDecodeBatch(mha_cache, /*layer=*/0, kHeads, kHeads, q, items,
                            &mha_out, &scratch);
  ExpectBitIdentical(mha_out, out);
}

TEST(PagedAttentionTest, EmptyContextIsCheckFailure) {
  constexpr int64_t kHeads = 2, kHd = 8;
  PagedKvCache cache = MakeFilledCache(kHeads * kHd, {4}, 23);
  const FloatMatrix q = RandomPanel(kHeads * kHd, 1, 24);
  FloatMatrix out(q.rows(), q.cols());
  PagedAttentionScratch scratch;
  std::vector<float> scores;
  EXPECT_DEATH(PagedAttentionDecodeReference(cache, 0, /*seq_id=*/0, kHeads,
                                             kHeads, q, 0, &out, &scores,
                                             /*context=*/0),
               "no cached tokens");
  const std::vector<PagedAttentionItem> items = {{0, 0, 0}};
  EXPECT_DEATH(PagedAttentionDecodeBatch(cache, 0, kHeads, kHeads, q, items,
                                         &out, &scratch),
               "no cached tokens");
}

// Warmed scratch stops allocating: re-running any seen (or smaller) shape
// leaves the grow count unchanged, and growing the context by single tokens
// amortizes geometrically instead of reallocating per step.
TEST(PagedAttentionTest, WarmScratchStopsGrowing) {
  constexpr int64_t kHeads = 4, kHd = 16;
  PagedKvCache cache = MakeFilledCache(kHeads * kHd, {128, 128}, 25);
  const FloatMatrix q = RandomPanel(kHeads * kHd, 2, 26);
  FloatMatrix out(q.rows(), q.cols());
  PagedAttentionScratch scratch;
  const std::vector<PagedAttentionItem> warm = {{0, 0, -1}, {1, 1, -1}};
  PagedAttentionDecodeBatch(cache, 0, kHeads, kHeads, q, warm, &out, &scratch);
  const int64_t warm_grows = scratch.grow_count();
  for (int64_t ctx = 100; ctx <= 128; ++ctx) {
    const std::vector<PagedAttentionItem> items = {{0, 0, ctx}, {1, 1, ctx}};
    PagedAttentionDecodeBatch(cache, 0, kHeads, kHeads, q, items, &out,
                              &scratch);
  }
  EXPECT_EQ(scratch.grow_count(), warm_grows);
}

// The serving-path contract the fusion must not disturb: decode-only
// MixedStep token streams over the paged cache still match the full-recompute Generate path
// bit for bit (Generate never touches the batched kernel).
TEST(PagedAttentionTest, ServingDecodeStreamMatchesGenerate) {
  TinyConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 64;
  cfg.layers = 2;
  cfg.heads = 4;
  cfg.ffn = 128;
  cfg.max_seq = 48;
  TinyTransformer model(cfg, 31);
  const std::vector<int32_t> prompt = {3, 14, 15, 9, 2, 6};
  constexpr int kSteps = 8;
  const std::vector<int32_t> expect =
      model.Generate(prompt, kSteps, MatmulBackend::kTcaBmeCpu);

  PagedKvCache cache(model.KvCacheConfig(/*block_tokens=*/16,
                                         /*num_blocks=*/8));
  ASSERT_TRUE(cache.AddSequence(0, static_cast<int64_t>(prompt.size())));
  std::vector<int32_t> tokens = prompt;
  tokens.push_back(model.Prefill(prompt, MatmulBackend::kTcaBmeCpu, &cache, 0));
  std::vector<int32_t> next;
  for (int step = 1; step < kSteps; ++step) {
    model.MixedStep({0}, {tokens.back()}, {}, MatmulBackend::kTcaBmeCpu,
                    &cache, &next, nullptr);
    tokens.push_back(next[0]);
  }
  EXPECT_EQ(tokens, expect);
}

}  // namespace
}  // namespace spinfer

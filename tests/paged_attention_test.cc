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
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "src/llm/kv_allocator.h"
#include "src/llm/paged_attention_inner.h"
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
// filled with deterministic pseudo-random K/V rows (uniform in [-1, 1), so
// almost every value is rounded when the cache stores it in FP16).
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
  std::vector<float> k(static_cast<size_t>(kv_dim)), v(static_cast<size_t>(kv_dim));
  for (size_t s = 0; s < ctxs.size(); ++s) {
    const int64_t id = static_cast<int64_t>(s);
    EXPECT_TRUE(cache.AddSequence(id, ctxs[s]));
    for (int64_t t = 0; t < ctxs[s]; ++t) {
      for (int64_t r = 0; r < kv_dim; ++r) {
        k[static_cast<size_t>(r)] = rng.Uniform(-1.0f, 1.0f);
        v[static_cast<size_t>(r)] = rng.Uniform(-1.0f, 1.0f);
      }
      cache.WriteSlot(0, id, t, k.data(), v.data());
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

// head_dim 20: the lone PV's ragged register block (8 + 8, then 4 rows one
// at a time) must not change bits.
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
  std::vector<float> gk(kKvHeads * kHd), gv(kKvHeads * kHd);
  std::vector<float> mk(kHeads * kHd), mv(kHeads * kHd);
  for (int64_t t = 0; t < kCtx; ++t) {
    gqa_cache.ReadSlot(0, 0, t, gk.data(), gv.data());
    for (int64_t h = 0; h < kHeads; ++h) {
      for (int64_t r = 0; r < kHd; ++r) {
        mk[h * kHd + r] = gk[(h / kGroup) * kHd + r];
        mv[h * kHd + r] = gv[(h / kGroup) * kHd + r];
      }
    }
    mha_cache.WriteSlot(0, 0, t, mk.data(), mv.data());
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

// --- Work-grid shapes: query tiles, lone queries, head bands. -------------
//
// Every batched result below is compared bitwise against the reference on
// both variants and at pool threads 1, 2 and 8 (8 exceeds this host's cores
// and every batch's lone-item count, so head bands are exercised too).

uint32_t Bits(float f) {
  uint32_t b = 0;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

float FromBits(uint32_t b) {
  float f = 0.0f;
  std::memcpy(&f, &b, sizeof(f));
  return f;
}

std::vector<CpuSpmmVariant> AvailableVariants() {
  std::vector<CpuSpmmVariant> v = {CpuSpmmVariant::kPortable};
  if (PagedAttentionVariantAvailable(CpuSpmmVariant::kAvx2)) {
    v.push_back(CpuSpmmVariant::kAvx2);
  }
  return v;
}

// Runs the batch on every variant at 1/2/8 pool threads, each time into an
// `out` pre-filled with NaN, and requires the batch's columns to equal
// `expect` bit for bit and every other column to stay NaN, untouched.
void ExpectEveryPathMatches(const PagedKvCache& cache, int64_t heads,
                            int64_t kv_heads, const FloatMatrix& q,
                            const std::vector<PagedAttentionItem>& items,
                            const FloatMatrix& expect) {
  std::vector<bool> in_batch(static_cast<size_t>(q.cols()), false);
  for (const PagedAttentionItem& it : items) {
    in_batch[static_cast<size_t>(it.col)] = true;
  }
  const uint32_t nan_bits = Bits(std::numeric_limits<float>::quiet_NaN());
  PagedAttentionScratch scratch;
  for (const int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    for (const CpuSpmmVariant v : AvailableVariants()) {
      FloatMatrix out(q.rows(), q.cols());
      out.Fill(FromBits(nan_bits));
      PagedAttentionDecodeBatchVariant(cache, /*layer=*/0, heads, kv_heads, q,
                                       items, &out, &scratch, v);
      for (int64_t r = 0; r < q.rows(); ++r) {
        for (int64_t c = 0; c < q.cols(); ++c) {
          const uint32_t want = in_batch[static_cast<size_t>(c)]
                                    ? Bits(expect.at(r, c))
                                    : nan_bits;
          ASSERT_EQ(Bits(out.at(r, c)), want)
              << "row " << r << " col " << c << " threads " << threads
              << " variant " << static_cast<int>(v);
        }
      }
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

// One sequence's run of every length 1..19 at horizons p + 1 — lone queries
// below the crossover, single tiles, ragged tile tails and multi-tile runs.
TEST(PagedAttentionTest, RunsOfEveryLengthMatchReference) {
  constexpr int64_t kHeads = 4, kHd = 16, kCtx = 45;
  PagedKvCache cache = MakeFilledCache(kHeads * kHd, {kCtx}, 41);
  const FloatMatrix q = RandomPanel(kHeads * kHd, 19, 42);
  for (int64_t len = 1; len <= 19; ++len) {
    std::vector<PagedAttentionItem> items;
    for (int64_t j = 0; j < len; ++j) {
      const int64_t p = kCtx - len + j;
      items.push_back({0, j, p + 1});
    }
    ExpectEveryPathMatches(cache, kHeads, kHeads, q, items,
                           ReferenceBatch(cache, kHeads, kHeads, q, items));
  }
}

// Runs interleaved with other sequences' decode items: every run boundary
// is a sequence change, so one sequence can form several runs in one batch.
TEST(PagedAttentionTest, RunsInterleavedWithDecodeItemsMatchReference) {
  constexpr int64_t kHeads = 8, kHd = 32;
  PagedKvCache cache =
      MakeFilledCache(kHeads * kHd, {70, 23, 9, 130}, 43);
  std::vector<PagedAttentionItem> items;
  int64_t col = 0;
  items.push_back({1, col++, -1});                 // decode
  for (int64_t p = 50; p < 61; ++p) {               // run of 11 on seq 0
    items.push_back({0, col++, p + 1});
  }
  items.push_back({2, col++, -1});                 // decode
  for (int64_t p = 61; p < 66; ++p) {               // run of 5 on seq 0
    items.push_back({0, col++, p + 1});
  }
  items.push_back({3, col++, -1});                 // decode
  for (int64_t p = 100; p < 104; ++p) {             // run of 4 on seq 3
    items.push_back({3, col++, p + 1});
  }
  items.push_back({0, col++, 3});                  // run of 2 on seq 0
  items.push_back({0, col++, 70});
  const FloatMatrix q = RandomPanel(kHeads * kHd, col + 3, 44);
  ExpectEveryPathMatches(cache, kHeads, kHeads, q, items,
                         ReferenceBatch(cache, kHeads, kHeads, q, items));
}

// A run whose horizons do not ascend: each lane masks its own tail, and
// the keys inside every horizon are fewer than the tile's longest.
TEST(PagedAttentionTest, NonAscendingHorizonsMatchReference) {
  constexpr int64_t kHeads = 4, kHd = 16;
  PagedKvCache cache = MakeFilledCache(kHeads * kHd, {64}, 45);
  const std::vector<int64_t> horizons = {17, 3, 40, 40, 1, 25, 9, 64, 12, 2};
  std::vector<PagedAttentionItem> items;
  for (size_t j = 0; j < horizons.size(); ++j) {
    items.push_back({0, static_cast<int64_t>(j), horizons[j]});
  }
  const FloatMatrix q =
      RandomPanel(kHeads * kHd, static_cast<int64_t>(horizons.size()), 46);
  ExpectEveryPathMatches(cache, kHeads, kHeads, q, items,
                         ReferenceBatch(cache, kHeads, kHeads, q, items));
}

TEST(PagedAttentionTest, GqaRunsMatchReference) {
  constexpr int64_t kHeads = 8, kKvHeads = 2, kHd = 16;
  PagedKvCache cache = MakeFilledCache(kKvHeads * kHd, {57, 20}, 47);
  std::vector<PagedAttentionItem> items;
  int64_t col = 0;
  for (int64_t p = 40; p < 57; ++p) {
    items.push_back({0, col++, p + 1});
  }
  items.push_back({1, col++, -1});
  const FloatMatrix q = RandomPanel(kHeads * kHd, col, 48);
  ExpectEveryPathMatches(cache, kHeads, kKvHeads, q, items,
                         ReferenceBatch(cache, kHeads, kKvHeads, q, items));
}

// head_dim 20: the tiles' PV takes a ragged register block (8 + 8 + 4
// rows) and the lone PV a ragged tail.
TEST(PagedAttentionTest, HeadDim20RunsMatchReference) {
  constexpr int64_t kHeads = 3, kHd = 20;
  PagedKvCache cache = MakeFilledCache(kHeads * kHd, {33, 7}, 49);
  std::vector<PagedAttentionItem> items;
  int64_t col = 0;
  for (int64_t p = 20; p < 33; ++p) {
    items.push_back({0, col++, p + 1});
  }
  items.push_back({1, col++, -1});
  for (int64_t p = 0; p < 3; ++p) {
    items.push_back({0, col++, p + 1});
  }
  const FloatMatrix q = RandomPanel(kHeads * kHd, col, 50);
  ExpectEveryPathMatches(cache, kHeads, kHeads, q, items,
                         ReferenceBatch(cache, kHeads, kHeads, q, items));
}

// The page format at every block size, on values that are not exact in
// FP16 (MakeFilledCache's are rounded when stored): block_tokens 4, 8, 12
// and 16 — 4 and 12 leave the AVX2 lone QK a group that would read past a
// block's row, which takes the portable tail — with GQA and with head_dim
// 20, tiles and lone queries mixed.
TEST(PagedAttentionTest, EveryBlockSizeMatchesReference) {
  struct Shape {
    int64_t heads, kv_heads, hd;
  };
  for (const Shape sh : {Shape{8, 2, 16}, Shape{3, 3, 20}}) {
    for (const int64_t bt : {4, 8, 12, 16}) {
      PagedKvCache cache = MakeFilledCache(sh.kv_heads * sh.hd,
                                           {45, 23, 7, 64}, 61 + bt, bt);
      std::vector<PagedAttentionItem> items;
      int64_t col = 0;
      items.push_back({1, col++, -1});
      for (int64_t p = 30; p < 39; ++p) {  // a run of 9: two tiles
        items.push_back({0, col++, p + 1});
      }
      items.push_back({2, col++, -1});
      items.push_back({3, col++, -1});
      items.push_back({0, col++, 41});  // a run of 2: lone queries
      items.push_back({0, col++, 45});
      for (int64_t p = 50; p < 56; ++p) {  // a run of 6: one tile
        items.push_back({3, col++, p + 1});
      }
      const FloatMatrix q = RandomPanel(sh.heads * sh.hd, col, 62 + bt);
      SCOPED_TRACE(::testing::Message() << "block_tokens " << bt << " heads "
                                        << sh.heads << "/" << sh.kv_heads
                                        << " head_dim " << sh.hd);
      ExpectEveryPathMatches(
          cache, sh.heads, sh.kv_heads, q, items,
          ReferenceBatch(cache, sh.heads, sh.kv_heads, q, items));
    }
  }
}

// Masking canary: K/V slots past every lane's horizon — the rest of its
// KV block and the blocks after it — hold NaN and +-inf. A kernel that let
// such a key into a lane, even multiplied by zero, would turn that lane's
// output into NaN.
TEST(PagedAttentionTest, SlotsPastEveryHorizonNeverReachAnOutput) {
  constexpr int64_t kHeads = 4, kHd = 16;
  constexpr int64_t kTokens = 96;  // six whole 16-token blocks
  PagedKvCache cache = MakeFilledCache(kHeads * kHd, {kTokens, kTokens}, 51);
  // Seq 0: a run of 13 at positions 40..52 with two non-ascending horizons;
  // seq 1: a lone item over its first 37 slots.
  std::vector<PagedAttentionItem> items;
  int64_t col = 0;
  for (int64_t p = 40; p < 53; ++p) {
    items.push_back({0, col++, p + 1});
  }
  items[3].context = 21;
  items[9].context = 2;
  items.push_back({1, col++, 37});
  const FloatMatrix q = RandomPanel(kHeads * kHd, col + 2, 52);
  const FloatMatrix expect = ReferenceBatch(cache, kHeads, kHeads, q, items);

  const float poison[3] = {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity()};
  auto poison_from = [&](int64_t seq, int64_t from) {
    std::vector<float> k(kHeads * kHd), v(kHeads * kHd);
    for (int64_t t = from; t < kTokens; ++t) {
      for (int64_t r = 0; r < kHeads * kHd; ++r) {
        k[r] = poison[(t + r) % 3];
        v[r] = poison[(t + r + 1) % 3];
      }
      cache.WriteSlot(0, seq, t, k.data(), v.data());
    }
  };
  poison_from(0, 53);  // past the run's longest horizon
  poison_from(1, 37);
  ExpectEveryPathMatches(cache, kHeads, kHeads, q, items, expect);
}

// Keys inside some lanes' horizons but past others': V rows of +inf that the
// long-horizon lanes attend (their outputs are +inf) must leave the
// short-horizon lanes of the same tile finite and bitwise the reference's —
// a masked lane that multiplied such a key by zero would read 0 * inf = NaN.
TEST(PagedAttentionTest, KeysPastALanesHorizonAreMaskedNotZeroed) {
  constexpr int64_t kHeads = 4, kHd = 16, kTokens = 64;
  PagedKvCache cache = MakeFilledCache(kHeads * kHd, {kTokens}, 55);
  std::vector<float> k(kHeads * kHd);
  const std::vector<float> v(kHeads * kHd,
                             std::numeric_limits<float>::infinity());
  for (int64_t t = 20; t < kTokens; ++t) {
    std::vector<float> unused(kHeads * kHd);
    cache.ReadSlot(0, 0, t, k.data(), unused.data());  // K stays as filled
    cache.WriteSlot(0, 0, t, k.data(), v.data());
  }
  const std::vector<int64_t> horizons = {10, 12, 14, 16, 40, 44, 48, 64,
                                         11, 20, 13, 55};
  std::vector<PagedAttentionItem> items;
  for (size_t j = 0; j < horizons.size(); ++j) {
    items.push_back({0, static_cast<int64_t>(j), horizons[j]});
  }
  const FloatMatrix q =
      RandomPanel(kHeads * kHd, static_cast<int64_t>(horizons.size()), 56);
  const FloatMatrix expect = ReferenceBatch(cache, kHeads, kHeads, q, items);
  for (size_t j = 0; j < horizons.size(); ++j) {
    const int64_t col = static_cast<int64_t>(j);
    ASSERT_EQ(std::isinf(expect.at(0, col)), horizons[j] > 20) << "col " << j;
  }
  ExpectEveryPathMatches(cache, kHeads, kHeads, q, items, expect);
}

// Warm scratch across chunk shapes: once the largest step has run, no mix
// of decode items and chunk lengths grows the task list or the float arena,
// and a 128-column chunk's arena stays about one context-long score row per
// (query, head).
TEST(PagedAttentionTest, WarmScratchStaysFlatAcrossChunkShapes) {
  constexpr int64_t kHeads = 8, kHd = 32;
  PagedKvCache cache = MakeFilledCache(kHeads * kHd, {448, 300, 200}, 53);
  const FloatMatrix q = RandomPanel(kHeads * kHd, 131, 54);
  FloatMatrix out(q.rows(), q.cols());
  auto step = [](int64_t decode, int64_t chunk, int64_t start) {
    std::vector<PagedAttentionItem> items;
    for (int64_t i = 0; i < decode; ++i) {
      items.push_back({1 + i, i, -1});
    }
    for (int64_t j = 0; j < chunk; ++j) {
      items.push_back({0, decode + j, start + j + 1});
    }
    return items;
  };

  PagedAttentionScratch scratch;
  const std::vector<PagedAttentionItem> chunk128 = step(0, 128, 320);
  PagedAttentionDecodeBatch(cache, 0, kHeads, kHeads, q, chunk128, &out,
                            &scratch);
  int64_t score_rows = 0;
  for (const PagedAttentionItem& it : chunk128) {
    score_rows += kHeads * it.context;
  }
  EXPECT_LE(static_cast<double>(scratch.floats.capacity()),
            1.3 * static_cast<double>(score_rows));

  PagedAttentionDecodeBatch(cache, 0, kHeads, kHeads, q, step(2, 128, 320),
                            &out, &scratch);
  const int64_t warm = scratch.grow_count();
  for (const int64_t decode : {0, 1, 2}) {
    for (const int64_t chunk : {1, 3, 4, 7, 8, 9, 17, 64, 127, 128}) {
      for (const int64_t start : {int64_t{0}, int64_t{100}, 448 - chunk}) {
        PagedAttentionDecodeBatch(cache, 0, kHeads, kHeads, q,
                                  step(decode, chunk, start), &out, &scratch);
      }
    }
  }
  EXPECT_EQ(scratch.grow_count(), warm);
}

// --- SoftmaxExp: the one exponential of every attention path. -------------

// The AVX2 mirror, applied elementwise (row_exp with max 0: x - 0 is x for
// every x, -0 and NaN included). `x.size()` must be a multiple of 8 so no
// element takes the scalar tail.
std::vector<float> Avx2Exp(std::vector<float> x) {
  paged_attention_detail::Avx2AttnKernels().row_exp(
      x.data(), static_cast<int64_t>(x.size()), 0.0f);
  return x;
}

TEST(SoftmaxExpTest, ExactAtZero) {
  EXPECT_EQ(Bits(SoftmaxExp(0.0f)), Bits(1.0f));
  EXPECT_EQ(Bits(SoftmaxExp(-0.0f)), Bits(1.0f));
}

TEST(SoftmaxExpTest, WithinOneUlpOfDoubleExp) {
  const uint32_t lo = Bits(-87.33f);
  double worst = 0.0;
  for (uint32_t b = Bits(-0.0f); b <= lo; b += 211) {
    const float x = FromBits(b);
    const double want = std::exp(static_cast<double>(x));
    int exp2 = 0;
    std::frexp(static_cast<float>(want), &exp2);
    const double ulp = std::ldexp(1.0, std::max(exp2 - 24, -149));
    const double err =
        std::fabs(static_cast<double>(SoftmaxExp(x)) - want) / ulp;
    worst = std::max(worst, err);
    ASSERT_LE(err, 1.0) << "x = " << x;
  }
  EXPECT_GT(worst, 0.0);  // the sweep really compared something
}

TEST(SoftmaxExpTest, Avx2MirrorsScalarBitwise) {
  if (!PagedAttentionVariantAvailable(CpuSpmmVariant::kAvx2)) {
    GTEST_SKIP() << "AVX2 paged-attention variant unavailable on this machine";
  }
  std::vector<float> x;
  // A strided sweep of the bit patterns in [-100, 0]...
  for (uint32_t b = Bits(-0.0f); b <= Bits(-100.0f); b += 331) {
    x.push_back(FromBits(b));
  }
  // ...plus +-0, the clamp and its neighbours, -inf, NaNs and inputs above
  // the contract (taken as 0).
  const float lo = paged_attention_detail::kExpLo;
  for (const float f :
       {0.0f, -0.0f, lo, std::nextafter(lo, 0.0f), std::nextafter(lo, -1e9f),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(), FromBits(0x7fa00001u),
        std::numeric_limits<float>::infinity(), 3.5f,
        std::numeric_limits<float>::denorm_min(), -1e-30f, -1e30f}) {
    x.push_back(f);
  }
  while (x.size() % 8 != 0) {
    x.push_back(-1.0f);
  }
  const std::vector<float> vec = Avx2Exp(x);
  for (size_t i = 0; i < x.size(); ++i) {
    const float s = SoftmaxExp(x[i]);
    ASSERT_EQ(Bits(vec[i]), Bits(s)) << "x bits " << std::hex << Bits(x[i]);
    if (std::isnan(x[i])) {
      EXPECT_TRUE(std::isnan(s));
    }
  }
  EXPECT_EQ(SoftmaxExp(-std::numeric_limits<float>::infinity()), 0.0f);
  EXPECT_EQ(SoftmaxExp(std::nextafter(lo, -1e9f)), 0.0f);
  EXPECT_GT(SoftmaxExp(lo), 0.0f);
}

}  // namespace
}  // namespace spinfer

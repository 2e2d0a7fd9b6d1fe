// Warm CPU SpMM/SpMV calls, paged-attention calls and model steps allocate
// nothing on the heap, at every pool width.
//
// cpu_backend.h promises that once the workspace and output have seen a
// call's shapes, repeat calls are allocation-free. Workspace growth is
// observable (SpmmWorkspace::grow_count), but an allocation the kernel
// drivers or the thread pool make and free inside one call is not. This
// binary replaces the global operator new to count every allocation, on
// every thread, so it is a test binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/core/cpu_backend.h"
#include "src/core/cpu_spmv.h"
#include "src/format/tca_bme_quant.h"
#include "src/llm/paged_attention.h"
#include "src/llm/tiny_transformer.h"
#include "src/pruning/magnitude.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) {
    size = 1;
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace spinfer {
namespace {

// Heap allocations made by `call`, run once to warm its workspace and
// output, then counted over a second run. `reset`, run uncounted after each
// call, restores any state the call consumed.
template <typename Call, typename Reset>
int64_t WarmAllocations(const Call& call, const Reset& reset) {
  call();
  reset();
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  call();
  const int64_t made = g_allocations.load(std::memory_order_relaxed) - before;
  reset();
  return made;
}

template <typename Call>
int64_t WarmAllocations(const Call& call) {
  return WarmAllocations(call, [] {});
}

FloatMatrix RandomActivations(int64_t rows, int64_t cols, Rng& rng) {
  FloatMatrix x(rows, cols);
  for (int64_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.Gaussian() * 0.5);
  }
  return x;
}

// Every check runs at these global pool widths: 1 runs each ParallelFor
// inline on the caller, 2 and 4 hand loops to the fork/join team.
constexpr int kPoolWidths[] = {1, 2, 4};

class KernelAllocTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::SetGlobalThreads(0); }
};

TEST_F(KernelAllocTest, WarmSpmmCallsAllocateNothing) {
  Rng rng(811);
  const HalfMatrix w = HalfMatrix::RandomSparse(192, 160, 0.6, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  // N = 1 runs the block tile in place on the output, 2, 4 and 8 on the
  // workspace's column-major block, 64 RowTerm staging, and 132 both: RowTerm
  // staging for its first 128 columns and the block tile for the last 4.
  for (const int threads : kPoolWidths) {
    ThreadPool::SetGlobalThreads(threads);
    for (const int64_t n : {1, 2, 4, 8, 64, 132}) {
      const FloatMatrix x = RandomActivations(160, n, rng);
      SpmmWorkspace ws;
      FloatMatrix out;
      EXPECT_EQ(WarmAllocations([&] { CpuSpmmQuantInto(enc, x, &ws, &out); }), 0)
          << "CpuSpmmQuantInto at n=" << n << ", " << threads << " threads";
    }
    const FloatMatrix x = RandomActivations(160, 4, rng);
    SpmmWorkspace ws;
    FloatMatrix out(192, 4);
    out.Fill(0.0f);
    EXPECT_EQ(
        WarmAllocations([&] { CpuSpmmQuantAccumulateInto(enc, x, &ws, &out); }), 0)
        << "CpuSpmmQuantAccumulateInto at n=4, " << threads << " threads";
  }
}

TEST_F(KernelAllocTest, WarmFloatSpmvCallAllocatesNothing) {
  Rng rng(813);
  const HalfMatrix w = HalfMatrix::RandomSparse(192, 160, 0.6, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  const FloatMatrix x = RandomActivations(160, 1, rng);
  for (const int threads : kPoolWidths) {
    ThreadPool::SetGlobalThreads(threads);
    SpmmWorkspace ws;
    FloatMatrix out;
    EXPECT_EQ(WarmAllocations([&] { CpuSpmvQuantInto(enc, x, &ws, &out); }), 0)
        << threads << " threads";
  }
}

TEST_F(KernelAllocTest, WarmInt8SpmvCallAllocatesNothing) {
  Rng rng(812);
  const HalfMatrix w = HalfMatrix::RandomSparse(192, 160, 0.6, rng);
  const TcaBmeQuantMatrix enc = TcaBmeQuantMatrix::Encode(w);
  const FloatMatrix x = RandomActivations(160, 1, rng);
  for (const int threads : kPoolWidths) {
    ThreadPool::SetGlobalThreads(threads);
    SpmmWorkspace ws;
    FloatMatrix out;
    EXPECT_EQ(WarmAllocations([&] { CpuSpmvInt8Into(enc, x, &ws, &out); }), 0)
        << threads << " threads";
  }
}

TEST_F(KernelAllocTest, WarmPagedAttentionCallAllocatesNothing) {
  // 8 heads x head_dim 32 over four ragged contexts, one of them a partial
  // block.
  constexpr int64_t kHeads = 8;
  const std::vector<int64_t> contexts = {96, 37, 128, 5};
  PagedKvCacheConfig cfg;
  cfg.layers = 1;
  cfg.kv_dim = kHeads * 32;
  cfg.block_tokens = 16;
  cfg.num_blocks = 24;
  PagedKvCache cache(cfg);
  Rng rng(814);
  std::vector<PagedAttentionItem> items;
  for (size_t s = 0; s < contexts.size(); ++s) {
    const int64_t id = static_cast<int64_t>(s);
    ASSERT_TRUE(cache.AddSequence(id, contexts[s]));
    for (int64_t t = 0; t < contexts[s]; ++t) {
      float* k = cache.KRow(0, id, t);
      float* v = cache.VRow(0, id, t);
      for (int64_t r = 0; r < cfg.kv_dim; ++r) {
        k[r] = rng.Uniform(-1.0f, 1.0f);
        v[r] = rng.Uniform(-1.0f, 1.0f);
      }
    }
    items.push_back({id, id, -1});
  }
  const FloatMatrix q = RandomActivations(cfg.kv_dim, 4, rng);
  FloatMatrix out(cfg.kv_dim, 4);
  for (const int threads : kPoolWidths) {
    ThreadPool::SetGlobalThreads(threads);
    PagedAttentionScratch scratch;
    EXPECT_EQ(WarmAllocations([&] {
                PagedAttentionDecodeBatch(cache, 0, kHeads, kHeads, q, items, &out,
                                          &scratch);
              }),
              0)
        << threads << " threads";
  }
}

// One serving step: a decode batch of 8 plus one 32-token prefill chunk on
// the serving benchmark's model shape (hidden 256, ffn 1024, 4 layers, 8
// heads). Each step is replayed from the same cache state: the decode
// sequences' appended slots are truncated away again, outside the count.
TEST_F(KernelAllocTest, WarmMixedStepAllocatesNothing) {
  TinyConfig config;
  config.vocab = 256;
  config.hidden = 256;
  config.ffn = 1024;
  config.layers = 4;
  config.heads = 8;
  config.max_seq = 576;
  TinyTransformer model(config, 815);
  model.PruneWeights(MagnitudePruner(), 0.6);
  PagedKvCache cache(model.KvCacheConfig(/*block_tokens=*/16, /*num_blocks=*/16));
  Rng rng(816);
  auto random_prompt = [&](int64_t len) {
    std::vector<int32_t> p(static_cast<size_t>(len));
    for (int32_t& t : p) {
      t = static_cast<int32_t>(rng.Next() % static_cast<uint64_t>(config.vocab));
    }
    return p;
  };
  constexpr int64_t kDecode = 8;
  constexpr int64_t kPromptLen = 8;
  constexpr int64_t kChunkLen = 32;
  std::vector<int64_t> ids;
  std::vector<int32_t> last;
  for (int64_t id = 0; id < kDecode; ++id) {
    ASSERT_TRUE(cache.AddSequence(id, kPromptLen));
    ids.push_back(id);
    last.push_back(model.Prefill(random_prompt(kPromptLen),
                                 MatmulBackend::kTcaBmeCpu, &cache, id));
  }
  const std::vector<int32_t> chunk_prompt = random_prompt(kChunkLen);
  ASSERT_TRUE(cache.AddSequence(kDecode, kChunkLen));
  const std::vector<PrefillChunk> chunks = {{kDecode, &chunk_prompt, 0, kChunkLen}};
  std::vector<int32_t> next;
  std::vector<int32_t> chunk_next;
  for (const int threads : kPoolWidths) {
    ThreadPool::SetGlobalThreads(threads);
    EXPECT_EQ(WarmAllocations(
                  [&] {
                    model.MixedStep(ids, last, chunks, MatmulBackend::kTcaBmeCpu,
                                    &cache, &next, &chunk_next);
                  },
                  [&] {
                    for (const int64_t id : ids) {
                      cache.TruncateSequence(id, kPromptLen);
                    }
                  }),
              0)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace spinfer

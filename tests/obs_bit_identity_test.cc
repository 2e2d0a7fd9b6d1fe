// Enforces the observability contracts of src/obs/trace.h. Determinism:
// turning tracing on must not change a single bit of any instrumented
// computation — CpuSpmm outputs, RunEncoded outputs, and the simulator's
// PerfCounters are identical with tracing off, on, and on-at-width-2. Cost:
// a kernel call records a fixed number of spans, whatever its size.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/core/cpu_backend.h"
#include "src/core/spinfer_kernel.h"
#include "src/format/tca_bme.h"
#include "src/gpusim/perf_counters.h"
#include "src/llm/kv_allocator.h"
#include "src/llm/paged_attention.h"
#include "src/llm/tiny_transformer.h"
#include "src/numeric/matrix.h"
#include "src/obs/trace.h"
#include "src/pruning/magnitude.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace spinfer {
namespace {

// Bitwise equality, not EXPECT_FLOAT_EQ: the contract is identity, and
// byte-compare also distinguishes -0.0f from 0.0f.
void ExpectBitIdentical(const FloatMatrix& a, const FloatMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0);
}

class BitIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Global().Reset();
    ThreadPool::SetGlobalThreads(1);
  }
  void TearDown() override {
    obs::Tracer::Global().Stop();
    obs::Tracer::Global().Reset();
    ThreadPool::SetGlobalThreads(1);
  }
};

TEST_F(BitIdentityTest, CpuSpmmOutputsUnchangedByTracing) {
  Rng rng(77);
  const HalfMatrix w = HalfMatrix::RandomSparse(256, 256, 0.6, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  const HalfMatrix x8 = HalfMatrix::Random(256, 8, rng);
  const HalfMatrix x64 = HalfMatrix::Random(256, 64, rng);

  SpmmWorkspace ws;
  FloatMatrix off8, off64;
  CpuSpmmInto(enc, x8, &ws, &off8);
  CpuSpmmInto(enc, x64, &ws, &off64);

  obs::Tracer::Global().Start();
  FloatMatrix on8, on64;
  CpuSpmmInto(enc, x8, &ws, &on8);
  CpuSpmmInto(enc, x64, &ws, &on64);
  // Width 2 exercises the traced ParallelFor/worker path as well.
  ThreadPool::SetGlobalThreads(2);
  FloatMatrix on64_t2;
  CpuSpmmInto(enc, x64, &ws, &on64_t2);
  obs::Tracer::Global().Stop();

  ExpectBitIdentical(off8, on8);
  ExpectBitIdentical(off64, on64);
  ExpectBitIdentical(off64, on64_t2);
  // The traced runs must actually have recorded spans, or this test proves
  // nothing.
  EXPECT_FALSE(obs::Tracer::Global().Drain().empty());
}

TEST_F(BitIdentityTest, RunEncodedOutputsAndCountersUnchangedByTracing) {
  Rng rng(78);
  const HalfMatrix w = HalfMatrix::RandomSparse(128, 128, 0.6, rng);
  const HalfMatrix x = HalfMatrix::Random(128, 16, rng);
  const SpInferSpmmKernel kernel;
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w, kernel.config().format);

  PerfCounters counters_off;
  const FloatMatrix out_off = kernel.RunEncoded(enc, x, &counters_off);

  obs::Tracer::Global().Start();
  PerfCounters counters_on;
  const FloatMatrix out_on = kernel.RunEncoded(enc, x, &counters_on);
  obs::Tracer::Global().Stop();

  ExpectBitIdentical(out_off, out_on);
  EXPECT_EQ(counters_off, counters_on);
  EXPECT_FALSE(obs::Tracer::Global().Drain().empty());
}

TEST_F(BitIdentityTest, TinyTransformerLogitsUnchangedByTracing) {
  TinyTransformer model(TinyConfig{}, 99);
  model.PruneWeights(MagnitudePruner(), 0.6);
  std::vector<int32_t> tokens;
  for (int i = 0; i < 12; ++i) {
    tokens.push_back(static_cast<int32_t>((i * 11 + 5) % model.config().vocab));
  }
  const FloatMatrix off = model.Forward(tokens, MatmulBackend::kTcaBmeCpu);

  obs::Tracer::Global().Start();
  const FloatMatrix on = model.Forward(tokens, MatmulBackend::kTcaBmeCpu);
  obs::Tracer::Global().Stop();

  ExpectBitIdentical(off, on);
  EXPECT_FALSE(obs::Tracer::Global().Drain().empty());
}

// Events one traced call of `fn` records, from a cleared tracer.
template <typename Fn>
size_t TraceEventsOf(const Fn& fn) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Reset();
  tracer.Start();
  fn();
  tracer.Stop();
  return tracer.Drain().size();
}

// Kernels record spans per call or per stage, never per row task, attention
// task or simulator block, so a call that does more work records no more
// events. At one pool thread every loop runs inline, so the counts hold the
// kernels' own spans only.
TEST_F(BitIdentityTest, KernelCallRecordsEventsIndependentOfSize) {
  Rng rng(79);
  SpmmWorkspace ws;
  FloatMatrix out;
  auto spmm_events = [&](int64_t rows) {
    const TcaBmeMatrix enc =
        TcaBmeMatrix::Encode(HalfMatrix::RandomSparse(rows, 64, 0.6, rng));
    FloatMatrix x(64, 4);
    for (int64_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<float>(rng.Gaussian());
    }
    return TraceEventsOf([&] { CpuSpmmQuantInto(enc, x, &ws, &out); });
  };
  const size_t spmm_small = spmm_events(16);
  EXPECT_GT(spmm_small, 0u);
  EXPECT_EQ(spmm_events(1024), spmm_small);

  constexpr int64_t kHeads = 4;
  PagedKvCacheConfig cfg;
  cfg.layers = 1;
  cfg.kv_dim = kHeads * 16;
  cfg.block_tokens = 16;
  cfg.num_blocks = 32;
  PagedKvCache cache(cfg);
  std::vector<float> kv(static_cast<size_t>(cfg.kv_dim));
  std::vector<PagedAttentionItem> items;
  for (int64_t id = 0; id < 8; ++id) {
    const int64_t ctx = 20 + 7 * id;
    ASSERT_TRUE(cache.AddSequence(id, ctx));
    for (int64_t t = 0; t < ctx; ++t) {
      for (float& e : kv) {
        e = static_cast<float>(rng.Uniform(-1.0, 1.0));
      }
      cache.WriteSlot(0, id, t, kv.data(), kv.data());
    }
    items.push_back({id, id, -1});
  }
  FloatMatrix q(cfg.kv_dim, 8);
  for (int64_t i = 0; i < q.size(); ++i) {
    q.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  FloatMatrix attn(cfg.kv_dim, 8);
  PagedAttentionScratch scratch;
  auto attn_events = [&](size_t n_items) {
    const std::vector<PagedAttentionItem> batch(
        items.begin(), items.begin() + static_cast<std::ptrdiff_t>(n_items));
    return TraceEventsOf([&] {
      PagedAttentionDecodeBatch(cache, 0, kHeads, kHeads, q, batch, &attn,
                                &scratch);
    });
  };
  const size_t attn_one = attn_events(1);
  EXPECT_GT(attn_one, 0u);
  EXPECT_EQ(attn_events(8), attn_one);

  const SpInferSpmmKernel kernel;
  const HalfMatrix x = HalfMatrix::Random(64, 8, rng);
  auto sim_events = [&](int64_t rows) {
    const TcaBmeMatrix enc = TcaBmeMatrix::Encode(
        HalfMatrix::RandomSparse(rows, 64, 0.6, rng), kernel.config().format);
    return TraceEventsOf([&] { kernel.RunEncoded(enc, x, nullptr); });
  };
  const size_t sim_one_block = sim_events(64);
  EXPECT_GT(sim_one_block, 0u);
  EXPECT_EQ(sim_events(512), sim_one_block);
}

}  // namespace
}  // namespace spinfer

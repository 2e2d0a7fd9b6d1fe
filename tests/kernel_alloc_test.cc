// Warm CPU SpMM/SpMV calls allocate nothing on the heap.
//
// cpu_backend.h promises that once the workspace and output have seen a
// call's shapes, repeat calls are allocation-free. Workspace growth is
// observable (SpmmWorkspace::grow_count), but an allocation the kernel
// drivers make and free inside one call is not. This binary replaces the
// global operator new to count every allocation, so it is a test binary of
// its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/core/cpu_backend.h"
#include "src/core/cpu_spmv.h"
#include "src/format/tca_bme_quant.h"
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
// output, then counted over a second run.
template <typename Call>
int64_t WarmAllocations(const Call& call) {
  call();
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  call();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

FloatMatrix RandomActivations(int64_t rows, int64_t cols, Rng& rng) {
  FloatMatrix x(rows, cols);
  for (int64_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.Gaussian() * 0.5);
  }
  return x;
}

class KernelAllocTest : public ::testing::Test {
 protected:
  // One pool thread: ParallelFor runs inline, so every allocation counted
  // belongs to the call itself.
  void SetUp() override { ThreadPool::SetGlobalThreads(1); }
  void TearDown() override { ThreadPool::SetGlobalThreads(0); }
};

TEST_F(KernelAllocTest, WarmSpmmCallsAllocateNothing) {
  Rng rng(811);
  const HalfMatrix w = HalfMatrix::RandomSparse(192, 160, 0.6, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  // N = 1 runs the block tile in place on the output, 2, 4 and 8 on the
  // workspace's column-major block, 64 RowTerm staging, and 132 both: RowTerm
  // staging for its first 128 columns and the block tile for the last 4.
  for (const int64_t n : {1, 2, 4, 8, 64, 132}) {
    const FloatMatrix x = RandomActivations(160, n, rng);
    SpmmWorkspace ws;
    FloatMatrix out;
    EXPECT_EQ(WarmAllocations([&] { CpuSpmmQuantInto(enc, x, &ws, &out); }), 0)
        << "CpuSpmmQuantInto at n=" << n;
  }
  const FloatMatrix x = RandomActivations(160, 4, rng);
  SpmmWorkspace ws;
  FloatMatrix out(192, 4);
  out.Fill(0.0f);
  EXPECT_EQ(WarmAllocations([&] { CpuSpmmQuantAccumulateInto(enc, x, &ws, &out); }),
            0)
      << "CpuSpmmQuantAccumulateInto at n=4";
}

TEST_F(KernelAllocTest, WarmFloatSpmvCallAllocatesNothing) {
  Rng rng(813);
  const HalfMatrix w = HalfMatrix::RandomSparse(192, 160, 0.6, rng);
  const TcaBmeMatrix enc = TcaBmeMatrix::Encode(w);
  const FloatMatrix x = RandomActivations(160, 1, rng);
  SpmmWorkspace ws;
  FloatMatrix out;
  EXPECT_EQ(WarmAllocations([&] { CpuSpmvQuantInto(enc, x, &ws, &out); }), 0);
}

TEST_F(KernelAllocTest, WarmInt8SpmvCallAllocatesNothing) {
  Rng rng(812);
  const HalfMatrix w = HalfMatrix::RandomSparse(192, 160, 0.6, rng);
  const TcaBmeQuantMatrix enc = TcaBmeQuantMatrix::Encode(w);
  const FloatMatrix x = RandomActivations(160, 1, rng);
  SpmmWorkspace ws;
  FloatMatrix out;
  EXPECT_EQ(WarmAllocations([&] { CpuSpmvInt8Into(enc, x, &ws, &out); }), 0);
}

}  // namespace
}  // namespace spinfer

#include "src/util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace spinfer {

// One published loop; lives on the stack of the ParallelFor that runs it.
struct ThreadPool::Loop {
  std::atomic<int64_t> cursor;
  int64_t end;
  int64_t grain;
  FunctionRef<void(int64_t)> body;

  // Claims and runs chunks until the cursor passes `end`; returns whether
  // any chunk ran.
  bool RunChunks() {
    bool ran = false;
    int64_t first;
    while ((first = cursor.fetch_add(grain, std::memory_order_relaxed)) < end) {
      const int64_t last = std::min(end, first + grain);
      for (int64_t i = first; i < last; ++i) {
        body(i);
      }
      ran = true;
    }
    return ran;
  }
};

namespace {

// How long an idle worker polls for the next loop before it parks. A model
// step's loops come microseconds apart, so a hot team skips the futex wake;
// the bound keeps idle workers from taking cores from other processes.
constexpr std::chrono::microseconds kSpinWindow{50};

// The pause of a spin-wait: it frees the core's pipeline for its sibling
// hyperthread while the waiter polls.
void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

int ResolveThreads(int num_threads) {
  SPINFER_CHECK(num_threads >= 0);
  if (num_threads > 0) {
    return num_threads;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(ResolveThreads(num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_.store(true, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  while (true) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
    uint64_t gen;
    for (int spins = 0; (gen = generation_.load(std::memory_order_acquire)) == seen;
         ++spins) {
      CpuRelax();
      if (spins % 64 == 63 && std::chrono::steady_clock::now() > deadline) {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_cv_.wait(lock, [&] {
          return generation_.load(std::memory_order_relaxed) != seen;
        });
      }
    }
    seen = gen;
    if (stopping_.load(std::memory_order_relaxed)) {
      return;
    }
    // Count in before reading loop_: ParallelFor retires its loop by nulling
    // loop_ and then waiting for active_ to reach 0, so a worker either sees
    // null or is waited for (both sides are seq_cst).
    active_.fetch_add(1);
    Loop* loop = loop_.load();
    if (loop != nullptr && loop->RunChunks()) {
      tasks_popped_.fetch_add(1, std::memory_order_relaxed);
    }
    active_.fetch_sub(1, std::memory_order_release);
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end,
                             FunctionRef<void(int64_t)> fn, int64_t grain) {
  const int64_t total = end - begin;
  if (total <= 0) {
    return;
  }
  if (grain <= 0) {
    // ~8 chunks per execution-width thread: fine enough to balance ragged
    // per-index cost, coarse enough that the shared cursor stays cold.
    grain = std::max<int64_t>(1, total / (static_cast<int64_t>(num_threads_) * 8));
  }
  // Inline path: the same indices in the same order as the one chunk the
  // caller would have claimed, so results are unchanged.
  parallel_fors_.fetch_add(1, std::memory_order_relaxed);
  if (num_threads_ == 1 || total <= grain ||
      busy_.exchange(true, std::memory_order_acquire)) {
    parallel_fors_inline_.fetch_add(1, std::memory_order_relaxed);
    for (int64_t i = begin; i < end; ++i) {
      fn(i);
    }
    return;
  }
  SPINFER_TRACE_SCOPE_ARG("threadpool.parallel_for", "total", total);
  tasks_submitted_.fetch_add(static_cast<uint64_t>(num_threads_ - 1),
                             std::memory_order_relaxed);

  Loop loop{{begin}, end, grain, fn};
  loop_.store(&loop);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    generation_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();
  loop.RunChunks();
  loop_.store(nullptr);
  // Wait out the workers still inside the loop. A worker finishing a chunk
  // needs at most one chunk's time; past a short burst of pauses, yield so
  // a descheduled worker on an oversubscribed host gets the core back.
  for (int spins = 0; active_.load() != 0; ++spins) {
    if (spins < 256) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
  busy_.store(false, std::memory_order_release);
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks_submitted = tasks_submitted_.load(std::memory_order_relaxed);
  s.tasks_popped = tasks_popped_.load(std::memory_order_relaxed);
  s.parallel_fors = parallel_fors_.load(std::memory_order_relaxed);
  s.parallel_fors_inline = parallel_fors_inline_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::PublishMetrics(obs::MetricsRegistry* registry) const {
  obs::MetricsRegistry& reg =
      registry != nullptr ? *registry : obs::MetricsRegistry::Global();
  const Stats s = stats();
  reg.GetGauge("threadpool.num_threads")->Set(num_threads_);
  reg.GetGauge("threadpool.tasks_submitted")
      ->Set(static_cast<double>(s.tasks_submitted));
  reg.GetGauge("threadpool.tasks_inline")
      ->Set(static_cast<double>(s.tasks_inline));
  reg.GetGauge("threadpool.tasks_popped")
      ->Set(static_cast<double>(s.tasks_popped));
  reg.GetGauge("threadpool.tasks_stolen")
      ->Set(static_cast<double>(s.tasks_stolen));
  reg.GetGauge("threadpool.parallel_fors")
      ->Set(static_cast<double>(s.parallel_fors));
  reg.GetGauge("threadpool.parallel_fors_inline")
      ->Set(static_cast<double>(s.parallel_fors_inline));
}

namespace {

std::mutex g_global_pool_mutex;
std::unique_ptr<ThreadPool> g_global_pool;

}  // namespace

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_pool_mutex);
  if (g_global_pool == nullptr) {
    g_global_pool = std::make_unique<ThreadPool>(0);
  }
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(g_global_pool_mutex);
  g_global_pool = std::make_unique<ThreadPool>(num_threads);
}

void ParallelFor(int64_t begin, int64_t end, FunctionRef<void(int64_t)> fn,
                 int64_t grain) {
  ThreadPool::Global().ParallelFor(begin, end, fn, grain);
}

}  // namespace spinfer

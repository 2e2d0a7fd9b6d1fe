// The benchmark's own tests: the timing decorator is transparent, its step
// classes partition the iterations, the percentile helper keeps ten samples
// beyond every quoted rank, rounds combine at each step's fastest repeat,
// and the host-speed scale is neutral at the reference time.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fastest_repeat.h"
#include "host_speed.h"
#include "kernel_probe.h"
#include "percentile.h"
#include "src/llm/serving_engine.h"
#include "src/pruning/magnitude.h"
#include "src/util/thread_pool.h"
#include "timing_substrate.h"
#include "workloads.h"

namespace servebench {
namespace {

// A small model and a rag_prefix-like mix: shared prefixes, chunking and
// the prefix cache exercise every wrapped call.
spinfer::TinyConfig SmallShape() {
  spinfer::TinyConfig c;
  c.vocab = 64;
  c.hidden = 64;
  c.layers = 2;
  c.heads = 4;
  c.ffn = 128;
  c.max_seq = 160;
  return c;
}

WorkloadSpec SmallWorkload() {
  WorkloadSpec w = *FindWorkload("rag_prefix");
  w.requests = 12;
  w.shared_prompts = 2;
  w.shared_len = 48;
  w.prompt_min = 1;
  w.prompt_max = 20;
  w.out_min = 1;
  w.out_max = 12;
  w.max_batch = 4;
  w.chunk_tokens = 24;
  return w;
}

struct Served {
  std::string report;
  std::vector<std::vector<int32_t>> streams;
  RoundTiming timing;
  int64_t tokens = 0;
  int64_t completed = 0;
};

enum class Mode { kPlain, kTimed, kTraced };

Served Serve(const spinfer::TinyTransformer& model, const WorkloadSpec& w,
             Mode mode) {
  const std::vector<Request> reqs = MakeRequests(w, 7, model.config().vocab);
  spinfer::SingleInstanceSubstrate inner(&model, kKvBlockTokens,
                                         KvBlocksFor(w));
  KernelProbe probe(model);
  TimingSubstrate timed(&inner, mode == Mode::kTraced ? &probe : nullptr);
  spinfer::ServingSubstrate* sub =
      mode == Mode::kPlain ? static_cast<spinfer::ServingSubstrate*>(&inner)
                           : &timed;
  spinfer::ServingEngine engine(sub, EngineConfigFor(w));
  for (const Request& r : reqs) {
    engine.Submit(r.prompt, r.max_new);
  }
  timed.StartRun();
  const spinfer::ExecServingReport rep = engine.Run();
  Served s;
  s.report = rep.ToString();
  for (const spinfer::RequestRecord& r : engine.results()) {
    s.streams.push_back(r.generated);
  }
  s.timing = timed.timing();
  s.tokens = rep.tokens_generated;
  s.completed = rep.completed;
  return s;
}

class ServebenchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    model_ = std::make_unique<spinfer::TinyTransformer>(SmallShape(), 5);
    model_->PruneWeights(spinfer::MagnitudePruner(), kSparsity);
  }
  void TearDown() override { spinfer::ThreadPool::SetGlobalThreads(0); }
  std::unique_ptr<spinfer::TinyTransformer> model_;
};

TEST_F(ServebenchTest, DecoratorIsTransparent) {
  const WorkloadSpec w = SmallWorkload();
  const Served plain = Serve(*model_, w, Mode::kPlain);
  const Served timed = Serve(*model_, w, Mode::kTimed);
  const Served traced = Serve(*model_, w, Mode::kTraced);
  EXPECT_EQ(plain.completed, w.requests);
  EXPECT_GT(plain.report.find("prefix_hit_blocks="), 0u);
  EXPECT_EQ(timed.report, plain.report);
  EXPECT_EQ(traced.report, plain.report);
  EXPECT_EQ(timed.streams, plain.streams);
  EXPECT_EQ(traced.streams, plain.streams);
}

TEST_F(ServebenchTest, ReportAndStreamsIdenticalAtOneAndTwoPoolThreads) {
  const WorkloadSpec w = SmallWorkload();
  spinfer::ThreadPool::SetGlobalThreads(1);
  const Served one = Serve(*model_, w, Mode::kTimed);
  spinfer::ThreadPool::SetGlobalThreads(2);
  const Served two = Serve(*model_, w, Mode::kTimed);
  EXPECT_EQ(one.report, two.report);
  EXPECT_EQ(one.streams, two.streams);
}

TEST_F(ServebenchTest, StepClassesSumToIterationsAndSamplesToTokens) {
  const WorkloadSpec w = SmallWorkload();
  const Served s = Serve(*model_, w, Mode::kTraced);
  int64_t by_class[kNumNClasses] = {};
  for (const StepSample& step : s.timing.steps) {
    ++by_class[ClassOf(step.cols())];
  }
  int64_t sum = 0;
  for (const int64_t c : by_class) {
    sum += c;
  }
  const std::string iters =
      "iters=" + std::to_string(s.timing.steps.size()) + " ";
  EXPECT_NE(s.report.find(iters), std::string::npos) << s.report;
  EXPECT_EQ(sum, static_cast<int64_t>(s.timing.steps.size()));
  EXPECT_GT(by_class[kNWide], 0);
  // Each request's first token is a TTFT sample; every later one a TBT gap.
  EXPECT_EQ(static_cast<int64_t>(s.timing.ttft_admitted_ms.size()),
            s.completed);
  EXPECT_EQ(static_cast<int64_t>(s.timing.tbt_ms.size()),
            s.tokens - s.completed);
  EXPECT_EQ(static_cast<int64_t>(s.timing.queue_wait_ms.size()), s.completed);
  EXPECT_GT(s.timing.match.calls, 0);
  EXPECT_GT(s.timing.index.calls, 0);
  EXPECT_EQ(s.timing.release.calls, s.completed);
  EXPECT_GT(s.timing.probe_ms, 0.0);
  EXPECT_GE(s.timing.wrapped_ms, s.timing.step_ms + s.timing.probe_ms);
}

TEST(NClassTest, Boundaries) {
  EXPECT_EQ(ClassOf(1), kN1);
  EXPECT_EQ(ClassOf(2), kN2to7);
  EXPECT_EQ(ClassOf(7), kN2to7);
  EXPECT_EQ(ClassOf(8), kN8);
  EXPECT_EQ(ClassOf(9), kNWide);
}

TEST(PercentileTest, NamedRankNeedsTenSamplesBeyond) {
  EXPECT_EQ(MinSamplesFor(99), 1000);
  EXPECT_EQ(MinSamplesFor(90), 100);
  EXPECT_EQ(MinSamplesFor(50), 20);
  for (const int pct : {50, 90, 99}) {
    const int64_t n = MinSamplesFor(pct);
    EXPECT_FALSE(Percentile(std::vector<double>(n - 1, 1.0), pct).has_value());
    EXPECT_TRUE(Percentile(std::vector<double>(n, 1.0), pct).has_value());
    EXPECT_GE(SamplesBeyond(n, pct), kMinSamplesBeyond);
  }
}

TEST(PercentileTest, InterpolatesLikeTheLibrary) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);
  }
  EXPECT_DOUBLE_EQ(*Percentile(v, 50), 50.5);
  EXPECT_DOUBLE_EQ(*Percentile(v, 90), 90.1);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

TEST(PercentileTest, TailFallsBackToHighestSupportedRank) {
  const std::vector<double> v(500, 2.0);
  const TailValue t = TailPercentile(v, 99);
  EXPECT_EQ(t.pct, 98);
  EXPECT_EQ(t.n, 500);
  EXPECT_GE(SamplesBeyond(t.n, t.pct), kMinSamplesBeyond);
  EXPECT_LT(SamplesBeyond(t.n, t.pct + 1), kMinSamplesBeyond);
  EXPECT_EQ(TailPercentile(std::vector<double>(1000, 1.0), 99).pct, 99);
  EXPECT_EQ(TailPercentile(std::vector<double>(3, 1.0), 90).pct, 50);
}

// A round of three steps whose intervals are `a`, `b` and `c` ms: one
// request is admitted at the start and has its first token with step 0, its
// next with step 2.
RoundTiming ThreeSteps(double a, double b, double c) {
  RoundTiming t;
  t.steps.resize(3);
  t.step_end_ms = {a, a + b, a + b + c};
  t.ttft_admitted_ms = {a};
  t.ttft_spans = {{0, 0}};
  t.tbt_ms = {b + c};
  t.tbt_spans = {{0, 2}};
  return t;
}

TEST(FastestRepeatTest, TakesEachStepAtItsFastestRound) {
  const RoundTiming slow_start = ThreeSteps(5.0, 1.0, 1.0);
  const RoundTiming slow_end = ThreeSteps(1.0, 1.0, 5.0);
  const std::optional<FastestRepeat> f =
      CombineFastest({&slow_start, &slow_end});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->interval_ms, (std::vector<double>{1.0, 1.0, 1.0}));
  EXPECT_DOUBLE_EQ(f->total_ms, 3.0);
  EXPECT_EQ(f->tbt_ms, (std::vector<double>{2.0}));
  // Each round's TTFT is rescaled to the fastest repeat of step 0.
  EXPECT_EQ(f->ttft_ms, (std::vector<double>{1.0, 1.0}));
}

TEST(FastestRepeatTest, RefusesRoundsWithDifferentSchedules) {
  const RoundTiming a = ThreeSteps(1.0, 1.0, 1.0);
  RoundTiming b = a;
  b.tbt_spans = {{1, 2}};
  EXPECT_FALSE(CombineFastest({&a, &b}).has_value());
  EXPECT_FALSE(CombineFastest({}).has_value());
}

TEST_F(ServebenchTest, RoundsShareOneSchedule) {
  const Served a = Serve(*model_, SmallWorkload(), Mode::kTimed);
  const Served b = Serve(*model_, SmallWorkload(), Mode::kTimed);
  ASSERT_TRUE(SameSchedule(a.timing, b.timing));
  ASSERT_EQ(a.timing.step_end_ms.size(), a.timing.steps.size());
  const std::optional<FastestRepeat> f =
      CombineFastest({&a.timing, &b.timing});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->tbt_ms.size(), a.timing.tbt_ms.size());
  EXPECT_EQ(f->ttft_ms.size(), 2 * a.timing.ttft_admitted_ms.size());
  EXPECT_LE(f->total_ms, a.timing.step_end_ms.back());
}

TEST(HostSpeedTest, ScaleIsNeutralAtTheReferenceTime) {
  HostSpeed speed;
  EXPECT_GT(speed.MeasureMs(), 0.0);
  EXPECT_DOUBLE_EQ(HostSpeed::ScaleFor(HostSpeed::kReferenceMs), 1.0);
  // On a host half as fast the loop takes twice as long, and scaled times
  // are halved back.
  EXPECT_DOUBLE_EQ(HostSpeed::ScaleFor(2.0 * HostSpeed::kReferenceMs), 0.5);
}

TEST(WorkloadTest, RequestsFollowTheSeed) {
  for (const WorkloadSpec& w : Workloads()) {
    const std::vector<Request> a = MakeRequests(w, 11, 256);
    const std::vector<Request> b = MakeRequests(w, 11, 256);
    const std::vector<Request> c = MakeRequests(w, 12, 256);
    ASSERT_EQ(static_cast<int64_t>(a.size()), w.requests);
    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].prompt, b[i].prompt);
      EXPECT_EQ(a[i].max_new, b[i].max_new);
      differs = differs || a[i].prompt != c[i].prompt;
      const int64_t unique =
          static_cast<int64_t>(a[i].prompt.size()) - w.shared_len;
      EXPECT_GE(unique, w.prompt_min);
      EXPECT_LE(unique, w.prompt_max);
      EXPECT_GE(a[i].max_new, w.out_min);
      EXPECT_LE(a[i].max_new, w.out_max);
    }
    EXPECT_TRUE(differs) << w.name;
  }
}

}  // namespace
}  // namespace servebench

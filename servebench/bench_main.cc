// Serving benchmark.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Builds model M (timed as set-up), generates the workload's requests from
// the seed, and serves them through ServingEngine over a TimingSubstrate,
// round after round, until --seconds have passed and every quoted
// percentile has ten samples beyond it. The end-to-end timings combine the
// rounds step by step, at each step's fastest repeat (fastest_repeat.h),
// and are scaled by the host's speed, from a fixed reference loop timed
// before, between and after set-ups and rounds (host_speed.h); the plain
// figures are printed beside them. The first round is the reference:
// every later round must reproduce its token streams and its virtual-clock
// report byte for byte, and one fixed request must match full-recompute
// TinyTransformer::Generate.
//
// --trace 0 prints the end-to-end metrics; --trace 1 spends half the time
// on untraced rounds and half on rounds with a KernelProbe attached, and
// prints the per-layer metrics. Human-readable lines go first; the last
// stdout line is one JSON object {correct, attempted, failed, metrics}. Any
// wrong output exits 1 after printing it.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "fastest_repeat.h"
#include "host_speed.h"
#include "kernel_probe.h"
#include "percentile.h"
#include "src/core/cpu_backend.h"
#include "src/llm/disagg_cluster.h"
#include "src/llm/paged_attention.h"
#include "src/llm/serving_engine.h"
#include "src/pruning/magnitude.h"
#include "src/util/cli.h"
#include "src/util/thread_pool.h"
#include "timing_substrate.h"
#include "workloads.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;
using spinfer::ExecServingReport;
using spinfer::TinyTransformer;

// One pool thread: on a shared 4-vCPU host, back-to-back runs with a 2-thread
// pool differed by more than a third in tokens/s (every ParallelFor waits on
// the slower of two threads), while 1-thread runs stayed within 5%.
constexpr int kPoolThreads = 1;
constexpr int kSetups = 3;
// The measuring loop gives up (exit 1) rather than run past this.
constexpr double kMaxMeasureSeconds = 150.0;
// Leading tokens of the oracle request compared with Generate: more than one
// 16-token KV block, so the checked decode crosses a block boundary.
constexpr int64_t kOracleTokens = 17;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Machine fingerprint ----------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

void PrintFingerprint() {
  std::printf(
      "fingerprint {\"nproc\": %ld, \"pool_threads\": %d, \"spmm_simd\": "
      "\"%s\", \"attention_simd\": \"%s\", \"cpu\": \"%s\", \"compiler\": "
      "\"%s\", \"build_type\": \"%s\"}\n",
      sysconf(_SC_NPROCESSORS_ONLN), spinfer::ThreadPool::Global().num_threads(),
      spinfer::CpuSpmmVariantName(spinfer::ActiveCpuSpmmVariant()),
      spinfer::CpuSpmmVariantName(spinfer::ActivePagedAttentionVariant()),
      CpuModel().c_str(), __VERSION__, SERVEBENCH_BUILD_TYPE);
}

// --- Set-up -------------------------------------------------------------------

struct Setup {
  std::unique_ptr<TinyTransformer> model;
  double total_s = 0.0;
  double prune_s = 0.0;
};

// Model M built, pruned and encoded, plus one engine with its KV pool.
Setup BuildSetup(const WorkloadSpec& w) {
  Setup s;
  const Clock::time_point t0 = Clock::now();
  s.model = std::make_unique<TinyTransformer>(ModelShape(), kModelSeed);
  const Clock::time_point tp = Clock::now();
  s.model->PruneWeights(spinfer::MagnitudePruner(), kSparsity);
  s.prune_s = SecondsSince(tp);
  {
    spinfer::ServingEngine engine(s.model.get(), EngineConfigFor(w));
  }
  s.total_s = SecondsSince(t0);
  return s;
}

// --- Rounds -------------------------------------------------------------------

struct Round {
  ExecServingReport report;
  std::vector<std::vector<int32_t>> streams;
  std::vector<double> vttft_ms;  // virtual TTFT of each completed request
  int64_t rejected = 0;
  double run_ms = 0.0;
  RoundTiming timing;
  std::vector<int64_t> steps_by_class = std::vector<int64_t>(kNumNClasses);
};

Round RunRound(const TinyTransformer& model, const WorkloadSpec& w,
               const std::vector<Request>& reqs, KernelProbe* probe) {
  spinfer::SingleInstanceSubstrate inner(&model, kKvBlockTokens,
                                         KvBlocksFor(w));
  TimingSubstrate timed(&inner, probe);
  spinfer::ServingEngine engine(&timed, EngineConfigFor(w));
  for (const Request& r : reqs) {
    engine.Submit(r.prompt, r.max_new, /*arrival_s=*/0.0);
  }
  Round round;
  timed.StartRun();
  const Clock::time_point t0 = Clock::now();
  round.report = engine.Run();
  round.run_ms = SecondsSince(t0) * 1e3;
  round.timing = timed.timing();
  for (const spinfer::RequestRecord& rec : engine.results()) {
    round.streams.push_back(rec.generated);
    if (rec.reason == spinfer::FinishReason::kRejected) {
      ++round.rejected;
    } else {
      round.vttft_ms.push_back(rec.ttft_ms);
    }
  }
  for (const StepSample& s : round.timing.steps) {
    ++round.steps_by_class[ClassOf(s.cols())];
  }
  return round;
}

// Requests of `round` that failed: rejected, or a stream that differs from
// the reference round's. A report that differs from the reference counts
// as one more failure.
int64_t CountFailures(const Round& round, const Round& ref) {
  int64_t failed = round.rejected;
  for (size_t i = 0; i < round.streams.size(); ++i) {
    if (round.streams[i] != ref.streams[i]) {
      ++failed;
    }
  }
  if (round.report.ToString() != ref.report.ToString()) {
    ++failed;
  }
  return failed;
}

// Rounds of one phase, pooled.
struct Phase {
  std::vector<Round> rounds;
  int64_t attempted = 0;
  int64_t failed = 0;

  template <typename F>
  std::vector<double> Pool(F field) const {
    std::vector<double> v;
    for (const Round& r : rounds) {
      const std::vector<double>& x = field(r.timing);
      v.insert(v.end(), x.begin(), x.end());
    }
    return v;
  }
  std::vector<double> RunMs(bool minus_probe) const {
    std::vector<double> v;
    for (const Round& r : rounds) {
      v.push_back(r.run_ms - (minus_probe ? r.timing.probe_ms : 0.0));
    }
    return v;
  }
};

std::vector<double> TbtOf(const RoundTiming& t) { return t.tbt_ms; }
std::vector<double> TtftOf(const RoundTiming& t) { return t.ttft_admitted_ms; }

// Runs rounds until `seconds` have passed and `enough` holds (at least one
// round either way), checking each against `ref`, or against the phase's own
// first round when `ref` is null, and timing the reference loop into
// `loop_ms` after each. Returns false if kMaxMeasureSeconds ran out first.
template <typename Enough>
bool RunPhase(const TinyTransformer& model, const WorkloadSpec& w,
              const std::vector<Request>& reqs, const Round* ref,
              KernelProbe* probe, double seconds, Enough enough,
              HostSpeed* speed, std::vector<double>* loop_ms, Phase* phase) {
  const Clock::time_point t0 = Clock::now();
  do {
    if (SecondsSince(t0) > kMaxMeasureSeconds) {
      return false;
    }
    phase->rounds.push_back(RunRound(model, w, reqs, probe));
    loop_ms->push_back(speed->MeasureMs());
    const Round& r = phase->rounds.back();
    std::printf("round %zu: run %.1f ms, %.1f tokens/s%s\n", phase->rounds.size(),
                r.run_ms,
                static_cast<double>(r.report.tokens_generated) / (r.run_ms / 1e3),
                probe != nullptr ? " (traced)" : "");
    phase->attempted += static_cast<int64_t>(reqs.size());
    phase->failed += CountFailures(r, ref ? *ref : phase->rounds.front());
  } while (SecondsSince(t0) < seconds || !enough(*phase));
  return true;
}

// --- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    // Non-finite values are not JSON; they only arise from a bug upstream.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : -1.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// A layer metric's tail percentile, with a note when the sample supports
// only a lower rank (see TailPercentile).
Metric Tail(const std::string& name, const std::vector<double>& v, int pct,
            const char* unit) {
  const TailValue t = TailPercentile(v, pct);
  if (t.pct != pct) {
    std::printf("note: %s quoted at p%d of %lld samples\n", name.c_str(), t.pct,
                static_cast<long long>(t.n));
  }
  return {name, t.value, unit};
}

// The end-to-end metrics of `p` at each step's fastest repeat, times
// `scale` (HostSpeed::ScaleFor), or nullopt when its rounds ran different
// schedules. Prints the plain wall figures (median tokens/s over rounds,
// percentiles of every round's samples) and the unscaled ones first.
std::optional<std::vector<Metric>> EndToEndMetrics(const Phase& p,
                                                   double setup_s,
                                                   double scale) {
  std::vector<const RoundTiming*> timings;
  std::vector<double> tps;
  for (const Round& r : p.rounds) {
    timings.push_back(&r.timing);
    tps.push_back(static_cast<double>(r.report.tokens_generated) /
                  (r.run_ms / 1e3));
  }
  const std::optional<FastestRepeat> fastest = CombineFastest(timings);
  if (!fastest) {
    return std::nullopt;
  }
  const std::vector<double> wall_tbt = p.Pool(TbtOf);
  const std::vector<double> wall_ttft = p.Pool(TtftOf);
  std::printf("wall, every round: %.1f tokens/s, tbt p50 %.3f p99 %.3f ms, "
              "ttft_admitted p50 %.3f p90 %.3f ms\n",
              Median(tps), *Percentile(wall_tbt, 50), *Percentile(wall_tbt, 99),
              *Percentile(wall_ttft, 50), *Percentile(wall_ttft, 90));
  const std::vector<double>& ttft = fastest->ttft_ms;
  std::printf("fastest repeat of %zu rounds: %zu steps, %zu TBT gaps, %zu "
              "TTFTs\n",
              p.rounds.size(), fastest->interval_ms.size(),
              fastest->tbt_ms.size(), ttft.size());
  const double tokens =
      static_cast<double>(p.rounds.front().report.tokens_generated);
  const double tokens_per_s = tokens / (fastest->total_ms / 1e3);
  const double tbt50 = *Percentile(fastest->tbt_ms, 50);
  const double tbt99 = *Percentile(fastest->tbt_ms, 99);
  const double ttft50 = *Percentile(ttft, 50);
  const double ttft90 = *Percentile(ttft, 90);
  std::printf("fastest repeat, unscaled: %.1f tokens/s, tbt p50 %.3f p99 "
              "%.3f ms, ttft_admitted p50 %.3f p90 %.3f ms, setup %.4f s\n",
              tokens_per_s, tbt50, tbt99, ttft50, ttft90, setup_s);
  return std::vector<Metric>{
      {"tokens_per_s", tokens_per_s / scale, "1/s"},
      {"tbt_p50_ms", tbt50 * scale, "ms"},
      {"tbt_p99_ms", tbt99 * scale, "ms"},
      {"ttft_admitted_p50_ms", ttft50 * scale, "ms"},
      {"ttft_admitted_p90_ms", ttft90 * scale, "ms"},
      {"setup_s", setup_s * scale, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// Virtual-clock report of one round: deterministic for a seed.
std::vector<Metric> VirtualMetrics(const Round& r) {
  return {
      Tail("serving_engine.vttft_p50_ms", r.vttft_ms, 50, "ms"),
      Tail("serving_engine.vttft_p90_ms", r.vttft_ms, 90, "ms"),
      {"serving_engine.vtokens_per_s", r.report.throughput_tps, "1/s"},
      {"serving_engine.vpeak_iter_ms", r.report.peak_iter_ms, "ms"},
  };
}

struct DisaggResult {
  spinfer::DisaggClusterReport report;
  double tokens_per_s = 0.0;
  int64_t failed = 0;
};

DisaggResult RunDisagg(const TinyTransformer& model, const WorkloadSpec& w,
                       const std::vector<Request>& reqs, const Round& ref) {
  spinfer::DisaggCluster cluster(&model, DisaggConfigFor(w));
  for (const Request& r : reqs) {
    cluster.Submit(r.prompt, r.max_new, /*arrival_s=*/0.0);
  }
  DisaggResult d;
  const Clock::time_point t0 = Clock::now();
  d.report = cluster.Run();
  const double run_s = SecondsSince(t0);
  int64_t tokens = 0;
  for (size_t i = 0; i < cluster.results().size(); ++i) {
    const std::vector<int32_t>& g = cluster.results()[i].generated;
    tokens += static_cast<int64_t>(g.size());
    if (g != ref.streams[i]) {
      ++d.failed;
    }
  }
  d.tokens_per_s = static_cast<double>(tokens) / run_s;
  return d;
}

std::vector<Metric> PerLayerMetrics(const WorkloadSpec& w, const Phase& untraced,
                                    const Phase& traced,
                                    const KernelProbe& probe, double prune_s,
                                    const DisaggResult* disagg) {
  const Round& last = traced.rounds.back();
  const double rounds = static_cast<double>(traced.rounds.size());
  double run_ms = 0.0, wrapped_ms = 0.0, probe_ms = 0.0, step_ms = 0.0;
  int64_t cols = 0, dec_cols = 0, chunk_tokens = 0, steps = 0;
  CallStats match, admit, release, index;
  spinfer::ThreadPool::Stats pool;
  std::vector<double> decode_steps, mixed_steps;
  for (const Round& r : traced.rounds) {
    const RoundTiming& t = r.timing;
    run_ms += r.run_ms;
    wrapped_ms += t.wrapped_ms;
    probe_ms += t.probe_ms;
    step_ms += t.step_ms;
    for (const StepSample& s : t.steps) {
      cols += s.cols();
      dec_cols += s.decode_cols;
      chunk_tokens += s.chunk_tokens;
      (s.chunk_tokens > 0 ? mixed_steps : decode_steps).push_back(s.wall_ms);
    }
    steps += static_cast<int64_t>(t.steps.size());
    match.Add(t.match);
    admit.Add(t.admit);
    release.Add(t.release);
    index.Add(t.index);
    pool.parallel_fors += t.pool.parallel_fors;
    pool.parallel_fors_inline += t.pool.parallel_fors_inline;
    pool.tasks_popped += t.pool.tasks_popped;
    pool.tasks_stolen += t.pool.tasks_stolen;
  }
  // Run wall with the probe replays taken out: what an untraced Run costs.
  const double served_ms = run_ms - probe_ms;
  const double self_ms = run_ms - wrapped_ms;
  const std::vector<double> queue_wait = traced.Pool(
      [](const RoundTiming& t) { return t.queue_wait_ms; });
  const ExecServingReport& rep = last.report;

  std::vector<Metric> m = {
      {"serving_engine.run_ms", run_ms / rounds, "ms"},
      {"serving_engine.wrapped_ms", wrapped_ms / rounds, "ms"},
      {"serving_engine.self_ms", self_ms / rounds, "ms"},
      {"serving_engine.self_share", Ratio(self_ms, served_ms), "ratio"},
      {"serving_engine.iterations", static_cast<double>(rep.iterations),
       "count"},
      Tail("serving_engine.queue_wait_ms_p50", queue_wait, 50, "ms"),
      Tail("serving_engine.queue_wait_ms_p90", queue_wait, 90, "ms"),
      {"serving_engine.decode_cols_mean",
       Ratio(static_cast<double>(dec_cols), static_cast<double>(steps)),
       "cols"},
      {"serving_engine.chunk_tokens_mean",
       Ratio(static_cast<double>(chunk_tokens), static_cast<double>(steps)),
       "tokens"},
  };
  for (const Metric& v : VirtualMetrics(last)) {
    m.push_back(v);
  }
  const double matmul_ms = probe.matmul_ms();
  const double attention_ms = probe.attention_ms();
  const std::vector<Metric> layer = {
      Tail("tiny_transformer.step_decode_ms_p50", decode_steps, 50, "ms"),
      Tail("tiny_transformer.step_decode_ms_p99", decode_steps, 99, "ms"),
      Tail("tiny_transformer.step_mixed_ms_p50", mixed_steps, 50, "ms"),
      Tail("tiny_transformer.step_mixed_ms_p99", mixed_steps, 99, "ms"),
      {"tiny_transformer.busy_share", Ratio(step_ms, served_ms), "ratio"},
      {"tiny_transformer.us_per_column",
       Ratio(step_ms * 1e3, static_cast<double>(cols)), "us"},
      {"tiny_transformer.steps_n1",
       static_cast<double>(last.steps_by_class[kN1]), "count"},
      {"tiny_transformer.steps_n2_7",
       static_cast<double>(last.steps_by_class[kN2to7]), "count"},
      {"tiny_transformer.steps_n8",
       static_cast<double>(last.steps_by_class[kN8]), "count"},
      {"tiny_transformer.steps_wide",
       static_cast<double>(last.steps_by_class[kNWide]), "count"},
      {"tiny_transformer.other_share",
       1.0 - Ratio(matmul_ms + attention_ms, step_ms), "ratio"},
      {"kv_allocator.match_us_mean", match.MeanUs(), "us"},
      {"kv_allocator.admit_us_mean", admit.MeanUs(), "us"},
      {"kv_allocator.release_us_mean", release.MeanUs(), "us"},
      {"kv_allocator.index_us_mean", index.MeanUs(), "us"},
      {"kv_allocator.prefix_hit_ratio",
       Ratio(static_cast<double>(rep.prefix_hit_blocks),
             static_cast<double>(rep.prefix_hit_blocks + rep.prefix_miss_blocks)),
       "ratio"},
      {"kv_allocator.peak_util",
       Ratio(static_cast<double>(rep.peak_kv_blocks),
             static_cast<double>(KvBlocksFor(w))),
       "ratio"},
      {"kv_allocator.cow_copies", static_cast<double>(rep.cow_copies), "count"},
      {"cpu_backend.share", Ratio(matmul_ms, step_ms), "ratio"},
  };
  m.insert(m.end(), layer.begin(), layer.end());
  for (int c = 0; c < kNumNClasses; ++c) {
    const KernelProbe::MatmulTotals& t = probe.matmul(static_cast<NClass>(c));
    m.push_back({std::string("cpu_backend.us_per_column_") +
                     NClassName(static_cast<NClass>(c)),
                 Ratio(t.ms * 1e3, static_cast<double>(t.cols)), "us"});
  }
  const std::vector<Metric> rest = {
      {"cpu_backend.gflops", Ratio(probe.flops(), matmul_ms * 1e6), "GFLOP/s"},
      {"cpu_backend.weight_gbs", Ratio(probe.weight_bytes(), matmul_ms * 1e6),
       "GB/s"},
      {"paged_attention.ms_per_step_p50", Median(probe.attention_step_ms()),
       "ms"},
      {"paged_attention.share", Ratio(attention_ms, step_ms), "ratio"},
      {"paged_attention.context_mean", probe.ContextMean(), "tokens"},
      {"paged_attention.kv_gbs", Ratio(probe.kv_bytes(), attention_ms * 1e6),
       "GB/s"},
      {"thread_pool.parallel_fors_per_step",
       Ratio(static_cast<double>(pool.parallel_fors), static_cast<double>(steps)),
       "count"},
      {"thread_pool.inline_share",
       Ratio(static_cast<double>(pool.parallel_fors_inline),
             static_cast<double>(pool.parallel_fors)),
       "ratio"},
      {"thread_pool.steal_share",
       Ratio(static_cast<double>(pool.tasks_stolen),
             static_cast<double>(pool.tasks_popped + pool.tasks_stolen)),
       "ratio"},
      {"tca_bme.encode_ms", probe.encode_ms(), "ms"},
      {"tca_bme.compression_ratio", probe.compression_ratio(), "ratio"},
      {"pruning.prune_weights_s", prune_s, "s"},
      {"disagg_cluster.tokens_per_s", disagg ? disagg->tokens_per_s : 0.0,
       "1/s"},
      {"disagg_cluster.migrations",
       disagg ? static_cast<double>(disagg->report.migrations) : 0.0, "count"},
      {"disagg_cluster.decode_iterations",
       disagg ? static_cast<double>(disagg->report.decode_iterations) : 0.0,
       "count"},
      {"disagg_cluster.peak_decode_batch",
       disagg ? static_cast<double>(disagg->report.peak_decode_batch) : 0.0,
       "count"},
      {"trace.overhead_share",
       Ratio(Median(traced.RunMs(/*minus_probe=*/true)),
             Median(untraced.RunMs(/*minus_probe=*/false))) -
           1.0,
       "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

int Main(int argc, char** argv) {
  spinfer::CliFlags flags(argc, argv);
  flags.RestrictTo({"workload", "seed", "seconds", "trace"});
  const std::string name = flags.GetString("workload", "");
  const WorkloadSpec* w = FindWorkload(name);
  const int64_t seed = flags.GetInt("seed", 1);
  const int64_t seconds = flags.GetInt("seconds", 10);
  const int64_t trace = flags.GetInt("trace", 0);
  if (w == nullptr || seed < 0 || seconds < 1 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <chat_b8|rag_prefix|narrow_b4> "
                 "--seed <n >= 0> --seconds <s >= 1> --trace <0|1>\n");
    return 2;
  }

#ifdef __GLIBC__
  // A fixed mmap threshold stops glibc from raising it as rounds free their
  // KV pools, so every round maps and unmaps its pool and peak RSS repeats.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  spinfer::ThreadPool::SetGlobalThreads(kPoolThreads);
  PrintFingerprint();

  // --- Set-up, several times; the median is the metric. ----------------------
  // The reference loop runs before and after every set-up and round.
  HostSpeed speed;
  std::vector<double> loop_ms = {speed.MeasureMs()};
  std::vector<double> setup_s, prune_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = BuildSetup(*w);
    loop_ms.push_back(speed.MeasureMs());
    setup_s.push_back(setup.total_s);
    prune_s.push_back(setup.prune_s);
  }
  const TinyTransformer& model = *setup.model;
  const std::vector<Request> reqs =
      MakeRequests(*w, static_cast<uint64_t>(seed), model.config().vocab);

  // The fastest-repeat TBT gaps are one round's; TTFTs pool every round's.
  const auto e2e_enough = [](const Phase& p) {
    return static_cast<int64_t>(p.rounds.front().timing.tbt_ms.size()) >=
               MinSamplesFor(99) &&
           static_cast<int64_t>(p.Pool(TtftOf).size()) >= MinSamplesFor(90);
  };
  const auto any = [](const Phase&) { return true; };

  // The first untraced round is the reference for every other round.
  Phase untraced;
  std::vector<Metric> metrics;
  bool finished = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  if (trace == 0) {
    finished = RunPhase(model, *w, reqs, nullptr, nullptr,
                        static_cast<double>(seconds), e2e_enough, &speed,
                        &loop_ms, &untraced);
    attempted = untraced.attempted;
    failed = untraced.failed;
    if (finished) {
      const double fastest_loop =
          *std::min_element(loop_ms.begin(), loop_ms.end());
      const double scale = HostSpeed::ScaleFor(fastest_loop);
      std::printf("reference loop: fastest %.4f ms of %zu timings, median "
                  "%.4f ms; scale %.4f\n",
                  fastest_loop, loop_ms.size(), Median(loop_ms), scale);
      const std::optional<std::vector<Metric>> m =
          EndToEndMetrics(untraced, Median(setup_s), scale);
      if (m) {
        metrics = *m;
      } else {
        ++failed;  // rounds ran different schedules
      }
    }
  } else {
    const double half = static_cast<double>(seconds) / 2.0;
    finished = RunPhase(model, *w, reqs, nullptr, nullptr, half, any, &speed,
                        &loop_ms, &untraced);
    const Round& ref = untraced.rounds.front();
    KernelProbe probe(model);
    Phase traced;
    finished = finished &&
               RunPhase(model, *w, reqs, &ref, &probe, half, any, &speed,
                        &loop_ms, &traced);
    attempted = untraced.attempted + traced.attempted;
    failed = untraced.failed + traced.failed;
    DisaggResult disagg;
    if (w->disagg) {
      disagg = RunDisagg(model, *w, reqs, ref);
      attempted += static_cast<int64_t>(reqs.size());
      failed += disagg.failed + disagg.report.rejected;
    }
    if (finished) {
      metrics = PerLayerMetrics(*w, untraced, traced, probe, Median(prune_s),
                                w->disagg ? &disagg : nullptr);
    }
  }
  const Round& ref = untraced.rounds.front();

  // The full-recompute oracle on one fixed request: the shortest prompt
  // (then the lowest id), over its first kOracleTokens tokens.
  size_t sample = 0;
  for (size_t i = 1; i < reqs.size(); ++i) {
    if (reqs[i].prompt.size() < reqs[sample].prompt.size()) {
      sample = i;
    }
  }
  const int64_t oracle_tokens = std::min(reqs[sample].max_new, kOracleTokens);
  const std::vector<int32_t> full =
      model.Generate(reqs[sample].prompt, static_cast<int>(oracle_tokens),
                     spinfer::MatmulBackend::kTcaBmeCpu);
  const std::vector<int32_t>& stream = ref.streams[sample];
  if (static_cast<int64_t>(stream.size()) < oracle_tokens ||
      !std::equal(full.begin() + static_cast<std::ptrdiff_t>(
                                     reqs[sample].prompt.size()),
                  full.end(), stream.begin())) {
    ++failed;
  }

  std::printf("workload %s seed %lld: %zu requests/round, %lld tokens/round, "
              "%lld iterations/round\n",
              w->name, static_cast<long long>(seed), reqs.size(),
              static_cast<long long>(ref.report.tokens_generated),
              static_cast<long long>(ref.report.iterations));
  std::printf("virtual report %s\n", ref.report.ToString().c_str());
  for (const Metric& v : VirtualMetrics(ref)) {
    std::printf("  %-40s %14.6g %s\n", v.name.c_str(), v.value, v.unit.c_str());
  }
  if (!finished) {
    std::fprintf(stderr, "servebench: sample minimums not met within %.0f s\n",
                 kMaxMeasureSeconds);
    return 1;
  }
  std::printf("error_rate %.6g (%lld failed of %lld attempted)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<long long>(failed), static_cast<long long>(attempted));
  const bool correct = failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }

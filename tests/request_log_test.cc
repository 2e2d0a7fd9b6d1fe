// Per-request timeline (obs::RequestLog) + its ServingEngine wiring.
//
// Load-bearing claims, each enforced here:
//   * Serialization is byte-exact: ToJsonl and the Chrome async-span export
//     are pure functions of the event list, goldened against literal strings
//     under FakeClock.
//   * The engine's timeline is deterministic: with a FakeClock for wall
//     stamps, the JSONL, the flight-recorder dump, and the report are
//     byte-identical at 1/2/8 threads on a workload exercising chunked
//     prefill, prefix cache, cancellation, and rejection.
//   * Observability is free of observable effect: enabling every obs knob
//     changes neither per-request token streams nor one byte of
//     ExecServingReport::ToString.
//   * Request intervals live on the virtual clock, so they reach Chrome
//     traces only as the timeline's async spans, never as events in the
//     wall-clock tracer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/gpusim/device_spec.h"
#include "src/llm/serving_engine.h"
#include "src/llm/tiny_transformer.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/clock.h"
#include "src/obs/request_log.h"
#include "src/obs/trace.h"
#include "src/pruning/magnitude.h"
#include "src/util/thread_pool.h"

namespace spinfer {
namespace {

using obs::RequestEventKind;

TEST(RequestLogTest, JsonlGoldenIsByteExact) {
  obs::FakeClock wall(1000);
  obs::RequestLog log(&wall);
  log.Append(0, RequestEventKind::kSubmitted, -1, 0.0,
             {{"prompt_tokens", 7}, {"max_new", 3}});
  wall.AdvanceNs(500);
  log.Append(0, RequestEventKind::kAdmitted, 0, 0.0015,
             {{"fresh_blocks", 2}, {"shared_blocks", 1}});
  log.Append(0, RequestEventKind::kDecodeIteration, 1, 0.002,
             {{"token", 42}, {"generated", 1}});
  log.Append(0, RequestEventKind::kFinished, 2, 0.0025,
             {{"generated", 2}, {"eos", 0}});

  const std::string expected =
      "{\"req\":0,\"ev\":\"submitted\",\"iter\":-1,\"vt_ns\":0,"
      "\"wall_ns\":1000,\"prompt_tokens\":7,\"max_new\":3}\n"
      "{\"req\":0,\"ev\":\"admitted\",\"iter\":0,\"vt_ns\":1500000,"
      "\"wall_ns\":1500,\"fresh_blocks\":2,\"shared_blocks\":1}\n"
      "{\"req\":0,\"ev\":\"decode\",\"iter\":1,\"vt_ns\":2000000,"
      "\"wall_ns\":1500,\"token\":42,\"generated\":1}\n"
      "{\"req\":0,\"ev\":\"finished\",\"iter\":2,\"vt_ns\":2500000,"
      "\"wall_ns\":1500,\"generated\":2,\"eos\":0}\n";
  EXPECT_EQ(log.ToJsonl(), expected);

  // WriteJsonl emits the same bytes.
  const std::string path = testing::TempDir() + "/request_log_golden.jsonl";
  ASSERT_TRUE(log.WriteJsonl(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string read_back(expected.size() + 64, '\0');
  const size_t n = std::fread(read_back.data(), 1, read_back.size(), f);
  std::fclose(f);
  read_back.resize(n);
  EXPECT_EQ(read_back, expected);
}

TEST(RequestLogTest, ChromeAsyncSpanGoldenIsByteExact) {
  obs::FakeClock wall(0);
  obs::RequestLog log(&wall);
  log.Append(0, RequestEventKind::kSubmitted, -1, 0.0);
  log.Append(0, RequestEventKind::kAdmitted, 0, 0.0015);
  log.Append(0, RequestEventKind::kFinished, 2, 0.0025,
             {{"generated", 2}, {"eos", 0}});

  const std::vector<obs::AsyncSpan> spans = log.ChromeAsyncSpans();
  ASSERT_EQ(spans.size(), 3u);
  const std::string json = obs::ChromeTraceWriter::ToJson({}, spans);
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"b\",\"pid\":0,\"tid\":0,\"id\":\"0\",\"ts\":0.000,"
      "\"name\":\"request/finished\",\"cat\":\"srv.request\","
      "\"args\":{\"generated\":2,\"eos\":0}},"
      "{\"ph\":\"e\",\"pid\":0,\"tid\":0,\"id\":\"0\",\"ts\":2500.000,"
      "\"name\":\"request/finished\",\"cat\":\"srv.request\"},"
      "{\"ph\":\"b\",\"pid\":0,\"tid\":0,\"id\":\"0\",\"ts\":0.000,"
      "\"name\":\"queued\",\"cat\":\"srv.request\"},"
      "{\"ph\":\"e\",\"pid\":0,\"tid\":0,\"id\":\"0\",\"ts\":1500.000,"
      "\"name\":\"queued\",\"cat\":\"srv.request\"},"
      "{\"ph\":\"b\",\"pid\":0,\"tid\":0,\"id\":\"0\",\"ts\":1500.000,"
      "\"name\":\"exec\",\"cat\":\"srv.request\"},"
      "{\"ph\":\"e\",\"pid\":0,\"tid\":0,\"id\":\"0\",\"ts\":2500.000,"
      "\"name\":\"exec\",\"cat\":\"srv.request\"}"
      "]}\n";
  EXPECT_EQ(json, expected);
}

TEST(RequestLogTest, RejectedAndUnadmittedRequestsGetRequestSpanOnly) {
  obs::FakeClock wall(0);
  obs::RequestLog log(&wall);
  log.Append(4, RequestEventKind::kSubmitted, -1, 0.0);
  log.Append(4, RequestEventKind::kRejected, 0, 0.001);
  log.Append(9, RequestEventKind::kSubmitted, -1, 0.0);  // never terminal
  const std::vector<obs::AsyncSpan> spans = log.ChromeAsyncSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "request/rejected");
  EXPECT_EQ(spans[0].id, 4u);
}

// ---------------------------------------------------------------------------
// Engine integration.

TinyTransformer MakeModel() {
  TinyConfig cfg;
  cfg.max_seq = 64;
  TinyTransformer model(cfg, 7);
  model.PruneWeights(MagnitudePruner(), 0.6);
  return model;
}

ServingEngineConfig ObsEngineConfig(const TinyConfig& model_cfg,
                                    obs::Clock* wall) {
  ServingEngineConfig cfg;
  cfg.max_batch = 4;
  cfg.kv_block_tokens = 8;
  cfg.kv_num_blocks = 64;
  cfg.prefill_chunk_tokens = 8;
  cfg.enable_prefix_cache = true;
  cfg.cost.model = ModelConfigFor(model_cfg);
  cfg.cost.framework = Framework::kSpInfer;
  cfg.cost.device = Rtx4090();
  cfg.cost.sparsity = 0.6;
  cfg.obs.enabled = true;
  cfg.obs.wall_clock = wall;
  return cfg;
}

PoissonTraffic Traffic() {
  PoissonTraffic t;
  t.arrival_rate_rps = 30.0;
  t.horizon_s = 1.0;
  t.seed = 3;
  t.prompt_len_min = 4;
  t.prompt_len_max = 40;
  t.max_new_min = 4;
  t.max_new_max = 10;
  return t;
}

struct ObsRun {
  std::string report;
  std::string jsonl;
  std::string flight_dump;
  std::vector<std::vector<int32_t>> streams;
};

ObsRun RunObsWorkload(const TinyTransformer& model, bool obs_on) {
  obs::FakeClock wall(12345);
  ServingEngineConfig cfg = ObsEngineConfig(model.config(), &wall);
  if (!obs_on) {
    cfg.obs = ServingObsConfig{};
  }
  ServingEngine engine(&model, cfg);
  engine.InjectPoissonArrivals(Traffic());
  // An unservable prompt (overflows max_seq) exercises the rejected path...
  engine.Submit(std::vector<int32_t>(100, 1), 8, 0.05);
  // ...and cancels hit both a queued and (likely) a running victim.
  engine.Cancel(2, 0.0);
  engine.Cancel(5, 0.2);
  const ExecServingReport report = engine.Run();

  ObsRun out;
  out.report = report.ToString();
  for (const RequestRecord& r : engine.results()) {
    out.streams.push_back(r.generated);
  }
  if (obs_on) {
    EXPECT_NE(engine.request_log(), nullptr);
    EXPECT_NE(engine.flight_recorder(), nullptr);
    EXPECT_NE(engine.slo_tracker(), nullptr);
    out.jsonl = engine.request_log()->ToJsonl();
    out.flight_dump = engine.flight_recorder()->Dump();
  } else {
    EXPECT_EQ(engine.request_log(), nullptr);
    EXPECT_EQ(engine.flight_recorder(), nullptr);
    EXPECT_EQ(engine.slo_tracker(), nullptr);
  }
  return out;
}

TEST(RequestLogEngineTest, TimelineAndFlightDumpByteStableAcrossThreads) {
  const TinyTransformer model = MakeModel();
  ThreadPool::SetGlobalThreads(1);
  const ObsRun baseline = RunObsWorkload(model, /*obs_on=*/true);

  // The workload really exercised every event kind.
  for (const char* needle :
       {"\"ev\":\"submitted\"", "\"ev\":\"admitted\"",
        "\"ev\":\"prefix_match\"", "\"ev\":\"chunk_scheduled\"",
        "\"ev\":\"decode\"", "\"ev\":\"finished\"", "\"ev\":\"rejected\"",
        "\"ev\":\"cancelled\""}) {
    EXPECT_NE(baseline.jsonl.find(needle), std::string::npos) << needle;
  }
  EXPECT_NE(baseline.flight_dump.find("[flight-recorder]"), std::string::npos);

  for (int threads : {2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    const ObsRun run = RunObsWorkload(model, /*obs_on=*/true);
    EXPECT_EQ(run.report, baseline.report) << "threads=" << threads;
    EXPECT_EQ(run.jsonl, baseline.jsonl) << "threads=" << threads;
    EXPECT_EQ(run.flight_dump, baseline.flight_dump) << "threads=" << threads;
    EXPECT_EQ(run.streams, baseline.streams) << "threads=" << threads;
  }
  ThreadPool::SetGlobalThreads(0);
}

TEST(RequestLogEngineTest, ObservabilityDoesNotPerturbStreamsOrReport) {
  const TinyTransformer model = MakeModel();
  ThreadPool::SetGlobalThreads(1);
  const ObsRun with_obs = RunObsWorkload(model, /*obs_on=*/true);
  const ObsRun without_obs = RunObsWorkload(model, /*obs_on=*/false);
  EXPECT_EQ(with_obs.report, without_obs.report);
  EXPECT_EQ(with_obs.streams, without_obs.streams);
  ThreadPool::SetGlobalThreads(0);
}

TEST(RequestLogEngineTest, RequestSpansStayOutOfTheWallClockTracer) {
  const TinyTransformer model = MakeModel();
  ThreadPool::SetGlobalThreads(1);
  obs::FakeClock wall(0);
  ServingEngine engine(&model, ObsEngineConfig(model.config(), &wall));
  engine.InjectPoissonArrivals(Traffic());
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Reset();
  tracer.Start(&wall);
  const ExecServingReport report = engine.Run();
  tracer.Stop();
  const std::vector<obs::TraceEvent> events = tracer.Drain();
  tracer.Reset();
  ThreadPool::SetGlobalThreads(0);

  // The run was traced (each iteration records an srv.step span) and
  // finished requests, yet no wall-clock event carries a request's interval.
  ASSERT_GT(report.completed, 0);
  EXPECT_FALSE(events.empty());
  const auto request_events =
      std::count_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return std::strcmp(e.name, "srv.request") == 0;
      });
  EXPECT_EQ(request_events, 0);
  // Those virtual-clock intervals are the timeline's async spans.
  int64_t finished_spans = 0;
  for (const obs::AsyncSpan& span : engine.request_log()->ChromeAsyncSpans()) {
    finished_spans += span.cat == "srv.request" && span.name == "request/finished";
  }
  EXPECT_EQ(finished_spans, report.completed);
}

}  // namespace
}  // namespace spinfer

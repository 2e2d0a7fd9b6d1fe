// Flight recorder: ring semantics, dump rendering, engine integration, and
// the SPINFER_CHECK crash-dump path (src/util/crash_dump.h).
//
// The death test is the acceptance scenario for the crash hook: a
// SPINFER_CHECK failure in a serving harness with the recorder enabled must
// leave the last scheduler iterations — batch composition and KV occupancy —
// on stderr before the abort.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/gpusim/device_spec.h"
#include "src/llm/serving_engine.h"
#include "src/llm/tiny_transformer.h"
#include "src/obs/flight_recorder.h"
#include "src/pruning/magnitude.h"
#include "src/util/check.h"
#include "src/util/crash_dump.h"

namespace spinfer {
namespace {

obs::IterationSnapshot Snap(int64_t iter) {
  obs::IterationSnapshot s;
  s.iter = iter;
  s.vt_s = 0.001 * static_cast<double>(iter + 1);
  s.cost_ms = 1.0;
  s.batch = 2;
  s.decode_seqs = 1;
  s.prefill_seqs = 1;
  s.chunk_tokens = 8;
  s.admitted = iter == 0 ? 2 : 0;
  s.queue_depth = 3;
  s.kv_used_blocks = 10 + iter;
  s.kv_total_blocks = 64;
  s.kv_wasted_slots = 5;
  s.batch_ids = {0, 1};
  if (iter == 0) {
    s.admitted_ids = {0, 1};
  }
  return s;
}

TEST(FlightRecorderTest, RingKeepsLastCapacitySnapshotsOldestFirst) {
  obs::FlightRecorder rec(4);
  EXPECT_EQ(rec.capacity(), 4);
  for (int64_t i = 0; i < 10; ++i) {
    rec.Record(Snap(i));
  }
  EXPECT_EQ(rec.recorded(), 10);
  const std::vector<obs::IterationSnapshot> snaps = rec.Snapshots();
  ASSERT_EQ(snaps.size(), 4u);
  for (size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].iter, 6 + static_cast<int64_t>(i));
  }
}

TEST(FlightRecorderTest, DumpGoldenIsByteExact) {
  obs::FlightRecorder rec(2);
  rec.Record(Snap(0));
  rec.Record(Snap(1));
  rec.Record(Snap(2));  // evicts iter 0
  const std::string expected =
      "[flight-recorder] 2 of 3 iterations retained (capacity 2)\n"
      "iter=1 vt_ms=2.000000 cost_ms=1.000000 batch=2 decode=1 prefill=1 "
      "chunk_tokens=8 admitted=0 rejected=0 queue=3 kv=11/64 blocks "
      "wasted_slots=5 ids=[0,1] admitted_ids=[]\n"
      "iter=2 vt_ms=3.000000 cost_ms=1.000000 batch=2 decode=1 prefill=1 "
      "chunk_tokens=8 admitted=0 rejected=0 queue=3 kv=12/64 blocks "
      "wasted_slots=5 ids=[0,1] admitted_ids=[]\n";
  EXPECT_EQ(rec.Dump(), expected);
}

TEST(FlightRecorderTest, DumpToFileMatchesDump) {
  obs::FlightRecorder rec(2);
  rec.Record(Snap(0));
  const std::string path = testing::TempDir() + "/flight_dump.txt";
  ASSERT_TRUE(rec.DumpToFile(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string read_back(4096, '\0');
  const size_t n = std::fread(read_back.data(), 1, read_back.size(), f);
  std::fclose(f);
  read_back.resize(n);
  EXPECT_EQ(read_back, rec.Dump());
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

ServingEngineConfig RecorderConfig(const TinyConfig& model_cfg) {
  ServingEngineConfig cfg;
  cfg.max_batch = 4;
  cfg.kv_block_tokens = 8;
  cfg.kv_num_blocks = 64;
  cfg.cost.model = ModelConfigFor(model_cfg);
  cfg.cost.framework = Framework::kSpInfer;
  cfg.cost.device = Rtx4090();
  cfg.cost.sparsity = 0.6;
  cfg.obs.enabled = true;
  return cfg;
}

TEST(FlightRecorderEngineTest, RecordsEveryIterationWithBatchAndKvState) {
  const TinyTransformer model = MakeModel();
  ServingEngine engine(&model, RecorderConfig(model.config()));
  for (int i = 0; i < 6; ++i) {
    engine.Submit(std::vector<int32_t>(8, 1 + i), 4, 0.0);
  }
  const ExecServingReport report = engine.Run();
  ASSERT_NE(engine.flight_recorder(), nullptr);
  EXPECT_EQ(engine.flight_recorder()->recorded(), report.iterations);

  const std::vector<obs::IterationSnapshot> snaps =
      engine.flight_recorder()->Snapshots();
  ASSERT_FALSE(snaps.empty());
  // First iteration: max_batch requests admitted, each prefilling.
  EXPECT_EQ(snaps[0].iter, 0);
  EXPECT_EQ(snaps[0].admitted, 4);
  EXPECT_EQ(snaps[0].batch, 4);
  EXPECT_EQ(snaps[0].prefill_seqs, 4);
  EXPECT_EQ(snaps[0].queue_depth, 2);
  EXPECT_EQ(snaps[0].admitted_ids, (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(snaps[0].batch_ids, (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_GT(snaps[0].kv_used_blocks, 0);
  EXPECT_EQ(snaps[0].kv_total_blocks, 64);
  for (size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].iter, static_cast<int64_t>(i));
    EXPECT_GT(snaps[i].cost_ms, 0.0);
    EXPECT_GE(snaps[i].vt_s,
              i == 0 ? 0.0 : snaps[i - 1].vt_s);  // clock monotone
  }
}

void RunServingThenFailCheck() {
  const TinyTransformer model = MakeModel();
  ServingEngine engine(&model, RecorderConfig(model.config()));
  for (int i = 0; i < 4; ++i) {
    engine.Submit(std::vector<int32_t>(8, 1 + i), 4, 0.0);
  }
  engine.Run();
  SPINFER_CHECK_MSG(false, "post-run invariant violated (test)");
}

TEST(FlightRecorderDeathTest, CheckFailureDumpsBatchCompositionAndKvOccupancy) {
  // The hook installed by Run must print the diagnostic, then the dump —
  // including per-iteration batch ids and KV occupancy. POSIX ERE, '.'
  // crosses newlines (no REG_NEWLINE), so one pattern asserts the order:
  // diagnostic -> dump header -> an iteration line with ids and kv counts.
  EXPECT_DEATH(
      RunServingThenFailCheck(),
      "post-run invariant violated \\(test\\).*dumping flight recorder.*"
      "\\[flight-recorder\\] .*iter=0 .*batch=4 .*kv=[0-9]+/64 blocks "
      ".*ids=\\[0,1,2,3\\]");
}

TEST(FlightRecorderEngineTest, UninstallOnDestructionIsScopedToOwnRecorder) {
  obs::FlightRecorder outer(4);
  InstallFlightRecorderCrashDump(&outer);
  {
    const TinyTransformer model = MakeModel();
    ServingEngine engine(&model, RecorderConfig(model.config()));
    engine.Submit({1, 2, 3}, 2, 0.0);
    engine.Run();  // installs the engine's recorder over `outer`
  }
  // The engine's destructor must not clear a pointer it no longer owns once
  // someone else reinstalls...
  obs::FlightRecorder replacement(4);
  EXPECT_EQ(InstallFlightRecorderCrashDump(&replacement), nullptr)
      << "engine dtor should have cleared its own recorder";
  UninstallFlightRecorderCrashDump(&replacement);
}

}  // namespace
}  // namespace spinfer

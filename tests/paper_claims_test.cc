// Consolidated assertions for the paper's headline (abstract-level) claims,
// evaluated over the same sweep the figure benches print. If a calibration
// change breaks the reproduction's story, this file is what fails.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/baselines/kernel_registry.h"
#include "src/llm/engine.h"
#include "src/llm/model_config.h"

namespace spinfer {
namespace {

SpmmProblem Problem(int64_t m, int64_t k, int64_t n, double s) {
  SpmmProblem p;
  p.m = m;
  p.k = k;
  p.n = n;
  p.sparsity = s;
  return p;
}

double TimeUs(const char* kernel, const SpmmProblem& p, const DeviceSpec& dev) {
  return MakeKernel(kernel)->Estimate(p, dev).time.total_us;
}

// Abstract: "significantly outperforms ... up to 2.14x and 2.27x over
// Flash-LLM and SparTA ... across a range of sparsity levels (30% to 70%)".
// The *maximum* speedup over each baseline across the sweep should land in
// that order of magnitude (we accept [1.7, 3.5]).
TEST(PaperClaimsTest, MaxSpeedupsOverSparseBaselines) {
  const DeviceSpec dev = Rtx4090();
  double max_vs_flash = 0.0;
  double max_vs_sparta = 0.0;
  for (const ModelConfig& model : {Opt13B(), Llama2_70B(), Qwen2_7B()}) {
    for (const GemmShape& g : LayerGemmShapes(model)) {
      for (double s : {0.3, 0.5, 0.7}) {
        for (int64_t n : {8, 16, 32}) {
          const SpmmProblem p = Problem(g.m, g.k, n, s);
          const double spinfer_t = TimeUs("spinfer", p, dev);
          max_vs_flash = std::max(max_vs_flash, TimeUs("flash_llm", p, dev) / spinfer_t);
          max_vs_sparta = std::max(max_vs_sparta, TimeUs("sparta", p, dev) / spinfer_t);
        }
      }
    }
  }
  EXPECT_GT(max_vs_flash, 1.7);  // paper: up to 2.14x
  EXPECT_LT(max_vs_flash, 3.5);
  EXPECT_GT(max_vs_sparta, 1.7);  // paper: up to 2.27x
  EXPECT_LT(max_vs_sparta, 3.5);
}

// Abstract: "outperforms highly optimized cuBLAS at sparsity levels as low
// as 30% ... the first effective translation of unstructured pruning's
// theoretical advantages". Check every evaluated layer shape at 30%.
TEST(PaperClaimsTest, BeatsCublasAt30PercentEverywhere) {
  const DeviceSpec dev = Rtx4090();
  for (const ModelConfig& model : AllModels()) {
    for (const GemmShape& g : LayerGemmShapes(model)) {
      const SpmmProblem p = Problem(g.m, g.k, 16, 0.3);
      EXPECT_LT(TimeUs("spinfer", p, dev), TimeUs("cublas_tc", p, dev))
          << model.name << " " << g.op;
    }
  }
}

// Abstract: "substantial improvements in ... end-to-end inference speed
// (up to 1.58x)". Max over the OPT-13B grid where both frameworks fit.
TEST(PaperClaimsTest, EndToEndMaxSpeedupOverFlashLlm) {
  EngineConfig cfg;
  cfg.model = Opt13B();
  cfg.device = Rtx4090();
  cfg.sparsity = 0.6;
  cfg.input_len = 128;
  double max_speedup = 0.0;
  for (int gpus : {1, 2}) {
    for (int64_t batch : {8, 16, 32}) {
      for (int64_t out : {64, 128, 256}) {
        cfg.num_gpus = gpus;
        cfg.batch = batch;
        cfg.output_len = out;
        cfg.framework = Framework::kSpInfer;
        const InferenceReport a = SimulateInference(cfg);
        cfg.framework = Framework::kFlashLlm;
        const InferenceReport b = SimulateInference(cfg);
        if (a.oom || b.oom) {
          continue;
        }
        max_speedup = std::max(max_speedup, b.total_ms / a.total_ms);
      }
    }
  }
  EXPECT_GT(max_speedup, 1.4);  // paper: up to 1.58x
  EXPECT_LT(max_speedup, 1.9);
}

// §5.2: "memory ... 47.5% reduction compared to the dense baseline" for
// OPT-13B inference at 60% sparsity (weights + KV + runtime).
TEST(PaperClaimsTest, EndToEndMemoryReduction) {
  const DeviceSpec dev = Rtx4090();
  const MemoryPlan dense =
      PlanMemory(Opt13B(), WeightFormat::kDense, 0.0, 16, 384, 2, dev);
  const MemoryPlan sparse =
      PlanMemory(Opt13B(), WeightFormat::kTcaBme, 0.6, 16, 384, 2, dev);
  const double reduction = 1.0 - static_cast<double>(sparse.TotalBytes()) /
                                     static_cast<double>(dense.TotalBytes());
  EXPECT_GT(reduction, 0.30);  // paper: 47.5% on total footprint
  EXPECT_LT(reduction, 0.60);
}

// Conclusion: "consistently surpasses state-of-the-art SpMM kernels" — at
// the paper's central 50-60% operating point SpInfer is the fastest kernel
// on BOTH devices for every evaluated layer shape.
TEST(PaperClaimsTest, FastestKernelAtOperatingPoint) {
  for (const DeviceSpec& dev : {Rtx4090(), A6000()}) {
    for (const ModelConfig& model : {Opt13B(), Opt66B(), Llama3_8B()}) {
      for (const GemmShape& g : LayerGemmShapes(model)) {
        const SpmmProblem p = Problem(g.m, g.k, 16, 0.6);
        const double spinfer_t = TimeUs("spinfer", p, dev);
        for (const char* other :
             {"cublas_tc", "flash_llm", "sparta", "sputnik", "cusparse", "smat"}) {
          EXPECT_LE(spinfer_t, TimeUs(other, p, dev))
              << dev.name << " " << model.name << " " << g.op << " vs " << other;
        }
      }
    }
  }
}

}  // namespace
}  // namespace spinfer

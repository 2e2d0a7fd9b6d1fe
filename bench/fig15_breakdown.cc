// Figure 15: breakdown of end-to-end inference time into SpMM/GEMM, MHA,
// inter-GPU communication, and other — including the paper's observation
// that SpInfer's memory savings let it use HALF the GPUs and thereby erase
// the communication term entirely on the PCIe platform.
#include "bench/bench_util.h"
#include "src/llm/engine.h"

namespace {

void PrintBreakdown(const char* label, const spinfer::InferenceReport& r) {
  using namespace spinfer;
  if (r.oom) {
    std::printf("%-36s OOM (%s)\n", label, r.memory.ToString().c_str());
    return;
  }
  const double linear = r.prefill.linear_us + r.decode.linear_us;
  const double attn = r.prefill.attention_us + r.decode.attention_us;
  const double comm = r.prefill.comm_us + r.decode.comm_us;
  const double other = r.prefill.other_us + r.decode.other_us;
  const double total = linear + attn + comm + other;
  std::printf("%-36s total=%7.0fms  SpMM/GEMM=%4.1f%%  MHA=%4.1f%%  COMM=%4.1f%%  other=%4.1f%%\n",
              label, total / 1e3, 100 * linear / total, 100 * attn / total,
              100 * comm / total, 100 * other / total);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spinfer;
  BenchInit(argc, argv);
  PrintHeader("Figure 15: end-to-end time breakdown (OPT-13B, batch 16, out 256)");

  EngineConfig cfg;
  cfg.model = Opt13B();
  cfg.device = Rtx4090();
  cfg.batch = 16;
  cfg.input_len = 128;
  cfg.output_len = 256;
  cfg.sparsity = 0.6;

  // SpInfer fits on ONE RTX4090; the baselines need two (dense 26 GB).
  cfg.framework = Framework::kSpInfer;
  cfg.num_gpus = 1;
  PrintBreakdown("SpInfer, 1x RTX4090", SimulateInference(cfg));
  cfg.num_gpus = 2;
  PrintBreakdown("SpInfer, 2x RTX4090", SimulateInference(cfg));
  cfg.framework = Framework::kFlashLlm;
  PrintBreakdown("Flash-LLM, 2x RTX4090", SimulateInference(cfg));
  cfg.framework = Framework::kFasterTransformer;
  PrintBreakdown("FasterTransformer, 2x RTX4090", SimulateInference(cfg));

  std::printf("\nSame comparison on the NVLink platform (A6000, OPT-30B):\n");
  cfg.model = Opt30B();
  cfg.device = A6000();
  cfg.framework = Framework::kSpInfer;
  cfg.num_gpus = 1;
  PrintBreakdown("SpInfer, 1x A6000", SimulateInference(cfg));
  cfg.num_gpus = 2;
  PrintBreakdown("SpInfer, 2x A6000", SimulateInference(cfg));
  cfg.framework = Framework::kFlashLlm;
  PrintBreakdown("Flash-LLM, 2x A6000", SimulateInference(cfg));
  cfg.framework = Framework::kFasterTransformer;
  PrintBreakdown("FasterTransformer, 2x A6000", SimulateInference(cfg));

  std::printf(
      "\nPaper shape check: SpMM/GEMM dominates everywhere; SpInfer's SpMM slice is\n"
      "smallest; the 1-GPU SpInfer row has zero COMM while 2-GPU baselines pay\n"
      "PCIe all-reduce costs (much larger than on NVLink).\n");
  return 0;
}

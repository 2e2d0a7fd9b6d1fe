// Figure 2: runtime and memory breakdown of dense OPT-13B on 2x RTX4090
// under FasterTransformer (batch 16, output 256). The paper reads off this
// figure that weights are 87.6% of memory and GEMM 61.6% of execution time —
// the two bottlenecks SpInfer attacks.
#include "bench/bench_util.h"
#include "src/llm/engine.h"

int main(int argc, char** argv) {
  using namespace spinfer;
  BenchInit(argc, argv);
  EngineConfig cfg;
  cfg.model = Opt13B();
  cfg.framework = Framework::kFasterTransformer;
  cfg.device = Rtx4090();
  cfg.num_gpus = 2;
  cfg.batch = 16;
  cfg.input_len = 128;
  cfg.output_len = 256;

  const InferenceReport r = SimulateInference(cfg);
  PrintHeader("Figure 2: OPT-13B breakdown, FasterTransformer, 2x RTX4090, BS=16");
  if (r.oom) {
    std::printf("unexpected OOM: %s\n", r.memory.ToString().c_str());
    return 1;
  }

  // Runtime breakdown over the full request (prefill + decode).
  const double linear = r.prefill.linear_us + r.decode.linear_us;
  const double attn = r.prefill.attention_us + r.decode.attention_us;
  const double comm = r.prefill.comm_us + r.decode.comm_us;
  const double other = r.prefill.other_us + r.decode.other_us;
  const double total = linear + attn + comm + other;
  Table rt({"runtime component", "time_ms", "share"});
  rt.AddRow({"GEMM (linear)", FormatF(linear / 1e3, 1), FormatF(100 * linear / total, 1) + "%"});
  rt.AddRow({"MHA", FormatF(attn / 1e3, 1), FormatF(100 * attn / total, 1) + "%"});
  rt.AddRow({"COMM", FormatF(comm / 1e3, 1), FormatF(100 * comm / total, 1) + "%"});
  rt.AddRow({"Other", FormatF(other / 1e3, 1), FormatF(100 * other / total, 1) + "%"});
  std::printf("%s\n", rt.Render().c_str());

  // Memory breakdown (per GPU).
  const MemoryPlan& m = r.memory;
  const double mem_total = static_cast<double>(m.TotalBytes());
  Table mt({"memory component", "bytes", "share"});
  auto row = [&](const char* name, uint64_t bytes) {
    mt.AddRow({name, FormatBytes(bytes), FormatF(100.0 * bytes / mem_total, 1) + "%"});
  };
  row("Model weights", m.weight_bytes);
  row("KV cache", m.kv_cache_bytes);
  row("Activations", m.activation_bytes);
  row("Workspace+reserve", m.workspace_bytes + m.reserve_bytes);
  std::printf("%s\n", mt.Render().c_str());
  std::printf("Paper reference: weights ~87.6%% of memory, GEMM ~61.6%% of runtime.\n");
  return 0;
}

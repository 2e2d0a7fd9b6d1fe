// LLM serving simulator: size a deployment before buying GPUs.
//
// Given a model, device, batch and generation length, reports for each
// framework whether the configuration fits in memory, the modeled latency
// and throughput, and the time breakdown — the decision the paper's Figs.
// 13-15 inform.
//
// Usage: llm_serving_sim [--model=opt-13b] [--device=rtx4090] [--gpus=1]
//                        [--batch=16] [--input=128] [--output=256]
//                        [--sparsity=0.6]
//
// A mistyped flag, a count below 1 or a sparsity outside [0, 1] exits 1
// with an `error:` line naming the flag and the value.
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/llm/engine.h"
#include "src/util/cli.h"
#include "src/util/table.h"

namespace {

// Count flags (GPUs, batch, tokens): the cost model divides by them or sizes
// batches with them, so a value below 1 exits 1 here rather than aborting
// there.
int64_t CountFlag(const spinfer::CliFlags& flags, const char* name, int64_t def) {
  const int64_t v = flags.GetInt(name, def);
  if (v < 1) {
    std::fprintf(stderr, "error: --%s must be >= 1 (got %lld)\n", name,
                 static_cast<long long>(v));
    std::exit(1);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spinfer;
  const CliFlags flags(argc, argv);
  flags.RestrictTo(
      {"model", "device", "gpus", "batch", "input", "output", "sparsity"});
  EngineConfig cfg;
  cfg.model = ModelByName(flags.GetString("model", "opt-13b"));
  cfg.device = DeviceByName(flags.GetString("device", "rtx4090"));
  const int64_t gpus = CountFlag(flags, "gpus", 1);
  if (gpus > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "error: --gpus must be <= %d (got %lld)\n",
                 std::numeric_limits<int>::max(), static_cast<long long>(gpus));
    return 1;
  }
  cfg.num_gpus = static_cast<int>(gpus);
  cfg.batch = CountFlag(flags, "batch", 16);
  cfg.input_len = CountFlag(flags, "input", 128);
  cfg.output_len = CountFlag(flags, "output", 256);
  cfg.sparsity = flags.GetDouble("sparsity", 0.6);
  if (!(cfg.sparsity >= 0.0 && cfg.sparsity <= 1.0)) {
    std::fprintf(stderr, "error: --sparsity must be in [0, 1] (got %g)\n",
                 cfg.sparsity);
    return 1;
  }

  std::printf("%s on %dx %s | batch %ld | %ld in + %ld out tokens | sparsity %.0f%%\n\n",
              cfg.model.name.c_str(), cfg.num_gpus, cfg.device.name.c_str(),
              static_cast<long>(cfg.batch), static_cast<long>(cfg.input_len),
              static_cast<long>(cfg.output_len), cfg.sparsity * 100);

  Table t({"framework", "memory/GPU", "fits", "latency", "tok/s", "SpMM%", "MHA%",
           "COMM%"});
  for (Framework f : {Framework::kFasterTransformer, Framework::kDeepSpeed,
                      Framework::kFlashLlm, Framework::kSpInfer}) {
    cfg.framework = f;
    const InferenceReport r = SimulateInference(cfg);
    if (r.oom) {
      t.AddRow({FrameworkName(f), FormatBytes(r.memory.TotalBytes()), "OOM", "-", "-",
                "-", "-", "-"});
      continue;
    }
    const double linear = r.prefill.linear_us + r.decode.linear_us;
    const double attn = r.prefill.attention_us + r.decode.attention_us;
    const double comm = r.prefill.comm_us + r.decode.comm_us;
    const double total = r.total_ms * 1e3;
    t.AddRow({FrameworkName(f), FormatBytes(r.memory.TotalBytes()), "yes",
              FormatF(r.total_ms, 0) + "ms", FormatF(r.tokens_per_second, 0),
              FormatF(100 * linear / total, 1), FormatF(100 * attn / total, 1),
              FormatF(100 * comm / total, 1)});
  }
  std::printf("%s\n", t.Render().c_str());
  std::printf("Tip: sweep --gpus and --batch to find the cheapest configuration that\n"
              "fits; SpInfer's TCA-BME weights often halve the GPU count.\n");
  return 0;
}

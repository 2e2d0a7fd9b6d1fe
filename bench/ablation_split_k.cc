// Design-choice ablation: split-K parallelism (paper §4.3.1).
//
// Decode-phase grids are short (M/GT_rows blocks); split-K multiplies the
// block count at the price of an FP32 reduction-workspace round trip. This
// bench sweeps the factor across shapes and sparsities, showing the
// fill-vs-traffic tradeoff the ChooseSplitK heuristic navigates.
#include "bench/bench_util.h"
#include "src/core/spinfer_kernel.h"
#include "src/format/sparse_util.h"

int main(int argc, char** argv) {
  using namespace spinfer;
  BenchInit(argc, argv);
  const DeviceSpec dev = Rtx4090();

  PrintHeader("Ablation: split-K factor (modeled us, N=16, s=60%, RTX4090)");
  for (const auto& [m, k] : {std::pair<int64_t, int64_t>{4096, 4096},
                             {8192, 8192},
                             {1024, 32768},
                             {28672, 8192}}) {
    const SpmmProblem p = MakeProblem(m, k, 16, 0.6);
    Table t({"split_k", "time_us", "workspace traffic", "note"});
    const int auto_split = ChooseSplitK(m, k, TcaBmeConfig{}, dev);
    double best = 1e30;
    int best_split = 1;
    for (int split : {1, 2, 4, 8, 16}) {
      if (split > PadUp(k, 64) / 64) {
        continue;
      }
      SpInferKernelConfig cfg;
      cfg.split_k = split;
      const KernelEstimate est = SpInferSpmmKernel(cfg).Estimate(p, dev);
      const uint64_t ws =
          split > 1 ? 2ull * 4 * m * 16 * static_cast<uint64_t>(split) : 0;
      if (est.time.total_us < best) {
        best = est.time.total_us;
        best_split = split;
      }
      t.AddRow({std::to_string(split), FormatF(est.time.total_us, 1), FormatBytes(ws),
                split == auto_split ? "<- heuristic" : ""});
    }
    std::printf("M=%ld K=%ld:\n%sbest: split_k=%d; heuristic chose %d\n\n",
                static_cast<long>(m), static_cast<long>(k), t.Render().c_str(),
                best_split, auto_split);
  }
  return 0;
}

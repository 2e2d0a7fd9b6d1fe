// Extension bench: weight sparsity x dynamic activation sparsity (§6 future
// work). Models the Deja Vu-style deployment where a predictor marks
// contiguous neuron groups inactive, letting the kernel skip whole GroupTile
// columns.
#include "bench/bench_util.h"
#include "src/core/dual_sparse.h"

int main(int argc, char** argv) {
  using namespace spinfer;
  BenchInit(argc, argv);
  const DeviceSpec dev = Rtx4090();
  const SpmmProblem p = MakeProblem(8192, 8192, 16, 0.6);
  const double base_us = ModeledTimeUs("spinfer", p, dev);
  const double cublas_us = ModeledTimeUs("cublas_tc", p, dev);

  PrintHeader("Extension: dual sparsity, M=K=8192 N=16, weights at 60%");
  Table t({"activation sparsity", "group=1 (scattered)", "group=16", "group=64",
           "speedup vs dense cuBLAS (g=64)"});
  for (double ax : {0.0, 0.3, 0.5, 0.7, 0.9}) {
    const double g1 = EstimateDualSparseTime(p, ax, 1, dev).total_us;
    const double g16 = EstimateDualSparseTime(p, ax, 16, dev).total_us;
    const double g64 = EstimateDualSparseTime(p, ax, 64, dev).total_us;
    t.AddRow({FormatF(ax * 100, 0) + "%", FormatF(g1, 1) + "us",
              FormatF(g16, 1) + "us", FormatF(g64, 1) + "us",
              FormatF(cublas_us / g64, 2) + "x"});
  }
  std::printf("%s", t.Render().c_str());
  std::printf("\n(baseline SpInfer without activation sparsity: %.1f us, %.2fx)\n\n",
              base_us, cublas_us / base_us);
  std::printf("Contiguous neuron groups unlock whole-GroupTile skips; scattered\n"
              "activation sparsity cannot shrink traffic — the adaptive-encoding gap\n"
              "the paper's discussion section identifies.\n");
  return 0;
}

// Figure 16: SpInfer's prefill-phase limitation. As N = batch x seq_len
// grows, the GEMM becomes compute-bound; the bitmap-decoding overhead and
// the slightly lower sustained mma throughput make SpInfer up to ~11.8%
// slower than cuBLAS_TC at large N, while it keeps winning at decode-phase N.
#include <algorithm>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace spinfer;
  BenchInit(argc, argv);
  const DeviceSpec dev = Rtx4090();
  const int64_t m = 28672;
  const int64_t k = 8192;

  PrintHeader("Figure 16: small vs large N, M=28672 K=8192, RTX4090 (modeled)");
  for (double s : {0.5, 0.6}) {
    std::printf("sparsity = %.0f%%\n", s * 100);
    Table t({"N", "cublas_us", "spinfer_us", "spinfer/cublas", "regime"});
    double worst = 0.0;
    for (int64_t n : {8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}) {
      const SpmmProblem p = MakeProblem(m, k, n, s);
      const auto cublas = MakeKernel("cublas_tc")->Estimate(p, dev);
      const auto spinf = MakeKernel("spinfer")->Estimate(p, dev);
      const double ratio = spinf.time.total_us / cublas.time.total_us;
      worst = std::max(worst, ratio);
      t.AddRow({std::to_string(n), FormatF(cublas.time.total_us, 0),
                FormatF(spinf.time.total_us, 0), FormatF(ratio, 3),
                spinf.time.compute_us > spinf.time.mem_us ? "compute-bound"
                                                          : "memory-bound"});
    }
    std::printf("%s", t.Render().c_str());
    std::printf("worst case: SpInfer %.1f%% slower than cuBLAS at large N\n\n",
                100.0 * (worst - 1.0));
  }
  std::printf("Paper reference: up to 11.8%% slower in the compute-bound prefill\n"
              "regime; memory savings persist regardless.\n");
  return 0;
}

// Figure 11: SpInfer vs SMaT (Tensor-Core SpMM for scientific workloads)
// from LLM sparsity up to the extreme regime. SMaT's block skipping only
// pays off when whole 8x8 blocks vanish — above ~99.7% sparsity.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace spinfer;
  BenchInit(argc, argv);
  const DeviceSpec dev = Rtx4090();
  const int64_t m = 8192;
  const int64_t k = 8192;
  const int64_t n = 16;

  PrintHeader("Figure 11: SpInfer vs SMaT across sparsity, M=K=8192 N=16, RTX4090");
  Table t({"sparsity", "spinfer_us", "smat_us", "spinfer_speedup"});
  double crossover = -1.0;
  double prev_ratio = 10.0;
  for (double s : {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.995, 0.997, 0.998, 0.999}) {
    const SpmmProblem p = MakeProblem(m, k, n, s);
    const double spinfer_t = ModeledTimeUs("spinfer", p, dev);
    const double smat_t = ModeledTimeUs("smat", p, dev);
    const double ratio = smat_t / spinfer_t;
    if (prev_ratio >= 1.0 && ratio < 1.0) {
      crossover = s;
    }
    prev_ratio = ratio;
    t.AddRow({FormatF(s * 100, 1) + "%", FormatF(spinfer_t, 1), FormatF(smat_t, 1),
              FormatF(ratio, 2) + "x"});
  }
  std::printf("%s\n", t.Render().c_str());
  if (crossover > 0) {
    std::printf("SMaT overtakes SpInfer at ~%.1f%% sparsity.\n", crossover * 100);
  } else {
    std::printf("No crossover in the measured range.\n");
  }
  std::printf("Paper reference: SpInfer 2.12x faster at 50%%; SMaT wins only above\n"
              "~99.7%% sparsity.\n");
  return 0;
}

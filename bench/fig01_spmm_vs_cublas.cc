// Figure 1: execution time of unstructured SpMM implementations vs cuBLAS
// at M/K/N = 28672/8192/16 (a LLaMA2-70B FFN shape) on RTX4090, across
// sparsity levels. The paper's point: before SpInfer, no kernel beat cuBLAS
// at <= 50% sparsity.
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace spinfer;
  BenchInit(argc, argv);
  const DeviceSpec dev = Rtx4090();
  const int64_t m = 28672;
  const int64_t k = 8192;
  const int64_t n = 16;

  PrintHeader("Figure 1: SpMM vs cuBLAS, M/K/N=28672/8192/16, RTX4090 (modeled us)");
  Table t({"sparsity", "cublas_tc", "cusparse", "sputnik", "sparta", "flash_llm",
           "spinfer", "spinfer_speedup"});
  for (double s : {0.4, 0.5, 0.6, 0.7, 0.8}) {
    const SpmmProblem p = MakeProblem(m, k, n, s);
    const double cublas = ModeledTimeUs("cublas_tc", p, dev);
    const double spinfer_t = ModeledTimeUs("spinfer", p, dev);
    t.AddRow({FormatF(s * 100, 0) + "%", FormatF(cublas, 1),
              FormatF(ModeledTimeUs("cusparse", p, dev), 1),
              FormatF(ModeledTimeUs("sputnik", p, dev), 1),
              FormatF(ModeledTimeUs("sparta", p, dev), 1),
              FormatF(ModeledTimeUs("flash_llm", p, dev), 1), FormatF(spinfer_t, 1),
              FormatF(cublas / spinfer_t, 2) + "x"});
  }
  std::printf("%s\n", t.Render().c_str());
  std::printf("Paper shape check: only SpInfer undercuts cuBLAS at <=50%% sparsity;\n"
              "Flash-LLM/SparTA cross over near 50-60%%; cuSPARSE is far behind.\n");
  return 0;
}

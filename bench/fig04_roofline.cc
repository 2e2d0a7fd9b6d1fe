// Figure 4: roofline comparison of GEMM vs SpMM formats at varying
// sparsities and batch sizes (Eqs. 6-8). Formats with higher CR sit at
// higher compute intensity and therefore higher attainable performance in
// the memory-bound region.
#include "bench/bench_util.h"
#include "src/format/storage_model.h"
#include "src/format/tca_bme.h"
#include "src/roofline/roofline.h"

int main(int argc, char** argv) {
  using namespace spinfer;
  BenchInit(argc, argv);
  const DeviceSpec dev = Rtx4090();
  const int64_t m = 4096;
  const int64_t k = 4096;

  PrintHeader("Figure 4: compute intensity (paper-normalized units, Eqs. 6-8)");
  std::printf("Device ridge point: %.1f FLOP/B (RTX4090)\n\n", RooflineRidge(dev));

  for (int64_t n : {8, 16, 32}) {
    Table t({"sparsity", "GEMM", "CSR", "Tiled-CSL", "SparTA", "TCA-BME", "optimal"});
    for (int pct : {40, 50, 60, 70}) {
      const double s = pct / 100.0;
      const int64_t nnz = static_cast<int64_t>(m * k * (1.0 - s));
      const int64_t tiles = (m / 64) * (k / 64);
      const double cr_csr = CompressionRatio(m, k, CsrStorageModel(m, nnz));
      const double cr_csl = CompressionRatio(m, k, TiledCslStorageModel(tiles, nnz));
      const double cr_sparta = CompressionRatio(m, k, SpartaStorageModel(m, k, s));
      const double cr_tca = CompressionRatio(m, k, TcaBmeStorageModel(m, k, nnz));
      t.AddRow({FormatF(pct, 0) + "%", FormatF(CiGemm(m, n), 1),
                FormatF(CiSpmm(m, n, cr_csr), 1), FormatF(CiSpmm(m, n, cr_csl), 1),
                FormatF(CiSpmm(m, n, cr_sparta), 1), FormatF(CiSpmm(m, n, cr_tca), 1),
                FormatF(CiOptimal(m, n, s), 1)});
    }
    std::printf("N = %ld (batch size)\n%s\n", static_cast<long>(n), t.Render().c_str());
  }

  PrintHeader("Figure 4 (attainable TFLOP/s at true arithmetic intensity, N=16)");
  Table a({"kernel", "FLOP/B", "attainable", "bound"});
  // True intensity: 2*M*K*N flops over W-format bytes + X + O.
  const int64_t n = 16;
  const double flops = 2.0 * m * k * n;
  struct Fmt {
    const char* name;
    double bytes;
  };
  const int64_t nnz50 = m * k / 2;
  const double xo_bytes = 2.0 * k * n + 2.0 * m * n;
  const Fmt fmts[] = {
      {"GEMM (dense)", 2.0 * m * k + xo_bytes},
      {"CSR", static_cast<double>(CsrStorageModel(m, nnz50)) + xo_bytes},
      {"Tiled-CSL",
       static_cast<double>(TiledCslStorageModel((m / 64) * (k / 64), nnz50)) + xo_bytes},
      {"TCA-BME", static_cast<double>(TcaBmeStorageModel(m, k, nnz50)) + xo_bytes},
      {"optimal", 1.0 * m * k + xo_bytes},
  };
  for (const Fmt& f : fmts) {
    const RooflinePoint p = RooflineAttainable(f.name, flops / f.bytes, dev);
    a.AddRow({f.name, FormatF(p.flops_per_byte, 2), FormatF(p.attainable_tflops, 1),
              p.memory_bound ? "memory" : "compute"});
  }
  std::printf("%s\n", a.Render().c_str());
  std::printf("Paper shape check: all decode-phase points are memory-bound; TCA-BME\n"
              "sits closest to the optimal CI, CSR/Tiled-CSL below dense GEMM.\n");
  return 0;
}

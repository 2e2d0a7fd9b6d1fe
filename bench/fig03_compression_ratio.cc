// Figure 3: compression ratio (Eq. 1) of CSR, Tiled-CSL, SparTA and TCA-BME
// across sparsity levels at the representative M = K = 4096 scale, against
// the zero-overhead optimum. TCA-BME is the only format with CR > 1 at low
// sparsity.
//
// Closed-form models (Eqs. 2-5, 9) are printed alongside byte-exact encoder
// measurements on real Bernoulli-masked matrices.
#include "bench/bench_util.h"
#include "src/format/csr.h"
#include "src/format/sparta_format.h"
#include "src/format/storage_model.h"
#include "src/format/tca_bme.h"
#include "src/format/tiled_csl.h"
#include "src/util/random.h"

int main(int argc, char** argv) {
  using namespace spinfer;
  BenchInit(argc, argv);
  const int64_t m = 4096;
  const int64_t k = 4096;

  PrintHeader("Figure 3: compression ratio vs sparsity, M=K=4096 (closed-form)");
  Table t({"sparsity", "CSR", "Tiled-CSL", "SparTA", "TCA-BME", "optimal"});
  for (int pct = 10; pct <= 90; pct += 10) {
    const double s = pct / 100.0;
    const int64_t nnz = static_cast<int64_t>(m * k * (1.0 - s));
    const int64_t tiles = (m / 64) * (k / 64);
    t.AddRow({FormatF(pct, 0) + "%",
              FormatF(CompressionRatio(m, k, CsrStorageModel(m, nnz)), 3),
              FormatF(CompressionRatio(m, k, TiledCslStorageModel(tiles, nnz)), 3),
              FormatF(CompressionRatio(m, k, SpartaStorageModel(m, k, s)), 3),
              FormatF(CompressionRatio(m, k, TcaBmeStorageModel(m, k, nnz)), 3),
              FormatF(OptimalCompressionRatio(s), 3)});
  }
  std::printf("%s\n", t.Render().c_str());

  PrintHeader("Figure 3 (validation): byte-exact encoders on a 1024x1024 sample");
  Table v({"sparsity", "CSR", "Tiled-CSL", "SparTA", "TCA-BME"});
  Rng rng(2025);
  for (int pct : {30, 50, 70}) {
    const double s = pct / 100.0;
    const HalfMatrix w = HalfMatrix::RandomSparse(1024, 1024, s, rng);
    const double dense = 2.0 * 1024 * 1024;
    v.AddRow({FormatF(pct, 0) + "%",
              FormatF(dense / CsrMatrix::Encode(w).StorageBytes(), 3),
              FormatF(dense / TiledCslMatrix::Encode(w).StorageBytes(), 3),
              FormatF(dense / SpartaMatrix::Encode(w).StorageBytes(), 3),
              FormatF(TcaBmeMatrix::Encode(w).CompressionRatio(), 3)});
  }
  std::printf("%s\n", v.Render().c_str());
  std::printf("Paper shape check: CSR/Tiled-CSL < 1 below 50%%; SparTA slightly > 1\n"
              "at 50%%; TCA-BME > 1 everywhere in the 30-70%% range.\n");
  return 0;
}

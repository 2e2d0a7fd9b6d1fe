// Figure 7 companion: the weight-matrix data-movement path.
//
// The paper's Fig. 7 diagrams three paths for fetching W: cuBLAS's ideal
// LDGSTS global->shared bypass, Flash-LLM's LDG round trip through the
// register file plus a scattered shared-memory unpack, and SpInfer's
// LDGSTS bypass of the compressed GTile. The functional simulator's
// instruction counters make the schematic measurable.
#include "bench/bench_util.h"
#include "src/util/random.h"

int main(int argc, char** argv) {
  using namespace spinfer;
  BenchInit(argc, argv);
  Rng rng(707);
  const HalfMatrix w = HalfMatrix::RandomSparse(512, 512, 0.6, rng);
  const HalfMatrix x = HalfMatrix::Random(512, 16, rng, 0.5f);

  PrintHeader("Figure 7: W data-movement path, 512x512 @ 60% sparsity (measured)");
  Table t({"kernel", "LDGSTS (bypass)", "LDG (via regs)", "smem written",
           "smem bank conflicts", "DRAM read"});
  for (const char* name : {"cublas_tc", "flash_llm", "spinfer"}) {
    PerfCounters c;
    MakeKernel(name)->Run(w, x, &c);
    t.AddRow({name, std::to_string(c.ldgsts_instrs), std::to_string(c.ldg_instrs),
              FormatBytes(c.smem_bytes_written), std::to_string(c.smem_bank_conflicts),
              FormatBytes(c.dram_bytes_read)});
  }
  std::printf("%s\n", t.Render().c_str());
  std::printf(
      "Shape check: Flash-LLM is the only kernel moving W through the register\n"
      "file (LDG) and paying scatter conflicts; SpInfer's path is LDGSTS-only,\n"
      "like cuBLAS, but over the compressed GTile (smallest DRAM column).\n");
  return 0;
}

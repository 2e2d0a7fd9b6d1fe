#include "src/gpusim/perf_counters.h"

#include <algorithm>
#include <sstream>

namespace spinfer {

PerfCounters& PerfCounters::operator+=(const PerfCounters& o) {
  dram_bytes_read += o.dram_bytes_read;
  dram_bytes_written += o.dram_bytes_written;
  smem_bytes_read += o.smem_bytes_read;
  smem_bytes_written += o.smem_bytes_written;
  smem_transactions += o.smem_transactions;
  smem_bank_conflicts += o.smem_bank_conflicts;
  ldgsts_instrs += o.ldgsts_instrs;
  ldg_instrs += o.ldg_instrs;
  lds_instrs += o.lds_instrs;
  ldsm_instrs += o.ldsm_instrs;
  mma_instrs += o.mma_instrs;
  popc_ops += o.popc_ops;
  alu_ops += o.alu_ops;
  flops += o.flops;
  registers_per_thread = std::max(registers_per_thread, o.registers_per_thread);
  return *this;
}

namespace {

uint64_t SaturatingSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

}  // namespace

PerfCounters& PerfCounters::operator-=(const PerfCounters& o) {
  dram_bytes_read = SaturatingSub(dram_bytes_read, o.dram_bytes_read);
  dram_bytes_written = SaturatingSub(dram_bytes_written, o.dram_bytes_written);
  smem_bytes_read = SaturatingSub(smem_bytes_read, o.smem_bytes_read);
  smem_bytes_written = SaturatingSub(smem_bytes_written, o.smem_bytes_written);
  smem_transactions = SaturatingSub(smem_transactions, o.smem_transactions);
  smem_bank_conflicts = SaturatingSub(smem_bank_conflicts, o.smem_bank_conflicts);
  ldgsts_instrs = SaturatingSub(ldgsts_instrs, o.ldgsts_instrs);
  ldg_instrs = SaturatingSub(ldg_instrs, o.ldg_instrs);
  lds_instrs = SaturatingSub(lds_instrs, o.lds_instrs);
  ldsm_instrs = SaturatingSub(ldsm_instrs, o.ldsm_instrs);
  mma_instrs = SaturatingSub(mma_instrs, o.mma_instrs);
  popc_ops = SaturatingSub(popc_ops, o.popc_ops);
  alu_ops = SaturatingSub(alu_ops, o.alu_ops);
  flops = SaturatingSub(flops, o.flops);
  // registers_per_thread is a static kernel property: keep the left operand.
  return *this;
}

uint64_t PerfCounters::TotalWarpInstrs() const {
  return ldgsts_instrs + ldg_instrs + lds_instrs + ldsm_instrs + mma_instrs +
         popc_ops + alu_ops;
}

std::string PerfCounters::ToString() const {
  std::ostringstream oss;
  bool first = true;
  ForEachField([&](const char* name, uint64_t value) {
    if (!first) {
      oss << ' ';
    }
    first = false;
    oss << name << '=' << value;
  });
  return oss.str();
}

}  // namespace spinfer

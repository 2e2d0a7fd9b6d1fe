// Hardware event counters collected by the functional simulator.
//
// These mirror the Nsight Compute metrics the paper reports in Fig. 12 and
// Table 1: DRAM traffic, shared-memory transactions and bank conflicts,
// instruction mix (LDGSTS / LDSM / LDS / MMA / POPC), and register usage.
// Functional kernel runs populate them by counting actual simulated events;
// the analytical estimator computes the same quantities in closed form, and
// tests assert the two agree.
#pragma once

#include <cstdint>
#include <string>

namespace spinfer {

struct PerfCounters {
  // Global (DRAM) traffic in bytes.
  uint64_t dram_bytes_read = 0;
  uint64_t dram_bytes_written = 0;

  // Shared memory traffic and banking behaviour.
  uint64_t smem_bytes_read = 0;
  uint64_t smem_bytes_written = 0;
  uint64_t smem_transactions = 0;   // total 128-byte wavefronts issued
  uint64_t smem_bank_conflicts = 0; // extra wavefronts caused by conflicts

  // Instruction mix (warp-level instruction counts).
  uint64_t ldgsts_instrs = 0;  // async global->shared copies (cp.async)
  uint64_t ldg_instrs = 0;     // global->register loads
  uint64_t lds_instrs = 0;     // shared->register loads
  uint64_t ldsm_instrs = 0;    // ldmatrix loads
  uint64_t mma_instrs = 0;     // Tensor Core mma.m16n8k16 issues
  uint64_t popc_ops = 0;       // popcount operations (SMBD)
  uint64_t alu_ops = 0;        // other integer ALU ops in decode paths

  // Arithmetic work.
  uint64_t flops = 0;  // 2*FMA count actually performed

  // Static kernel properties.
  uint32_t registers_per_thread = 0;

  PerfCounters& operator+=(const PerfCounters& o);

  // Field-wise subtraction, saturating at 0 — the natural "what did this
  // region cost" helper for before/after snapshots. registers_per_thread is
  // carried from the left operand (it is a static property, not a flow).
  PerfCounters& operator-=(const PerfCounters& o);

  // Total warp-level instructions issued — the Table 1 "instructions"
  // column: memory + MMA + POPC + ALU.
  uint64_t TotalWarpInstrs() const;

  // Field-wise equality; used by determinism tests to assert counter totals
  // are identical regardless of execution width.
  bool operator==(const PerfCounters& o) const = default;

  // Visits every counter as (name, value) in declaration order, with
  // registers_per_thread widened to uint64_t. Single source of truth for
  // field enumeration: ToString, arithmetic, and the metrics bridge
  // (src/obs/perf_counters_bridge.h) all go through it, so adding a field
  // here updates every consumer.
  template <typename Visitor>
  void ForEachField(Visitor&& v) const {
    v("dram_bytes_read", dram_bytes_read);
    v("dram_bytes_written", dram_bytes_written);
    v("smem_bytes_read", smem_bytes_read);
    v("smem_bytes_written", smem_bytes_written);
    v("smem_transactions", smem_transactions);
    v("smem_bank_conflicts", smem_bank_conflicts);
    v("ldgsts_instrs", ldgsts_instrs);
    v("ldg_instrs", ldg_instrs);
    v("lds_instrs", lds_instrs);
    v("ldsm_instrs", ldsm_instrs);
    v("mma_instrs", mma_instrs);
    v("popc_ops", popc_ops);
    v("alu_ops", alu_ops);
    v("flops", flops);
    v("registers_per_thread", static_cast<uint64_t>(registers_per_thread));
  }

  std::string ToString() const;
};

inline PerfCounters operator-(PerfCounters lhs, const PerfCounters& rhs) {
  lhs -= rhs;
  return lhs;
}

}  // namespace spinfer

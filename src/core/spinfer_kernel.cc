#include "src/core/spinfer_kernel.h"

#include <algorithm>
#include <vector>

#include "src/core/smbd.h"
#include "src/format/sparse_util.h"
#include "src/format/tca_bme_quant.h"
#include "src/gpusim/shared_memory.h"
#include "src/gpusim/tensor_core.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace spinfer {
namespace {

// Bytes moved by one LDGSTS.128 warp instruction: 32 lanes x 16B.
constexpr uint64_t kLdgstsWarpBytes = 512;

// Scalar integer ops per BitmapTile of SMBD decode work: the warp-level
// counts charged in SmbdDecodeTcTile (2 popc + 8 alu) times 32 lanes.
constexpr uint64_t kDecodeOpsPerBitmapTile = (2 + 8) * 32;

uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

}  // namespace

SpInferSpmmKernel::SpInferSpmmKernel(SpInferKernelConfig config)
    : config_(std::move(config)) {}

std::string SpInferSpmmKernel::name() const {
  std::string n = "spinfer";
  if (config_.int8_values) {
    n += "-int8";
  }
  if (!config_.smbd) {
    n += "-nosmbd";
  }
  if (!config_.async_pipe) {
    n += "-nopipe";
  }
  return n;
}

FloatMatrix SpInferSpmmKernel::Run(const HalfMatrix& w, const HalfMatrix& x,
                                   PerfCounters* counters) const {
  const TcaBmeMatrix encoded = TcaBmeMatrix::Encode(w, config_.format);
  return RunEncoded(encoded, x, counters);
}

FloatMatrix SpInferSpmmKernel::RunEncoded(const TcaBmeMatrix& enc, const HalfMatrix& x,
                                          PerfCounters* counters) const {
  SPINFER_CHECK_EQ(enc.cols(), x.rows());
  const int64_t m = enc.rows();
  const int64_t k = enc.cols();
  const int64_t n = x.cols();
  const int64_t n8 = PadUp(std::max<int64_t>(n, 1), 8) / 8;  // mma n-tiles

  // Ragged-shape guard: the GroupTile grid is derived from the *padded*
  // dimensions, so a matrix whose M or K is not a GroupTile multiple still
  // covers every row/column (trailing tiles are zero-padded at encode time).
  // These invariants are what keeps that true; if an encoded matrix ever
  // violated them, whole row/column bands would silently drop out.
  const int64_t grid_r = enc.gt_grid_rows();
  const int64_t grid_c = enc.gt_grid_cols();
  SPINFER_CHECK_MSG(grid_r * config_.format.gt_rows >= m,
                    "GroupTile row grid does not cover M (ragged M mis-encoded)");
  SPINFER_CHECK_MSG(grid_c * config_.format.gt_cols >= k,
                    "GroupTile column grid does not cover K (ragged K mis-encoded)");
  const int tc_rows = enc.tc_rows_per_gt();
  const int tc_cols = enc.tc_cols_per_gt();
  const int split = config_.split_k > 0 ? config_.split_k : 1;
  SPINFER_CHECK_MSG(split <= grid_c, "split_k exceeds K GroupTile columns");
  const int64_t gts_per_split = CeilDiv(grid_c, split);

  FloatMatrix out(m, n);

  obs::TraceScope call_scope("sim.run_encoded");
  if (call_scope.active()) {
    call_scope.AddArg("m", m);
    call_scope.AddArg("k", k);
    call_scope.AddArg("n", n);
  }

  // The grid loop mirrors the CUDA launch: one task per (block_m, p)
  // thread-block tile, run on the global pool. Each task fills a private
  // accumulator block and a private PerfCounters; the epilogue below then
  // reduces both sequentially in (block_m, p) order, so the FP32 summation
  // order — and therefore every output bit and counter — is identical for
  // any thread count, including the original single-threaded loop.
  //
  // Accumulators live as plain row-major 16x8 float tiles (one per
  // (tcr, nt)), not per-lane MmaAccumulator fragments: the per-MMA
  // gather/scatter of the fragment API is a pure relayout, so keeping the
  // tile form throughout changes no arithmetic — only the epilogue's
  // indexing.
  constexpr int kTileElems = kTcTileDim * 8;  // one 16x8 accumulator tile
  const size_t acc_elems = static_cast<size_t>(tc_rows) * n8 * kTileElems;
  const int64_t num_blocks = grid_r * split;
  std::vector<std::vector<float>> partials(static_cast<size_t>(num_blocks));
  std::vector<PerfCounters> block_counters(static_cast<size_t>(num_blocks));

  ParallelFor(0, num_blocks, [&](int64_t task) {
    const int64_t block_m = task / split;
    const int p = static_cast<int>(task % split);
    const int64_t gc_begin = p * gts_per_split;
    const int64_t gc_end = std::min<int64_t>(grid_c, gc_begin + gts_per_split);
    if (gc_begin >= gc_end) {
      return;  // empty K partition (split does not divide grid_c)
    }
    PerfCounters local;
    std::vector<float> acc(acc_elems, 0.0f);
    std::vector<MmaBOperand> b_ops(static_cast<size_t>(n8));
    auto acc_tile = [&](int tcr, int64_t nt) {
      return reinterpret_cast<float(*)[8]>(
          &acc[(static_cast<size_t>(tcr) * n8 + nt) * kTileElems]);
    };

    for (int64_t gc = gc_begin; gc < gc_end; ++gc) {
      const int64_t gt = block_m * grid_c + gc;

      // --- Step 1: GTile loading (LDGSTS global->shared). -----------------
      const uint64_t seg_halves = enc.gtile_offsets()[gt + 1] - enc.gtile_offsets()[gt];
      const uint64_t w_tile_bytes =
          2ull * seg_halves + 8ull * static_cast<uint64_t>(enc.tcs_per_gt()) * 4;
      local.dram_bytes_read += w_tile_bytes + 8;  // +2 offset words (LDG)
      local.smem_bytes_written += w_tile_bytes;
      local.ldgsts_instrs += CeilDiv(w_tile_bytes, kLdgstsWarpBytes);
      local.ldg_instrs += 1;

      // --- Step 3: XTile loading. ----------------------------------------
      const uint64_t x_tile_bytes =
          static_cast<uint64_t>(config_.format.gt_cols) * static_cast<uint64_t>(n) * 2;
      if (block_m == 0) {
        // Subsequent block rows re-read the XTile through L2; only the
        // first touch reaches DRAM (X is far smaller than L2 at decode-
        // phase N).
        local.dram_bytes_read += x_tile_bytes;
      }
      local.smem_bytes_written += x_tile_bytes;
      local.ldgsts_instrs += CeilDiv(x_tile_bytes, kLdgstsWarpBytes);

      // --- Steps 2/4/5: SMBD decode, X fragment loads, Tensor Core. ------
      size_t cursor = enc.gtile_offsets()[gt];
      for (int tcc = 0; tcc < tc_cols; ++tcc) {
        const int64_t k0 = gc * config_.format.gt_cols +
                           static_cast<int64_t>(tcc) * kTcTileDim;
        // X fragment loads for this 16-deep K slab: each of the tc_rows
        // warps LDSMs its B operands (one ldmatrix.x4 covers two n8 tiles).
        local.ldsm_instrs +=
            static_cast<uint64_t>(tc_rows) * CeilDiv(static_cast<uint64_t>(n8), 2);
        local.smem_bytes_read += static_cast<uint64_t>(tc_rows) *
                                 static_cast<uint64_t>(n8) * 8 * kTcTileDim * 2;

        // Build this 16-deep K slab's B operands once: they depend only on
        // (k0, nt), so all tc_rows warp rows reuse them. Each X element is
        // bounds-checked and converted exactly once per slab instead of once
        // per (tcr, mma) — the same values the per-MMA fragment gather
        // produced.
        for (int64_t nt = 0; nt < n8; ++nt) {
          MmaBOperand& bop = b_ops[static_cast<size_t>(nt)];
          for (int nn = 0; nn < 8; ++nn) {
            const int64_t nc = nt * 8 + nn;
            float* col = bop.bt[nn];
            for (int kk = 0; kk < kTcTileDim; ++kk) {
              const int64_t kr = k0 + kk;
              col[kk] = (kr < k && nc < n) ? x.at(kr, nc).ToFloat() : 0.0f;
            }
          }
        }

        for (int tcr = 0; tcr < tc_rows; ++tcr) {
          // SMBD: quadrant bitmaps and value-run base pointers, advanced
          // online with PopCount (no stored offsets).
          const int tc = tcc * tc_rows + tcr;
          uint64_t bitmaps[4];
          const Half* quadrant_values[4];
          for (int q = 0; q < 4; ++q) {
            bitmaps[q] = enc.bitmaps()[enc.BitmapIndex(gt, tc, q)];
            quadrant_values[q] = enc.values().data() + cursor;
            cursor += static_cast<size_t>(PopCount64(bitmaps[q]));
          }
          MmaAFragment a_frag[kWarpSize];
          SmbdDecodeTcTile(bitmaps, quadrant_values, a_frag, &local);
          local.smem_bytes_read += 4 * 8;  // the four 64-bit bitmaps

          // Gather/convert the decoded A operand once; it is reused across
          // every n-tile below.
          MmaAOperand a_op;
          GatherMmaA(a_frag, &a_op);

          for (int64_t nt = 0; nt < n8; ++nt) {
            MmaM16N8K16Tile(a_op, b_ops[static_cast<size_t>(nt)],
                            acc_tile(tcr, nt));
            local.mma_instrs += 1;
            local.flops += 2ull * 16 * 16 * 8;
          }
        }
      }
      // Consistency: the cursor must land within this GroupTile's padded
      // segment.
      SPINFER_CHECK(cursor <= enc.gtile_offsets()[gt + 1]);
    }

    block_counters[task] = local;
    partials[task] = std::move(acc);
  });

  // Epilogue: apply every block's partials in (block_m, p) order — the same
  // FP32 summation order the CUDA split-K reduction workspace would produce,
  // and the order the sequential grid loop used before parallelization.
  SPINFER_TRACE_SCOPE("sim.epilogue");
  PerfCounters local;
  local.registers_per_thread = config_.smbd ? 104 : 178;
  for (int64_t task = 0; task < num_blocks; ++task) {
    local += block_counters[task];
    const std::vector<float>& acc = partials[task];
    if (acc.empty()) {
      continue;  // empty K partition produced no work
    }
    const int64_t block_m = task / split;
    for (int tcr = 0; tcr < tc_rows; ++tcr) {
      for (int64_t nt = 0; nt < n8; ++nt) {
        const float* tile = &acc[(static_cast<size_t>(tcr) * n8 + nt) * kTileElems];
        for (int r = 0; r < kTcTileDim; ++r) {
          const int64_t rr = block_m * config_.format.gt_rows +
                             static_cast<int64_t>(tcr) * kTcTileDim + r;
          if (rr >= m) {
            break;
          }
          for (int c = 0; c < 8; ++c) {
            const int64_t cc = nt * 8 + c;
            if (cc < n) {
              out.at(rr, cc) += tile[r * 8 + c];
            }
          }
        }
      }
    }
  }

  // Output traffic: with split-K, each partition writes FP32 partials that a
  // reduction pass re-reads; the final result is stored in FP16.
  const uint64_t out_elems = static_cast<uint64_t>(m) * static_cast<uint64_t>(n);
  if (split > 1) {
    local.dram_bytes_written += out_elems * 4 * static_cast<uint64_t>(split);
    local.dram_bytes_read += out_elems * 4 * static_cast<uint64_t>(split);
    local.dram_bytes_written += out_elems * 2;
  } else {
    local.dram_bytes_written += out_elems * 2;
  }

  if (counters != nullptr) {
    *counters += local;
  }
  return out;
}

KernelTraits SpInferSpmmKernel::Traits() const {
  KernelTraits t;
  t.name = name();
  // Calibrated against the paper: Table 1 reports 91.5% peak bandwidth and
  // ~19% TC pipe utilization for the full kernel at decode-phase N; Fig. 16
  // shows SpInfer trailing cuBLAS by up to ~12% when compute-bound.
  t.bw_eff = 0.915;
  t.tc_eff_max = 0.78;
  // tc_n_sat = 57 reproduces both ends of the paper's data: at N=16 the
  // issue/ILP-starved mma pipe sustains ~19% of peak (Table 1's TC pipe
  // utilization), flattening the speedup curve to ~1.9x at 70% sparsity
  // (Fig. 10); at prefill N the efficiency saturates near tc_eff_max so the
  // Fig. 16 gap vs cuBLAS stays ~10%.
  t.tc_n_sat = 57.0;
  t.uses_tensor_core = true;
  t.decode_serial_fraction = config_.async_pipe ? 0.05 : 0.25;
  t.fixed_us = 5.0;
  if (!config_.smbd) {
    // No-SMBD variant: sparse values staged through the register file and
    // expanded via shared memory (Table 1 row 2) — more decode work, a
    // larger serial share, and lower sustained bandwidth from the added
    // round trip. Calibrated to Table 1's +10% duration.
    t.bw_eff = 0.88;
    t.decode_serial_fraction = 0.35;
  }
  return t;
}

KernelResources SpInferSpmmKernel::Resources(double sparsity, int64_t n) const {
  const TcaBmeConfig& f = config_.format;
  KernelResources res;
  res.registers_per_thread = config_.smbd ? 104 : 178;
  res.threads_per_block = 32u * static_cast<uint32_t>(f.gt_rows / kTcTileDim);
  // Double-buffered shared tiles: expected nonzero payload with a 15%
  // headroom margin (the buffer must be provisioned before the tile's exact
  // count is known), the bitmaps, and the XTile (n capped at the kernel's
  // per-block column tile).
  const double gt_elems = static_cast<double>(f.gt_rows) * f.gt_cols;
  const uint32_t w_tile =
      static_cast<uint32_t>(gt_elems * (1.0 - sparsity) * 2.0 * 1.15) +
      static_cast<uint32_t>(gt_elems / 64.0 * 8.0);
  const uint32_t x_tile =
      static_cast<uint32_t>(f.gt_cols) * static_cast<uint32_t>(std::min<int64_t>(n, 64)) * 2;
  res.smem_bytes_per_block = 2 * (w_tile + x_tile);
  return res;
}

KernelEstimate SpInferSpmmKernel::Estimate(const SpmmProblem& p,
                                           const DeviceSpec& dev) const {
  const TcaBmeConfig& f = config_.format;
  const int64_t pm = PadUp(p.m, f.gt_rows);
  const int64_t pk = PadUp(p.k, f.gt_cols);
  const int64_t grid_r = pm / f.gt_rows;
  const int64_t grid_c = pk / f.gt_cols;
  const int64_t ngt = grid_r * grid_c;
  const int64_t nbt = (pm / kBitmapTileDim) * (pk / kBitmapTileDim);
  const int64_t nnz = p.Nnz();
  const int64_t n8 = PadUp(std::max<int64_t>(p.n, 1), 8) / 8;
  const int split = config_.split_k > 0 ? config_.split_k
                                        : ChooseSplitK(p.m, p.k, f, dev);

  KernelEstimate est;
  PerfCounters& c = est.counters;
  c.registers_per_thread = config_.smbd ? 104 : 178;

  // Weight traffic: Eq. 9 storage plus the expected alignment padding
  // ((align-1)/2 FP16 elements per GroupTile on average) and the two offset
  // words each block reads. The INT8 variant swaps the payload term.
  const uint64_t w_bytes =
      (config_.int8_values ? TcaBmeQuantStorageModel(p.m, p.k, nnz, f)
                           : TcaBmeStorageModel(p.m, p.k, nnz, f)) +
      static_cast<uint64_t>(ngt) * static_cast<uint64_t>(f.value_align_halves - 1);
  const uint64_t x_bytes = static_cast<uint64_t>(p.k) * static_cast<uint64_t>(p.n) * 2;
  c.dram_bytes_read = w_bytes + x_bytes + static_cast<uint64_t>(ngt) * 8;

  const uint64_t out_elems = static_cast<uint64_t>(p.m) * static_cast<uint64_t>(p.n);
  c.dram_bytes_written = out_elems * 2;
  if (split > 1) {
    c.dram_bytes_written += out_elems * 4 * static_cast<uint64_t>(split);
    c.dram_bytes_read += out_elems * 4 * static_cast<uint64_t>(split);
  }

  // Instruction mix.
  const uint64_t w_tile_bytes_total = 2ull * nnz + 8ull * nbt;
  c.ldgsts_instrs = CeilDiv(w_tile_bytes_total, kLdgstsWarpBytes) +
                    grid_r * grid_c *
                        CeilDiv(static_cast<uint64_t>(f.gt_cols) *
                                    static_cast<uint64_t>(p.n) * 2,
                                kLdgstsWarpBytes);
  c.ldg_instrs = static_cast<uint64_t>(ngt);
  const int64_t tc_rows = f.gt_rows / kTcTileDim;
  const int64_t tc_cols = f.gt_cols / kTcTileDim;
  c.ldsm_instrs = static_cast<uint64_t>(ngt) * tc_cols * tc_rows *
                  CeilDiv(static_cast<uint64_t>(n8), 2);
  c.mma_instrs = static_cast<uint64_t>(ngt) * tc_rows * tc_cols *
                 static_cast<uint64_t>(n8);
  c.flops = c.mma_instrs * 4096ull;
  c.popc_ops = static_cast<uint64_t>(nbt) * 2;
  c.alu_ops = static_cast<uint64_t>(nbt) * 8;
  c.lds_instrs = static_cast<uint64_t>(nbt) * 2;
  c.smem_bytes_written = w_tile_bytes_total +
                         static_cast<uint64_t>(ngt) *
                             static_cast<uint64_t>(f.gt_cols) *
                             static_cast<uint64_t>(p.n) * 2;

  KernelWork work;
  work.dram_bytes_read = c.dram_bytes_read;
  work.dram_bytes_written = c.dram_bytes_written;
  work.flops = c.flops;
  uint64_t decode_ops = static_cast<uint64_t>(nbt) * kDecodeOpsPerBitmapTile;
  if (!config_.smbd) {
    decode_ops *= 2;  // register staging + smem expansion + re-load
  }
  if (config_.int8_values) {
    decode_ops += decode_ops / 5;  // fused dequantization (scale multiply)
  }
  work.decode_ops = decode_ops;
  work.n = p.n;

  // Occupancy and wave effects: the memory pipeline only saturates with
  // enough resident warps per SM and enough blocks to fill the device.
  KernelTraits traits = Traits();
  const OccupancyResult occ = ComputeOccupancy(Resources(p.sparsity, p.n), dev);
  if (occ.blocks_per_sm == 0) {
    // A single block exceeds an SM's resources: the configuration cannot
    // launch. Report an effectively infinite time so tuners reject it.
    est.time.total_us = 1e18;
    return est;
  }
  // With cp.async in flight, ~8 resident warps per SM saturate the DRAM
  // pipe; below that, bandwidth degrades proportionally.
  double bw_scale = std::min(1.0, occ.warps_per_sm / 8.0);
  const double grid_blocks = static_cast<double>(grid_r) * split;
  bw_scale *= std::min(1.0, grid_blocks / (2.0 * dev.sm_count));
  traits.bw_eff *= bw_scale;

  est.time = EstimateKernelTime(traits, work, dev);
  return est;
}

}  // namespace spinfer

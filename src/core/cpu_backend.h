// Bitmap-direct CPU SpMM backend (v2: blocked, SIMD-dispatched, parallel).
//
// The warp-level functional simulator (SpInferSpmmKernel::Run) exists to
// validate the GPU algorithm bit-for-bit; it is deliberately literal and
// slow. This backend is the *production CPU path* for TCA-BME models: it
// walks each BitmapTile's 64-bit mask with count-trailing-zeros, consumes
// the compressed Values run sequentially (the same order SMBD implies), and
// FMAs whole X-row blocks — no fragment emulation. The tiny-transformer
// example and the CPU-deployment story run on this.
//
// v2 execution scheme:
//   * The FP16 activation panel is converted to FP32 once per call into a
//     reusable workspace (exact conversion, so results are unchanged).
//   * Output columns are processed in blocks of kCpuSpmmNBlock.
//   * A block at most the variant's tile width W wide (CpuSpmmTileMaxCols:
//     8 for portable and AVX2, 48 for AVX-512) — every decode batch
//     including N = 1, and the last block of a panel like N = 132 — runs one
//     row-lane tile over each TCTile half-column (16 rows, 8 columns): it is
//     decoded once, branch-free, and its output rows sit in the lanes of one
//     accumulator per column, updated only where the bitmap bit is set. The
//     block is held column-major in the workspace for the sweep; at N = 1
//     the output already is, so batch-1 decode (an SpMV) is simply this
//     path at N = 1.
//   * Wider blocks stage each interior BitmapTile row's nonzeros once and
//     replay them as one register-tiled update per 64/32/8 columns.
//   * The innermost updates are SIMD-dispatched at runtime to the widest
//     variant the CPU supports: AVX-512 (the tile, compiled separately with
//     -mavx512f -mavx512vl -mavx512bw -mavx512dq, with AVX2's RowTerm update
//     for wider blocks), AVX2 (compiled separately with -mavx2 -mfma
//     -mf16c), or portable loops. All are compiled with FP contraction off
//     and accumulate per element in the same order, so every path is
//     bit-identical — dispatch and W change speed, never results.
//   * GroupTile rows are distributed over the global ThreadPool; each task
//     owns a disjoint output-row range, so any thread count produces
//     bit-identical output.
// Determinism: for a fixed input, output bits do not depend on thread count
// or on which SIMD variant ran. tests/cpu_backend_test.cc enforces both.
#pragma once

#include "src/format/tca_bme.h"
#include "src/gpusim/perf_counters.h"
#include "src/numeric/matrix.h"
#include "src/util/aligned_buffer.h"

namespace spinfer {

// Output-column span one pass over the compressed Values stream covers.
// Decode-time N (<= 128) takes a single pass; larger N is blocked so the
// output tile a GroupTile row touches stays cache-resident.
inline constexpr int64_t kCpuSpmmNBlock = 128;

// Reusable scratch for the SpMM calls: the FP32 X panel (half->float is
// exact, so converting the panel once per call changes no result bits) and
// the column-major copy of a narrow output block (at most the variant's tile
// width W columns; see CpuSpmmTileMaxCols). Grown monotonically, never
// shrunk — a serving loop that has seen its largest shapes performs zero
// heap allocations in this path afterwards.
// Weight values are converted per TCTile half-column (or BitmapTile, in wide
// blocks) into a stack-resident staging array inside the kernel and need no
// heap scratch. Not thread-safe to share across concurrent calls; give each
// serving thread its own.
struct SpmmWorkspace {
  AlignedBuffer<float> x_panel;  // K x N fp32 activation panel
  AlignedBuffer<float> block;    // M x min(N, W) column-major output block

  int64_t grow_count() const { return x_panel.grow_count() + block.grow_count(); }
  uint64_t capacity_bytes() const {
    return (x_panel.capacity() + block.capacity()) * sizeof(float);
  }
};

// out = W * X, reshaping `out` to (w.rows(), x.cols()). All scratch comes
// from `ws`; after `out` and `ws` have seen the call's widest shape once,
// repeat calls at that width or narrower are allocation-free.
void CpuSpmmInto(const TcaBmeMatrix& w, const HalfMatrix& x, SpmmWorkspace* ws,
                 FloatMatrix* out);

// Quantize-and-run form for FP32 activations: each element of `x` is
// rounded to FP16 while the FP32 panel is built (panel = float(half(x))),
// bit-identical to converting `x` into a HalfMatrix first and calling
// CpuSpmmInto — without materializing the intermediate FP16 matrix. The
// serving decode path feeds its FP32 activations straight through this,
// removing one staging buffer and one full conversion pass per matmul.
void CpuSpmmQuantInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                      SpmmWorkspace* ws, FloatMatrix* out);

// Legacy convenience; a thin wrapper over the workspace API that pays one
// workspace allocation per call. Results are identical.
FloatMatrix CpuSpmm(const TcaBmeMatrix& w, const HalfMatrix& x);

// --- SIMD dispatch introspection (tests, benches, diagnostics) -------------

enum class CpuSpmmVariant {
  kPortable,  // auto-vectorized C++; always available
  kAvx2,      // hand-written AVX2; requires compile-time and runtime support
  kAvx512,    // the AVX-512 tile for narrow blocks, AVX2 for wide ones;
              // requires both units and AVX-512 F/VL/BW/DQ at runtime
};

// "portable", "avx2" or "avx512".
const char* CpuSpmmVariantName(CpuSpmmVariant v);

// Whether `v` can run on this build + this machine.
bool CpuSpmmVariantAvailable(CpuSpmmVariant v);

// The widest N-block `v`'s tile takes (8 for portable and AVX2, 48 for
// AVX-512); wider blocks stage RowTerms. Every width is bit-identical to
// every other, so this changes speed, never results.
int64_t CpuSpmmTileMaxCols(CpuSpmmVariant v);

// The variant CpuSpmm* dispatches to (feature detection + SPINFER_SIMD
// override, cached at first use).
CpuSpmmVariant ActiveCpuSpmmVariant();

// Accumulate-form entry with the variant pinned; CHECK-fails if `v` is
// unavailable. This is how the bit-identity tests drive both paths on one
// machine.
void CpuSpmmAccumulateIntoVariant(const TcaBmeMatrix& w, const HalfMatrix& x,
                                  SpmmWorkspace* ws, FloatMatrix* out,
                                  CpuSpmmVariant v);

}  // namespace spinfer

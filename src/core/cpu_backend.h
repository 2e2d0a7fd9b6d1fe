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
//   * Output columns are processed in blocks of kCpuSpmmNBlock; within a
//     block, each interior BitmapTile row becomes one register-tiled update
//     (accumulators stay in registers across up to 8 nonzeros).
//   * A block at most 8 columns wide — every decode batch, and the last
//     block of a panel like N = 132 — decodes each bitmap row straight into
//     one 8-lane accumulator, its lanes past the block width masked off, so
//     no width pays a separate decode pass. Wider blocks stage a row's
//     nonzeros once and replay them per register tile.
//   * The innermost row update is SIMD-dispatched at runtime: an AVX2 unit
//     (compiled separately with -mavx2 -mfma) when the CPU supports it, a
//     portable auto-vectorized loop otherwise. Both are compiled with FP
//     contraction off and accumulate per element in the same order, so the
//     two paths are bit-identical — dispatch changes speed, never results.
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
// output tile a GroupTile row touches stays cache-resident. Within a pass
// the row updates block by 32 floats (four AVX2 accumulators); the portable
// loop blocks the same way so both variants share one traversal.
inline constexpr int64_t kCpuSpmmNBlock = 128;

// Reusable scratch for the SpMM/SpMV calls: the FP32 X panel (half->float is
// exact, so converting the panel once per call changes no result bits) and
// the INT8 path's quantized activation vector (int16 codes, so the widening
// multiply-adds read them directly). Grown monotonically, never shrunk — a
// serving loop that has seen its largest shapes performs zero heap
// allocations in this path afterwards. Weight values are converted per
// BitmapTile into a stack-resident staging array inside the kernel and need
// no heap scratch. Not thread-safe to share across concurrent calls; give
// each serving thread its own.
struct SpmmWorkspace {
  AlignedBuffer<float> x_panel;     // K x N fp32 activation panel
  AlignedBuffer<int16_t> xq_panel;  // K quantized activation codes (SpMV INT8)

  int64_t grow_count() const {
    return x_panel.grow_count() + xq_panel.grow_count();
  }
  uint64_t capacity_bytes() const {
    return x_panel.capacity() * sizeof(float) +
           xq_panel.capacity() * sizeof(int16_t);
  }
};

// out = W * X, reshaping `out` to (w.rows(), x.cols()). All scratch comes
// from `ws`; after `out` and `ws` have seen the call's shapes once, repeat
// calls are allocation-free. Single-column calls (x.cols() == 1, the batch-1
// decode shape) route to the bitmap-direct SpMV kernel (src/core/cpu_spmv.h)
// transparently: it is bit-identical to the N-blocked path on that shape,
// only faster.
void CpuSpmmInto(const TcaBmeMatrix& w, const HalfMatrix& x, SpmmWorkspace* ws,
                 FloatMatrix* out);

// out += W * X (out must already have shape (w.rows(), x.cols())), for
// callers that fuse bias/residual into the output before the matmul.
void CpuSpmmAccumulateInto(const TcaBmeMatrix& w, const HalfMatrix& x,
                           SpmmWorkspace* ws, FloatMatrix* out);

// Quantize-and-run forms for FP32 activations: each element of `x` is
// rounded to FP16 while the FP32 panel is built (panel = float(half(x))),
// bit-identical to converting `x` into a HalfMatrix first and calling the
// FP16 entry points — without materializing the intermediate FP16 matrix.
// The serving decode path feeds its FP32 activations straight through these,
// removing one staging buffer and one full conversion pass per matmul.
void CpuSpmmQuantInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                      SpmmWorkspace* ws, FloatMatrix* out);
void CpuSpmmQuantAccumulateInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                                SpmmWorkspace* ws, FloatMatrix* out);

// Legacy conveniences; thin wrappers over the workspace API that pay one
// workspace allocation per call. Results are identical.
FloatMatrix CpuSpmm(const TcaBmeMatrix& w, const HalfMatrix& x);
void CpuSpmmAccumulate(const TcaBmeMatrix& w, const HalfMatrix& x, FloatMatrix* out);

// --- SIMD dispatch introspection (tests, benches, diagnostics) -------------

enum class CpuSpmmVariant {
  kPortable,  // auto-vectorized C++; always available
  kAvx2,      // hand-written AVX2; requires compile-time and runtime support
};

const char* CpuSpmmVariantName(CpuSpmmVariant v);

// Whether `v` can run on this build + this machine.
bool CpuSpmmVariantAvailable(CpuSpmmVariant v);

// The variant CpuSpmm* dispatches to (feature detection + SPINFER_SIMD
// override, cached at first use).
CpuSpmmVariant ActiveCpuSpmmVariant();

// Accumulate-form entry with the variant pinned; CHECK-fails if `v` is
// unavailable. This is how the bit-identity tests drive both paths on one
// machine. Deliberately NOT routed to SpMV at N == 1: this entry always runs
// the N-blocked tiling, which makes it the reference the SpMV differential
// tests compare against.
void CpuSpmmAccumulateIntoVariant(const TcaBmeMatrix& w, const HalfMatrix& x,
                                  SpmmWorkspace* ws, FloatMatrix* out,
                                  CpuSpmmVariant v);

}  // namespace spinfer

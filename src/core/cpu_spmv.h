// Bitmap-direct CPU SpMV: the batch-1 decode fast path.
//
// At N == 1 the N-blocked CpuSpmm register tiling degenerates — its 8-lane
// row accumulator holds a single useful lane, so the register reuse that
// amortizes each decoded weight across output columns amortizes across
// nothing. Single-stream
// decode (TinyTransformer::MixedStep, ServingEngine at batch 1) lives in
// exactly that regime, which is the low-sparsity SpMV problem MACKO and the
// block-extraction SpMV line of work target (PAPERS.md). This kernel family
// walks each GroupTile's compressed Values run once, skips empty BitmapTiles
// via the 64-bit masks, and keeps one scalar accumulator per output row; the
// AVX2 unit vectorizes *across the 8 rows of a BitmapTile* (expand the
// row-major Values run with a permutation LUT, transpose 8x8, sweep columns
// with a blend-masked mul/add), which preserves each row's scalar
// accumulation chain exactly.
//
// Contracts, matching CpuSpmm v2:
//   * Bit-identity with CpuSpmm at N = 1: same products, same per-element
//     order (ascending column within each GroupTile row sweep), separate
//     mul/add roundings (-ffp-contract=off, no FMA). The public CpuSpmm*
//     entry points route N == 1 calls here, and the batched-vs-single
//     differential tests depend on the outputs matching bitwise.
//   * Determinism: output bits do not depend on thread count (GroupTile grid
//     rows own disjoint output rows) or on which SIMD variant ran.
//   * Allocation-free when warm: all scratch lives in SpmmWorkspace, grown
//     monotonically.
//
// The INT8 entry points run over TcaBmeQuantMatrix weights with activations
// quantized per call (symmetric absmax over the vector, codes in [-127,127]
// held as int16 for widening multiply-adds). Per BitmapTile row the integer
// dot is exact in int32 and folded into the output with a single
// mul-then-add of scale * float(idot) — see cpu_spmv_inner.h for the
// accumulation-order contract.
#pragma once

#include "src/core/cpu_backend.h"
#include "src/format/tca_bme.h"
#include "src/format/tca_bme_quant.h"
#include "src/numeric/matrix.h"

namespace spinfer {

// out = W * x for a single-column x (x.cols() == 1), reshaping `out` to
// (w.rows(), 1). Bit-identical to CpuSpmmInto on the same inputs.
void CpuSpmvInto(const TcaBmeMatrix& w, const HalfMatrix& x, SpmmWorkspace* ws,
                 FloatMatrix* out);

// out += W * x (out must already have shape (w.rows(), 1)).
void CpuSpmvAccumulateInto(const TcaBmeMatrix& w, const HalfMatrix& x,
                           SpmmWorkspace* ws, FloatMatrix* out);

// FP32-activation forms: elements are rounded to FP16 while the panel is
// built, bit-identical to CpuSpmmQuant* at N = 1 (and to converting x to a
// HalfMatrix first).
void CpuSpmvQuantInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                      SpmmWorkspace* ws, FloatMatrix* out);
void CpuSpmvQuantAccumulateInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                                SpmmWorkspace* ws, FloatMatrix* out);

// INT8 weights x symmetric-absmax-quantized activations. Not bit-comparable
// to the FP16 paths (different numerics by design); bit-identical across
// SIMD variants and thread counts like everything else in this family.
void CpuSpmvInt8Into(const TcaBmeQuantMatrix& w, const FloatMatrix& x,
                     SpmmWorkspace* ws, FloatMatrix* out);
void CpuSpmvInt8AccumulateInto(const TcaBmeQuantMatrix& w, const FloatMatrix& x,
                               SpmmWorkspace* ws, FloatMatrix* out);

// Variant-pinned entries for the bit-identity tests and benches; CHECK-fail
// if `v` is unavailable (same gate as CpuSpmmVariantAvailable — the SpMV
// AVX2 unit shares the SpMM compile/runtime requirements).
void CpuSpmvAccumulateIntoVariant(const TcaBmeMatrix& w, const HalfMatrix& x,
                                  SpmmWorkspace* ws, FloatMatrix* out,
                                  CpuSpmmVariant v);
void CpuSpmvInt8AccumulateIntoVariant(const TcaBmeQuantMatrix& w,
                                      const FloatMatrix& x, SpmmWorkspace* ws,
                                      FloatMatrix* out, CpuSpmmVariant v);

}  // namespace spinfer

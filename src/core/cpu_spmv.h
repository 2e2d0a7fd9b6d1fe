// Single-column CPU SpMV: the batch-1 decode entry points.
//
// The FP16 forms are the N = 1 case of CpuSpmm* (src/core/cpu_backend.h),
// kept under their own names for callers that hold a single column. At
// N = 1 the SpMM driver's narrow-block path is exactly the bitmap-direct
// SpMV that MACKO and the block-extraction SpMV line of work target
// (PAPERS.md): it walks each GroupTile's compressed Values run once, skips
// empty BitmapTiles via their 64-bit masks, and on AVX2 vectorizes *across
// the 8 rows of a BitmapTile* (expand the row-major Values run with a
// permutation LUT, transpose 8x8, sweep columns with a blend-masked mul/add),
// which preserves each row's scalar accumulation chain exactly. Results are
// bit-identical to CpuSpmm* on the same input and to column 0 of any wider
// call, across SIMD variants and thread counts, and warm calls allocate
// nothing.
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
// (w.rows(), 1): CpuSpmmInto at N = 1.
void CpuSpmvInto(const TcaBmeMatrix& w, const HalfMatrix& x, SpmmWorkspace* ws,
                 FloatMatrix* out);

// out += W * x (out must already have shape (w.rows(), 1)):
// CpuSpmmAccumulateInto at N = 1.
void CpuSpmvAccumulateInto(const TcaBmeMatrix& w, const HalfMatrix& x,
                           SpmmWorkspace* ws, FloatMatrix* out);

// FP32-activation forms: CpuSpmmQuant* at N = 1 (elements are rounded to
// FP16 while the panel is built, bit-identical to converting x to a
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
// if `v` is unavailable (same gate as CpuSpmmVariantAvailable — the INT8
// AVX2 unit shares the SpMM compile/runtime requirements). The FP16 form is
// CpuSpmmAccumulateIntoVariant at N = 1.
void CpuSpmvAccumulateIntoVariant(const TcaBmeMatrix& w, const HalfMatrix& x,
                                  SpmmWorkspace* ws, FloatMatrix* out,
                                  CpuSpmmVariant v);
void CpuSpmvInt8AccumulateIntoVariant(const TcaBmeQuantMatrix& w,
                                      const FloatMatrix& x, SpmmWorkspace* ws,
                                      FloatMatrix* out, CpuSpmmVariant v);

}  // namespace spinfer

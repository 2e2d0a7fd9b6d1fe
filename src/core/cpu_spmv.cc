// Single-column entry points. The FP16 forms are the N = 1 case of the SpMM
// driver (src/core/cpu_backend.cc). The INT8 form has its own driver here
// (workspace, activation quantization, dispatch onto the shared row-parallel
// sweep) and portable tile walk, shared through cpu_spmv_inner.h.
//
// Compiled with -ffp-contract=off (see src/core/CMakeLists.txt): the float
// side of the INT8 update must round its multiply and add separately so
// results are bit-identical to the AVX2 unit.
#include "src/core/cpu_spmv.h"

#include <algorithm>
#include <cmath>

#include "src/core/cpu_spmv_inner.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace spinfer {
namespace {

using cpu_backend_detail::RowParallelSweep;
using cpu_spmv_detail::SpmmPhaseRecorder;

void ProcessGroupTileSpmvInt8Portable(const TcaBmeQuantMatrix& w, int64_t gt,
                                      const int16_t* xq, float x_scale,
                                      float* out, SpmmPhaseRecorder* rec) {
  const auto tile = [](uint64_t bitmap, int /*pc*/, const int8_t* codes,
                       float scale, int64_t bt_r, int64_t bt_c,
                       const int16_t* x, float* o) {
    cpu_spmv_detail::ScalarSpmvTileInt8(bitmap, codes, scale, bt_r, bt_c, x, o);
  };
  if (rec != nullptr) {
    cpu_spmv_detail::ProcessGroupTileSpmvInt8<true>(w, gt, xq, x_scale, out,
                                                    tile, rec);
  } else {
    cpu_spmv_detail::ProcessGroupTileSpmvInt8<false>(w, gt, xq, x_scale, out,
                                                     tile);
  }
}

// Decode is fused into the accumulate walk in this kernel, so each traced
// row task splits into two phases, not three.
constexpr cpu_backend_detail::SweepSpans kSpmvSpans = {
    "cpu_spmv.row_task", "cpu_spmv.convert", nullptr, "cpu_spmv.accumulate"};

using SpmvInt8KernelFn = void (*)(const TcaBmeQuantMatrix&, int64_t,
                                  const int16_t*, float, float*,
                                  SpmmPhaseRecorder*);

// The INT8 SpMV has no AVX-512 kernel: that variant runs the AVX2 one.
SpmvInt8KernelFn SpmvInt8KernelFor(CpuSpmmVariant v) {
  return v == CpuSpmmVariant::kPortable
             ? &ProcessGroupTileSpmvInt8Portable
             : &cpu_spmv_detail::ProcessGroupTileSpmvInt8Avx2;
}

void SpmvInt8AccumulateCore(const TcaBmeQuantMatrix& w, const FloatMatrix& x,
                            SpmmWorkspace* ws, FloatMatrix* out,
                            CpuSpmmVariant variant) {
  SPINFER_CHECK_EQ(w.cols(), x.rows());
  SPINFER_CHECK_EQ(x.cols(), 1);
  SPINFER_CHECK_EQ(out->rows(), w.rows());
  SPINFER_CHECK_EQ(out->cols(), 1);
  if (w.rows() == 0) {
    return;
  }
  obs::TraceScope call_scope("cpu_spmv_int8");
  if (call_scope.active()) {
    call_scope.AddArg("m", w.rows());
    call_scope.AddArg("k", w.cols());
  }

  // Symmetric absmax quantization of the activation vector, computed fresh
  // per call (decode activations change every step). Sequential scan and
  // round-to-nearest-even via lrintf: deterministic, variant-independent.
  const int64_t k = x.rows();
  ws->xq_panel.Reserve(static_cast<size_t>(k));
  int16_t* xq = ws->xq_panel.data();
  float x_scale = 1.0f;
  {
    SPINFER_TRACE_SCOPE("cpu_spmv.quantize");
    const float* src = x.data();
    float absmax = 0.0f;
    for (int64_t i = 0; i < k; ++i) {
      absmax = std::max(absmax, std::fabs(src[i]));
    }
    const float inv = absmax > 0.0f ? 127.0f / absmax : 0.0f;
    x_scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
    for (int64_t i = 0; i < k; ++i) {
      const long q = std::lrintf(src[i] * inv);
      xq[i] = static_cast<int16_t>(std::clamp(q, -127L, 127L));
    }
  }

  const SpmvInt8KernelFn kernel = SpmvInt8KernelFor(variant);
  const int64_t grid_cols = w.gt_grid_cols();
  float* out_data = out->data();
  RowParallelSweep(w.gt_grid_rows(), kSpmvSpans,
                   [&](int64_t gtr, SpmmPhaseRecorder* rec) {
                     for (int64_t gtc = 0; gtc < grid_cols; ++gtc) {
                       kernel(w, gtr * grid_cols + gtc, xq, x_scale, out_data,
                              rec);
                     }
                   });
}

}  // namespace

void CpuSpmvAccumulateInto(const TcaBmeMatrix& w, const HalfMatrix& x,
                           SpmmWorkspace* ws, FloatMatrix* out) {
  SPINFER_CHECK_EQ(x.cols(), 1);
  CpuSpmmAccumulateInto(w, x, ws, out);
}

void CpuSpmvInto(const TcaBmeMatrix& w, const HalfMatrix& x, SpmmWorkspace* ws,
                 FloatMatrix* out) {
  SPINFER_CHECK_EQ(x.cols(), 1);
  CpuSpmmInto(w, x, ws, out);
}

void CpuSpmvQuantAccumulateInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                                SpmmWorkspace* ws, FloatMatrix* out) {
  SPINFER_CHECK_EQ(x.cols(), 1);
  CpuSpmmQuantAccumulateInto(w, x, ws, out);
}

void CpuSpmvQuantInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                      SpmmWorkspace* ws, FloatMatrix* out) {
  SPINFER_CHECK_EQ(x.cols(), 1);
  CpuSpmmQuantInto(w, x, ws, out);
}

void CpuSpmvInt8AccumulateInto(const TcaBmeQuantMatrix& w, const FloatMatrix& x,
                               SpmmWorkspace* ws, FloatMatrix* out) {
  SpmvInt8AccumulateCore(w, x, ws, out, ActiveCpuSpmmVariant());
}

void CpuSpmvInt8Into(const TcaBmeQuantMatrix& w, const FloatMatrix& x,
                     SpmmWorkspace* ws, FloatMatrix* out) {
  SPINFER_CHECK_EQ(w.cols(), x.rows());
  SPINFER_CHECK_EQ(x.cols(), 1);
  out->Reshape(w.rows(), 1);
  out->Fill(0.0f);
  CpuSpmvInt8AccumulateInto(w, x, ws, out);
}

void CpuSpmvAccumulateIntoVariant(const TcaBmeMatrix& w, const HalfMatrix& x,
                                  SpmmWorkspace* ws, FloatMatrix* out,
                                  CpuSpmmVariant v) {
  SPINFER_CHECK_EQ(x.cols(), 1);
  CpuSpmmAccumulateIntoVariant(w, x, ws, out, v);
}

void CpuSpmvInt8AccumulateIntoVariant(const TcaBmeQuantMatrix& w,
                                      const FloatMatrix& x, SpmmWorkspace* ws,
                                      FloatMatrix* out, CpuSpmmVariant v) {
  SPINFER_CHECK_MSG(CpuSpmmVariantAvailable(v),
                    "requested CPU SpMV variant is unavailable on this machine");
  SpmvInt8AccumulateCore(w, x, ws, out, v);
}

}  // namespace spinfer

// Portable half of the SpMV fast path: drivers (workspace, activation
// quantization, dispatch onto the shared row-parallel sweep) plus the scalar
// tile walk shared through cpu_spmv_inner.h.
//
// Compiled with -ffp-contract=off (see src/core/CMakeLists.txt): every
// multiply and add must round separately so results are bit-identical to the
// AVX2 unit and to CpuSpmm at N = 1.
#include "src/core/cpu_spmv.h"

#include <algorithm>
#include <cmath>

#include "src/core/cpu_spmv_inner.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/cpu_features.h"

namespace spinfer {
namespace {

using cpu_backend_detail::RowParallelSweep;
using cpu_spmv_detail::SpmmPhaseRecorder;

struct PortableConvert {
  void operator()(const Half* src, float* dst, size_t count) const {
    for (size_t i = 0; i < count; ++i) {
      dst[i] = src[i].ToFloat();
    }
  }
};

void ProcessGroupTileSpmvPortable(const TcaBmeMatrix& w, int64_t gt,
                                  const float* xf, float* out,
                                  SpmmPhaseRecorder* rec) {
  const auto tile = [](uint64_t bitmap, int /*pc*/, const float* vals,
                       int64_t bt_r, int64_t bt_c, const float* x, float* o) {
    cpu_spmv_detail::ScalarSpmvTile(bitmap, vals, bt_r, bt_c, x, o);
  };
  if (rec != nullptr) {
    cpu_spmv_detail::ProcessGroupTileSpmv<true>(w, gt, xf, out, tile,
                                                PortableConvert{}, rec);
  } else {
    cpu_spmv_detail::ProcessGroupTileSpmv<false>(w, gt, xf, out, tile,
                                                 PortableConvert{});
  }
}

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

// Decode is fused into the accumulate walk in these kernels, so each traced
// row task splits into two phases, not three.
constexpr cpu_backend_detail::SweepSpans kSpmvSpans = {
    "cpu_spmv.row_task", "cpu_spmv.convert", nullptr, "cpu_spmv.accumulate"};

using SpmvKernelFn = void (*)(const TcaBmeMatrix&, int64_t, const float*,
                              float*, SpmmPhaseRecorder*);
using SpmvInt8KernelFn = void (*)(const TcaBmeQuantMatrix&, int64_t,
                                  const int16_t*, float, float*,
                                  SpmmPhaseRecorder*);

SpmvKernelFn SpmvKernelFor(CpuSpmmVariant v) {
  return v == CpuSpmmVariant::kAvx2 ? &cpu_spmv_detail::ProcessGroupTileSpmvAvx2
                                    : &ProcessGroupTileSpmvPortable;
}

SpmvInt8KernelFn SpmvInt8KernelFor(CpuSpmmVariant v) {
  return v == CpuSpmmVariant::kAvx2
             ? &cpu_spmv_detail::ProcessGroupTileSpmvInt8Avx2
             : &ProcessGroupTileSpmvInt8Portable;
}

// Shared FP16 accumulate core: fills the single-column FP32 panel (the only
// thing the FP16 and quantize-FP32 entries differ in), then sweeps the grid.
// The panel reservation (w.cols() floats) is a subset of what any prior SpMM
// call on the same workspace reserved, so a serving loop warmed on prefill
// shapes stays allocation-free here.
template <typename FillPanel>
void SpmvAccumulateCore(const TcaBmeMatrix& w, int64_t x_rows,
                        const FillPanel& fill_panel, SpmmWorkspace* ws,
                        FloatMatrix* out, CpuSpmmVariant variant) {
  SPINFER_CHECK_EQ(w.cols(), x_rows);
  SPINFER_CHECK_EQ(out->rows(), w.rows());
  SPINFER_CHECK_EQ(out->cols(), 1);
  if (w.rows() == 0) {
    return;
  }
  obs::TraceScope call_scope("cpu_spmv");
  if (call_scope.active()) {
    call_scope.AddArg("m", w.rows());
    call_scope.AddArg("k", w.cols());
  }

  ws->x_panel.Reserve(static_cast<size_t>(x_rows));
  float* xf = ws->x_panel.data();
  {
    SPINFER_TRACE_SCOPE("cpu_spmv.convert");
    fill_panel(xf);
  }

  const SpmvKernelFn kernel = SpmvKernelFor(variant);
  const int64_t grid_cols = w.gt_grid_cols();
  float* out_data = out->data();
  RowParallelSweep(w.gt_grid_rows(), kSpmvSpans,
                   [&](int64_t gtr, SpmmPhaseRecorder* rec) {
                     for (int64_t gtc = 0; gtc < grid_cols; ++gtc) {
                       kernel(w, gtr * grid_cols + gtc, xf, out_data, rec);
                     }
                   });
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

void FillPanelFromHalf(const HalfMatrix& x, float* xf) {
  const Half* src = x.data();
  const int64_t size = x.size();
  for (int64_t i = 0; i < size; ++i) {
    xf[i] = src[i].ToFloat();
  }
}

// FP32 input: quantize to FP16 on the fly, panel = float(half(x)) — the same
// bits CpuSpmmQuant* stages, so the two entry families stay interchangeable.
void FillPanelFromFloat(const FloatMatrix& x, float* xf) {
  const float* src = x.data();
  const int64_t size = x.size();
  for (int64_t i = 0; i < size; ++i) {
    xf[i] = Half(src[i]).ToFloat();
  }
}

}  // namespace

void CpuSpmvAccumulateInto(const TcaBmeMatrix& w, const HalfMatrix& x,
                           SpmmWorkspace* ws, FloatMatrix* out) {
  SPINFER_CHECK_EQ(x.cols(), 1);
  SpmvAccumulateCore(
      w, x.rows(), [&](float* xf) { FillPanelFromHalf(x, xf); }, ws, out,
      ActiveCpuSpmmVariant());
}

void CpuSpmvInto(const TcaBmeMatrix& w, const HalfMatrix& x, SpmmWorkspace* ws,
                 FloatMatrix* out) {
  SPINFER_CHECK_EQ(w.cols(), x.rows());
  SPINFER_CHECK_EQ(x.cols(), 1);
  out->Reshape(w.rows(), 1);
  out->Fill(0.0f);
  CpuSpmvAccumulateInto(w, x, ws, out);
}

void CpuSpmvQuantAccumulateInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                                SpmmWorkspace* ws, FloatMatrix* out) {
  SPINFER_CHECK_EQ(x.cols(), 1);
  SpmvAccumulateCore(
      w, x.rows(), [&](float* xf) { FillPanelFromFloat(x, xf); }, ws, out,
      ActiveCpuSpmmVariant());
}

void CpuSpmvQuantInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                      SpmmWorkspace* ws, FloatMatrix* out) {
  SPINFER_CHECK_EQ(w.cols(), x.rows());
  SPINFER_CHECK_EQ(x.cols(), 1);
  out->Reshape(w.rows(), 1);
  out->Fill(0.0f);
  CpuSpmvQuantAccumulateInto(w, x, ws, out);
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
  SPINFER_CHECK_MSG(CpuSpmmVariantAvailable(v),
                    "requested CPU SpMV variant is unavailable on this machine");
  SPINFER_CHECK_EQ(x.cols(), 1);
  SpmvAccumulateCore(
      w, x.rows(), [&](float* xf) { FillPanelFromHalf(x, xf); }, ws, out, v);
}

void CpuSpmvInt8AccumulateIntoVariant(const TcaBmeQuantMatrix& w,
                                      const FloatMatrix& x, SpmmWorkspace* ws,
                                      FloatMatrix* out, CpuSpmmVariant v) {
  SPINFER_CHECK_MSG(CpuSpmmVariantAvailable(v),
                    "requested CPU SpMV variant is unavailable on this machine");
  SpmvInt8AccumulateCore(w, x, ws, out, v);
}

}  // namespace spinfer

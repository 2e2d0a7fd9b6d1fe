// Portable half of the v2 backend: the driver (workspace, N-blocking,
// GroupTile-row parallelism, dispatch) plus the auto-vectorizing row update.
//
// Compiled with -ffp-contract=off (see src/core/CMakeLists.txt): the row
// update must round every multiply and every add separately so its results
// are bit-identical to the AVX2 unit, which uses explicit mul/add intrinsics.
#include "src/core/cpu_backend.h"

#include <algorithm>

#include "src/core/cpu_backend_inner.h"
#include "src/core/cpu_spmv.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/cpu_features.h"
#include "src/util/thread_pool.h"

namespace spinfer {

namespace cpu_backend_detail {

// Out-of-line (this TU is built without ISA-specific flags) so every SIMD
// variant shares one clean copy; see the declaration for why.
uint64_t SpmmPhaseRecorder::Now() const { return obs::Tracer::Global().NowNs(); }

void RowParallelSweep(int64_t grid_rows, const SweepSpans& spans, RowBodyRef row) {
  // Null when tracing is off. The closure holds two pointers, which fit in
  // std::function's inline buffer, so this ParallelFor allocates nothing.
  const SweepSpans* traced = obs::TracingEnabled() ? &spans : nullptr;
  ParallelFor(0, grid_rows, [&row, traced](int64_t gtr) {
    if (traced == nullptr) {
      row(gtr, nullptr);
      return;
    }
    SpmmPhaseRecorder rec;
    obs::Tracer& tracer = obs::Tracer::Global();
    const uint64_t task_start = tracer.NowNs();
    row(gtr, &rec);
    const uint64_t task_end = tracer.NowNs();
    obs::TraceArg task_args[3] = {{"gt_row", gtr},
                                  {"tiles", static_cast<int64_t>(rec.tiles)},
                                  {"nnz", static_cast<int64_t>(rec.nnz)}};
    tracer.Record(traced->row_task, task_start, task_end - task_start,
                  task_args, 3);
    uint64_t slice_start = task_start;
    tracer.Record(traced->convert, slice_start, rec.convert_ns);
    slice_start += rec.convert_ns;
    if (traced->decode != nullptr) {
      tracer.Record(traced->decode, slice_start, rec.decode_ns);
      slice_start += rec.decode_ns;
    }
    tracer.Record(traced->accumulate, slice_start, rec.accumulate_ns);
  });
}

}  // namespace cpu_backend_detail

namespace {

using cpu_backend_detail::ProcessGroupTile;
using cpu_backend_detail::RowTerm;

// Portable register-tiled row update. The fixed-size inner loops (8 floats =
// one or two vector registers on any target) auto-vectorize at -O2/-O3; the
// t-loop keeps the accumulators live across the row's nonzeros.
struct PortableRowFma {
  // The baseline ISA has no masked load, so lanes past nb are skipped by a
  // per-lane guard instead. A whole block (kWhole) drops the guard and
  // vectorizes; a narrower one runs as guarded scalar lanes, which keeps the
  // accumulators in registers where a variable-length loop would not.
  template <bool kWhole>
  static void Row8Lanes(float* orow, uint64_t rowmask, const float* vals,
                        const float* xcol0, int64_t n, int64_t nb) {
    float acc[8] = {};
    for (int u = 0; u < 8; ++u) {
      if (kWhole || u < nb) {
        acc[u] = orow[u];
      }
    }
    int t = 0;
    while (rowmask != 0) {
      const int cc = std::countr_zero(rowmask);
      rowmask &= rowmask - 1;
      const float v = vals[t++];
      const float* xr = xcol0 + cc * n;
      for (int u = 0; u < 8; ++u) {
        if (kWhole || u < nb) {
          acc[u] += v * xr[u];
        }
      }
    }
    for (int u = 0; u < 8; ++u) {
      if (kWhole || u < nb) {
        orow[u] = acc[u];
      }
    }
  }

  void Row8(float* orow, uint64_t rowmask, const float* vals,
            const float* xcol0, int64_t n, int64_t nb) const {
    if (nb == 8) {
      Row8Lanes<true>(orow, rowmask, vals, xcol0, n, nb);
    } else {
      Row8Lanes<false>(orow, rowmask, vals, xcol0, n, nb);
    }
  }

  void operator()(float* orow, const RowTerm* terms, int count, int64_t nb) const {
    int64_t j = 0;
    for (; j + 8 <= nb; j += 8) {
      float acc[8];
      for (int u = 0; u < 8; ++u) {
        acc[u] = orow[j + u];
      }
      for (int t = 0; t < count; ++t) {
        const float v = terms[t].v;
        const float* xr = terms[t].xrow + j;
        for (int u = 0; u < 8; ++u) {
          acc[u] += v * xr[u];
        }
      }
      for (int u = 0; u < 8; ++u) {
        orow[j + u] = acc[u];
      }
    }
    for (; j < nb; ++j) {
      float acc = orow[j];
      for (int t = 0; t < count; ++t) {
        acc += terms[t].v * terms[t].xrow[j];
      }
      orow[j] = acc;
    }
  }
};

// LUT-based batch conversion for the portable variant; exact, so it matches
// the AVX2 unit's vcvtph2ps bit for bit.
struct PortableConvert {
  void operator()(const Half* src, float* dst, size_t count) const {
    for (size_t i = 0; i < count; ++i) {
      dst[i] = src[i].ToFloat();
    }
  }
};

void ProcessGroupTilePortable(const TcaBmeMatrix& w, int64_t gt, const float* xf,
                              int64_t n, int64_t j0, int64_t nb, float* out,
                              cpu_backend_detail::SpmmPhaseRecorder* rec) {
  if (rec != nullptr) {
    ProcessGroupTile<true>(w, gt, xf, n, j0, nb, out, PortableRowFma{},
                           PortableConvert{}, rec);
  } else {
    ProcessGroupTile<false>(w, gt, xf, n, j0, nb, out, PortableRowFma{},
                            PortableConvert{});
  }
}

using GroupTileFn = void (*)(const TcaBmeMatrix&, int64_t, const float*, int64_t,
                             int64_t, int64_t, float*,
                             cpu_backend_detail::SpmmPhaseRecorder*);

GroupTileFn KernelFor(CpuSpmmVariant v) {
  return v == CpuSpmmVariant::kAvx2 ? &cpu_backend_detail::ProcessGroupTileAvx2
                                    : &ProcessGroupTilePortable;
}

constexpr cpu_backend_detail::SweepSpans kSpmmSpans = {
    "cpu_spmm.row_task", "cpu_spmm.convert", "cpu_spmm.decode",
    "cpu_spmm.accumulate"};

// Shared accumulate core: fills the FP32 X panel once (`fill_panel` is the
// only thing the FP16 and quantize-FP32 entry points differ in), then sweeps
// N blocks x GroupTile columns inside the row-parallel sweep. The
// per-element accumulation order (N-block, then GroupTile column, then
// storage bit order) is fixed regardless of thread count.
template <typename FillPanel>
void AccumulateCore(const TcaBmeMatrix& w, int64_t x_rows, int64_t n,
                    const FillPanel& fill_panel, SpmmWorkspace* ws,
                    FloatMatrix* out, CpuSpmmVariant variant) {
  SPINFER_CHECK_EQ(w.cols(), x_rows);
  SPINFER_CHECK_EQ(out->rows(), w.rows());
  SPINFER_CHECK_EQ(out->cols(), n);
  if (n == 0 || w.rows() == 0) {
    return;
  }
  obs::TraceScope call_scope("cpu_spmm");
  if (call_scope.active()) {
    call_scope.AddArg("m", w.rows());
    call_scope.AddArg("k", w.cols());
    call_scope.AddArg("n", n);
  }

  ws->x_panel.Reserve(static_cast<size_t>(x_rows * n));
  float* xf = ws->x_panel.data();
  {
    // Named like the per-tile value staging so trace_report aggregates the
    // whole half->float phase under one row.
    SPINFER_TRACE_SCOPE("cpu_spmm.convert");
    fill_panel(xf);
  }

  const GroupTileFn kernel = KernelFor(variant);
  const int64_t grid_cols = w.gt_grid_cols();
  float* out_data = out->data();
  cpu_backend_detail::RowParallelSweep(
      w.gt_grid_rows(), kSpmmSpans,
      [&](int64_t gtr, cpu_backend_detail::SpmmPhaseRecorder* rec) {
        for (int64_t j0 = 0; j0 < n; j0 += kCpuSpmmNBlock) {
          const int64_t nb = std::min(kCpuSpmmNBlock, n - j0);
          for (int64_t gtc = 0; gtc < grid_cols; ++gtc) {
            kernel(w, gtr * grid_cols + gtc, xf, n, j0, nb, out_data, rec);
          }
        }
      });
}

void AccumulateImpl(const TcaBmeMatrix& w, const HalfMatrix& x, SpmmWorkspace* ws,
                    FloatMatrix* out, CpuSpmmVariant variant) {
  AccumulateCore(
      w, x.rows(), x.cols(), [&](float* xf) { ToFloatInto(x, xf); }, ws, out,
      variant);
}

// FP32 input: quantize to FP16 on the fly while filling the panel. The panel
// bits equal float(Half(x[i])) — exactly what ToFloatInto produces from a
// pre-converted HalfMatrix — so the two entry families are bit-identical.
void QuantAccumulateImpl(const TcaBmeMatrix& w, const FloatMatrix& x,
                         SpmmWorkspace* ws, FloatMatrix* out,
                         CpuSpmmVariant variant) {
  AccumulateCore(
      w, x.rows(), x.cols(),
      [&](float* xf) {
        const float* src = x.data();
        const int64_t size = x.size();
        for (int64_t i = 0; i < size; ++i) {
          xf[i] = Half(src[i]).ToFloat();
        }
      },
      ws, out, variant);
}

}  // namespace

const char* CpuSpmmVariantName(CpuSpmmVariant v) {
  return v == CpuSpmmVariant::kAvx2 ? "avx2" : "portable";
}

bool CpuSpmmVariantAvailable(CpuSpmmVariant v) {
  if (v == CpuSpmmVariant::kPortable) {
    return true;
  }
  const CpuFeatures& f = GetCpuFeatures();
  return cpu_backend_detail::CpuSpmmAvx2Compiled() && f.avx2 && f.fma && f.f16c;
}

CpuSpmmVariant ActiveCpuSpmmVariant() {
  static const CpuSpmmVariant active = [] {
    if (ActiveSimdLevel() == SimdLevel::kAvx2 &&
        CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx2)) {
      return CpuSpmmVariant::kAvx2;
    }
    return CpuSpmmVariant::kPortable;
  }();
  return active;
}

void CpuSpmmAccumulateIntoVariant(const TcaBmeMatrix& w, const HalfMatrix& x,
                                  SpmmWorkspace* ws, FloatMatrix* out,
                                  CpuSpmmVariant v) {
  SPINFER_CHECK_MSG(CpuSpmmVariantAvailable(v),
                    "requested CPU SpMM variant is unavailable on this machine");
  AccumulateImpl(w, x, ws, out, v);
}

// Single-column calls (the batch-1 decode shape) route to the bitmap-direct
// SpMV kernel: bit-identical on that shape by the shared-chain contract
// (tests/cpu_spmv_test.cc drives both against each other), only faster. The
// variant-pinned entry above stays unrouted on purpose — it is the N-blocked
// reference those differential tests need.
void CpuSpmmAccumulateInto(const TcaBmeMatrix& w, const HalfMatrix& x,
                           SpmmWorkspace* ws, FloatMatrix* out) {
  if (x.cols() == 1) {
    CpuSpmvAccumulateInto(w, x, ws, out);
    return;
  }
  AccumulateImpl(w, x, ws, out, ActiveCpuSpmmVariant());
}

void CpuSpmmInto(const TcaBmeMatrix& w, const HalfMatrix& x, SpmmWorkspace* ws,
                 FloatMatrix* out) {
  SPINFER_CHECK_EQ(w.cols(), x.rows());
  out->Reshape(w.rows(), x.cols());
  out->Fill(0.0f);
  if (x.cols() == 1) {
    CpuSpmvAccumulateInto(w, x, ws, out);
    return;
  }
  AccumulateImpl(w, x, ws, out, ActiveCpuSpmmVariant());
}

void CpuSpmmQuantAccumulateInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                                SpmmWorkspace* ws, FloatMatrix* out) {
  if (x.cols() == 1) {
    CpuSpmvQuantAccumulateInto(w, x, ws, out);
    return;
  }
  QuantAccumulateImpl(w, x, ws, out, ActiveCpuSpmmVariant());
}

void CpuSpmmQuantInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                      SpmmWorkspace* ws, FloatMatrix* out) {
  SPINFER_CHECK_EQ(w.cols(), x.rows());
  out->Reshape(w.rows(), x.cols());
  out->Fill(0.0f);
  if (x.cols() == 1) {
    CpuSpmvQuantAccumulateInto(w, x, ws, out);
    return;
  }
  QuantAccumulateImpl(w, x, ws, out, ActiveCpuSpmmVariant());
}

FloatMatrix CpuSpmm(const TcaBmeMatrix& w, const HalfMatrix& x) {
  FloatMatrix out;
  SpmmWorkspace ws;
  CpuSpmmInto(w, x, &ws, &out);
  return out;
}

void CpuSpmmAccumulate(const TcaBmeMatrix& w, const HalfMatrix& x, FloatMatrix* out) {
  SpmmWorkspace ws;
  CpuSpmmAccumulateInto(w, x, &ws, out);
}

}  // namespace spinfer

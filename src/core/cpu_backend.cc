// Portable half of the v2 backend: the driver (workspace, N-blocking, the
// narrow-block layout, GroupTile-row parallelism, dispatch) plus the portable
// block tile and auto-vectorizing row update.
//
// Compiled with -ffp-contract=off (see src/core/CMakeLists.txt): the updates
// must round every multiply and every add separately so their results are
// bit-identical to the AVX2 unit, which uses explicit mul/add intrinsics.
#include "src/core/cpu_backend.h"

#include <algorithm>

#include "src/core/cpu_backend_inner.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/cpu_features.h"
#include "src/util/thread_pool.h"

namespace spinfer {

namespace cpu_backend_detail {

// Out-of-line (this TU is built without ISA-specific flags) so every SIMD
// variant shares one clean copy; see the declaration for why.
uint64_t SpmmPhaseRecorder::Now() const { return obs::Tracer::Global().NowNs(); }

void RowParallelSweep(int64_t grid_rows, const SweepSpans& spans,
                      FunctionRef<void(int64_t, SpmmPhaseRecorder*)> row) {
  // Null when tracing is off.
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

using cpu_backend_detail::kBlockTileMaxCols;
using cpu_backend_detail::ProcessGroupTile;
using cpu_backend_detail::RowTerm;

// Portable block tile: one bitmap row at a time, its nonzeros walked in bit
// order into per-column accumulators read and written at the block's column
// stride. The baseline ISA has neither a masked load nor a cheap blend, so
// the AVX2 unit's expand-and-sweep would not pay here. kWidth 1 (a one-lane
// walk, the N = 1 decode shape) and 8 (a whole block, which vectorizes) fix
// the width at compile time; kWidth 0 guards each of the 8 lanes by nb, which
// keeps the accumulators in registers where a variable-length loop would
// not.
template <int kWidth>
void PortableTileRows(uint64_t bitmap, const float* vals, int64_t bt_r,
                      const float* xt, int64_t n, int64_t nb, float* blk,
                      int64_t ldb) {
  constexpr int kLanes = kWidth == 1 ? 1 : 8;
  int t = 0;
  for (int rr = 0; rr < kBitmapTileDim; ++rr) {
    uint64_t rowmask = (bitmap >> (rr * kBitmapTileDim)) & 0xFFull;
    if (rowmask == 0) {
      continue;
    }
    float* o = blk + bt_r + rr;
    float acc[kLanes] = {};
    for (int u = 0; u < kLanes; ++u) {
      if (kWidth != 0 || u < nb) {
        acc[u] = o[u * ldb];
      }
    }
    while (rowmask != 0) {
      const int cc = std::countr_zero(rowmask);
      rowmask &= rowmask - 1;
      const float v = vals[t++];
      const float* xr = xt + cc * n;
      for (int u = 0; u < kLanes; ++u) {
        if (kWidth != 0 || u < nb) {
          acc[u] += v * xr[u];
        }
      }
    }
    for (int u = 0; u < kLanes; ++u) {
      if (kWidth != 0 || u < nb) {
        o[u * ldb] = acc[u];
      }
    }
  }
}

struct PortableBlockTile {
  void operator()(uint64_t bitmap, const float* vals, int64_t bt_r,
                  int64_t bt_c, const float* xf, int64_t n, int64_t j0,
                  int64_t nb, float* blk, int64_t ldb) const {
    const float* xt = xf + bt_c * n + j0;
    if (nb == 1) {
      PortableTileRows<1>(bitmap, vals, bt_r, xt, n, nb, blk, ldb);
    } else if (nb == kBlockTileMaxCols) {
      PortableTileRows<8>(bitmap, vals, bt_r, xt, n, nb, blk, ldb);
    } else {
      PortableTileRows<0>(bitmap, vals, bt_r, xt, n, nb, blk, ldb);
    }
  }
};

// Portable register-tiled row update for blocks wider than 8. The fixed-size
// inner loops (8 floats = one or two vector registers on any target)
// auto-vectorize at -O2/-O3; the t-loop keeps the accumulators live across
// the row's nonzeros.
struct PortableRowFma {
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
                              int64_t ldo,
                              cpu_backend_detail::SpmmPhaseRecorder* rec) {
  if (rec != nullptr) {
    ProcessGroupTile<true>(w, gt, xf, n, j0, nb, out, ldo, PortableBlockTile{},
                           PortableRowFma{}, PortableConvert{}, rec);
  } else {
    ProcessGroupTile<false>(w, gt, xf, n, j0, nb, out, ldo, PortableBlockTile{},
                            PortableRowFma{}, PortableConvert{});
  }
}

using GroupTileFn = void (*)(const TcaBmeMatrix&, int64_t, const float*, int64_t,
                             int64_t, int64_t, float*, int64_t,
                             cpu_backend_detail::SpmmPhaseRecorder*);

GroupTileFn KernelFor(CpuSpmmVariant v) {
  return v == CpuSpmmVariant::kAvx2 ? &cpu_backend_detail::ProcessGroupTileAvx2
                                    : &ProcessGroupTilePortable;
}

constexpr cpu_backend_detail::SweepSpans kSpmmSpans = {
    "cpu_spmm.row_task", "cpu_spmm.convert", "cpu_spmm.decode",
    "cpu_spmm.accumulate"};

// Copies rows [r0, r1) of output columns [j0, j0+nb) from the row-major
// output (row stride n) into the column-major block (column stride ldb), or
// back when `to_block` is false.
void CopyBlockRows(float* out, int64_t n, int64_t j0, int64_t nb, float* blk,
                   int64_t ldb, int64_t r0, int64_t r1, bool to_block) {
  for (int64_t j = 0; j < nb; ++j) {
    float* col = blk + j * ldb;
    for (int64_t r = r0; r < r1; ++r) {
      float& o = out[r * n + j0 + j];
      if (to_block) {
        col[r] = o;
      } else {
        o = col[r];
      }
    }
  }
}

// Shared accumulate core: fills the FP32 X panel once (`fill_panel` is the
// only thing the FP16 and quantize-FP32 entry points differ in), then sweeps
// N blocks x GroupTile columns inside the row-parallel sweep. The
// per-element accumulation order (N-block, then GroupTile column, then
// storage bit order) is fixed regardless of thread count.
//
// A block at most kBlockTileMaxCols wide runs the block tile on a
// column-major copy of its columns: each grid row copies its own rows of the
// block into the workspace, sweeps them and copies them back, so the layout
// change costs one pass per call instead of a transpose per tile. At N = 1
// the output already has that layout and is swept in place: the FP16 SpMV
// is this driver's N = 1 case.
template <typename FillPanel>
void AccumulateCore(const TcaBmeMatrix& w, int64_t x_rows, int64_t n,
                    const FillPanel& fill_panel, SpmmWorkspace* ws,
                    FloatMatrix* out, CpuSpmmVariant variant) {
  SPINFER_CHECK_EQ(w.cols(), x_rows);
  SPINFER_CHECK_EQ(out->rows(), w.rows());
  SPINFER_CHECK_EQ(out->cols(), n);
  const int64_t m = w.rows();
  if (n == 0 || m == 0) {
    return;
  }
  obs::TraceScope call_scope("cpu_spmm");
  if (call_scope.active()) {
    call_scope.AddArg("m", m);
    call_scope.AddArg("k", w.cols());
    call_scope.AddArg("n", n);
  }

  ws->x_panel.Reserve(static_cast<size_t>(x_rows * n));
  // Reserved on every call, narrow or not, so a workspace warmed on its
  // widest shape never grows on the decode widths that follow.
  ws->block.Reserve(static_cast<size_t>(m * std::min(n, kBlockTileMaxCols)));
  float* xf = ws->x_panel.data();
  {
    // Named like the per-tile value staging so trace_report aggregates the
    // whole half->float phase under one row.
    SPINFER_TRACE_SCOPE("cpu_spmm.convert");
    fill_panel(xf);
  }

  const GroupTileFn kernel = KernelFor(variant);
  const int64_t grid_cols = w.gt_grid_cols();
  const int64_t gt_rows = w.config().gt_rows;
  float* out_data = out->data();
  float* blk = n == 1 ? out_data : ws->block.data();
  cpu_backend_detail::RowParallelSweep(
      w.gt_grid_rows(), kSpmmSpans,
      [&](int64_t gtr, cpu_backend_detail::SpmmPhaseRecorder* rec) {
        const int64_t r0 = gtr * gt_rows;
        const int64_t r1 = std::min(m, r0 + gt_rows);
        for (int64_t j0 = 0; j0 < n; j0 += kCpuSpmmNBlock) {
          const int64_t nb = std::min(kCpuSpmmNBlock, n - j0);
          const bool narrow = nb <= kBlockTileMaxCols;
          float* dst = narrow ? blk : out_data;
          const int64_t ldo = narrow ? m : n;
          if (dst != out_data) {
            CopyBlockRows(out_data, n, j0, nb, blk, m, r0, r1, true);
          }
          for (int64_t gtc = 0; gtc < grid_cols; ++gtc) {
            kernel(w, gtr * grid_cols + gtc, xf, n, j0, nb, dst, ldo, rec);
          }
          if (dst != out_data) {
            CopyBlockRows(out_data, n, j0, nb, blk, m, r0, r1, false);
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

void CpuSpmmAccumulateInto(const TcaBmeMatrix& w, const HalfMatrix& x,
                           SpmmWorkspace* ws, FloatMatrix* out) {
  AccumulateImpl(w, x, ws, out, ActiveCpuSpmmVariant());
}

void CpuSpmmInto(const TcaBmeMatrix& w, const HalfMatrix& x, SpmmWorkspace* ws,
                 FloatMatrix* out) {
  SPINFER_CHECK_EQ(w.cols(), x.rows());
  out->Reshape(w.rows(), x.cols());
  out->Fill(0.0f);
  AccumulateImpl(w, x, ws, out, ActiveCpuSpmmVariant());
}

void CpuSpmmQuantAccumulateInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                                SpmmWorkspace* ws, FloatMatrix* out) {
  QuantAccumulateImpl(w, x, ws, out, ActiveCpuSpmmVariant());
}

void CpuSpmmQuantInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                      SpmmWorkspace* ws, FloatMatrix* out) {
  SPINFER_CHECK_EQ(w.cols(), x.rows());
  out->Reshape(w.rows(), x.cols());
  out->Fill(0.0f);
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

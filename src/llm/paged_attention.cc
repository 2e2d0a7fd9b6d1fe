// Portable half of the batched paged-attention kernel: the batch entry
// (validation, page-table resolution, the work grid, scratch growth,
// ThreadPool fan-out, SIMD dispatch, tracing), the two task bodies, the
// portable kernels, the shared exponential and the retained reference.
//
// Compiled with -ffp-contract=off (see src/llm/CMakeLists.txt): every
// multiply and add must round separately so results are bit-identical to the
// AVX2 unit and to the reference.
#include "src/llm/paged_attention.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/llm/paged_attention_inner.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/cpu_features.h"
#include "src/util/thread_pool.h"

namespace spinfer {

float SoftmaxExp(float x) {
  using namespace paged_attention_detail;
  // The clamps are written as the selections the AVX2 unit's min/max
  // instructions make, so NaN flows through both units the same way.
  float v = (0.0f < x) ? 0.0f : x;
  v = (kExpLo > v) ? kExpLo : v;
  // n = round(v / ln2) lands in kr's low mantissa bits; r = v - n ln2 in two
  // steps (n * kExpLn2Hi is exact).
  const float kr = v * kExpLog2e + kExpRoundMagic;
  const float n = kr - kExpRoundMagic;
  float r = v - n * kExpLn2Hi;
  r = r - n * kExpLn2Lo;
  const float z = r * r;
  float y = kExpP0;
  y = y * r + kExpP1;
  y = y * r + kExpP2;
  y = y * r + kExpP3;
  y = y * r + kExpP4;
  y = y * r + kExpP5;
  y = y * z;
  y = y + r;
  y = y + 1.0f;
  // 2^n as a float: (n + 127) << 23, with n in [-126, 0] read from kr's
  // low bits (the higher bits shift out).
  uint32_t bits = 0;
  std::memcpy(&bits, &kr, sizeof(bits));
  bits = (bits + 127u) << 23;
  float pow2n = 0.0f;
  std::memcpy(&pow2n, &bits, sizeof(pow2n));
  const float e = y * pow2n;
  return x < kExpLo ? 0.0f : e;
}

namespace paged_attention_detail {
namespace {

constexpr int kL = kTileLanes;

// The portable kernels: the reference's scalar chains, written so the
// baseline-ISA compiler can auto-vectorize the independent-chain loops (QK
// across keys, PV across rows — exact) but not a dot product (a reduction;
// reordering it would change bits, and without -ffast-math the compiler
// must not). They widen through the Half table, and a tile runs them once
// per query.

// One query (dimension r at q[r * q_stride]) against a block's keys:
// scores[t] is key t's chain, ascending r from +0.0f.
void QkBlockQuery(const float* q, int64_t q_stride, const Half* khead,
                  int64_t rows, int64_t bt, int64_t hd, float inv_sqrt_d,
                  float* scores) {
  std::fill(scores, scores + rows, 0.0f);
  for (int64_t r = 0; r < hd; ++r) {
    const float qr = q[r * q_stride];
    const Half* krow = khead + r * bt;
    for (int64_t t = 0; t < rows; ++t) {
      scores[t] += qr * krow[t].ToFloat();
    }
  }
  for (int64_t t = 0; t < rows; ++t) {
    scores[t] *= inv_sqrt_d;
  }
}

void QkBlock(const float* qh, const Half* khead, int64_t rows, int64_t bt,
             int64_t hd, float inv_sqrt_d, float* scores) {
  QkBlockQuery(qh, 1, khead, rows, bt, hd, inv_sqrt_d, scores);
}

void PvBlock(const float* probs, const Half* vhead, int64_t rows,
             int64_t stride, int64_t hd, float* acc) {
  for (int64_t t = 0; t < rows; ++t) {
    const float p = probs[t];
    const Half* vrow = vhead + t * stride;
    for (int64_t r = 0; r < hd; ++r) {
      acc[r] += p * vrow[r].ToFloat();
    }
  }
}

void RowExp(float* scores, int64_t n, float max) {
  for (int64_t t = 0; t < n; ++t) {
    scores[t] = SoftmaxExp(scores[t] - max);
  }
}

void SoftmaxRows(float* scores, int64_t ld, int64_t n, const int64_t* len,
                 float* denom) {
  for (int64_t i = 0; i < n; ++i) {
    float* row = scores + i * ld;
    float m = -1e30f;
    for (int64_t t = 0; t < len[i]; ++t) {
      m = std::max(m, row[t]);
    }
    RowExp(row, len[i], m);
    float d = 0.0f;
    for (int64_t t = 0; t < len[i]; ++t) {
      d += row[t];
    }
    denom[i] = d;
  }
}

void TileQkBlock(const float* qt, const Half* khead, int64_t rows, int64_t bt,
                 int64_t hd, float inv_sqrt_d, float* scores, int64_t ld) {
  for (int j = 0; j < kL; ++j) {
    QkBlockQuery(qt + j, kL, khead, rows, bt, hd, inv_sqrt_d, scores + j * ld);
  }
}

// A horizon is a prefix of the keys, so query j's live keys in the block
// are its first lane_ctx[j] - t0 rows; `full` only lets the AVX2 unit drop
// the per-query checks.
void TilePvBlock(const float* probs, int64_t ld, const Half* vhead,
                 int64_t rows, int64_t stride, int64_t hd, int64_t t0,
                 int64_t /*full*/, const int32_t* lane_ctx, float* acc) {
  for (int j = 0; j < kL; ++j) {
    const int64_t live = std::clamp<int64_t>(lane_ctx[j] - t0, 0, rows);
    PvBlock(probs + j * ld, vhead, live, stride, hd, acc + j * hd);
  }
}

const AttnKernels kPortableKernels = {&QkBlock,     &PvBlock,
                                      &RowExp,      &SoftmaxRows,
                                      &TileQkBlock, &TilePvBlock};

}  // namespace

const AttnKernels& PortableAttnKernels() { return kPortableKernels; }

}  // namespace paged_attention_detail

namespace {

using paged_attention_detail::AttnKernels;
using paged_attention_detail::kTileLanes;
using Task = PagedAttentionScratch::Task;

// AlignedBuffer::Reserve allocates exactly what is asked, so a decode loop
// whose context grows one token per step would reallocate every step.
// Growing geometrically keeps the serving loop's allocation count
// O(log max_context) instead of O(steps).
template <typename T>
void ReserveGeometric(AlignedBuffer<T>* buf, size_t count) {
  if (count > buf->capacity()) {
    buf->Reserve(std::max(count, 2 * buf->capacity()));
  }
}

// Per-task scratch slices are padded to whole cache lines so concurrently
// running tasks never share a line (speed only — each task's writes are
// private either way).
int64_t RoundUpLine(int64_t floats) { return (floats + 15) & ~int64_t{15}; }

// A task's float slices, `width` lanes (a tile) or heads (a lone query)
// wide: staged queries and PV accumulators (hd per lane or head), the
// denominators, then one score row per lane or head.
struct TaskSlices {
  float* q;
  float* acc;
  float* denom;
  float* scores;
};
int64_t TaskFloats(int64_t hd, int64_t width, int64_t keys) {
  return 2 * RoundUpLine(hd * width) + RoundUpLine(width) +
         width * RoundUpLine(keys);
}
TaskSlices Slices(float* base, int64_t hd, int64_t width) {
  float* acc = base + RoundUpLine(hd * width);
  float* denom = acc + RoundUpLine(hd * width);
  return {base, acc, denom, denom + RoundUpLine(width)};
}

// Everything a task reads, resolved once per call; the ParallelFor body
// captures only its address.
struct BatchArgs {
  const PagedKvCache* cache;
  int64_t layer;
  const FloatMatrix* q;
  FloatMatrix* out;
  const PagedAttentionItem* items;
  const int64_t* contexts;
  const std::vector<int32_t>* const* block_lists;
  const Task* tasks;
  float* floats;
  const AttnKernels* k;
  int64_t hd;
  int64_t group;  // query heads per kv head
  float inv_sqrt_d;
};

// One (tile, query head): the tile's queries share one walk over the KV
// blocks up to the tile's longest horizon for QK and one for PV; each
// query's scores are a row of their own.
void RunTile(const BatchArgs& a, const Task& task) {
  constexpr int kL = kTileLanes;
  const int64_t hd = a.hd;
  const int64_t r0q = task.head0 * hd;
  const int64_t r0k = (task.head0 / a.group) * hd;
  const TaskSlices s = Slices(a.floats + task.offset, hd, kL);
  const int64_t keys = task.keys;
  const int64_t ld = RoundUpLine(keys);  // one score row per query
  int32_t lane_ctx[kL];
  int64_t full = keys;  // keys inside every query's horizon
  for (int j = 0; j < kL; ++j) {
    if (j >= task.lanes) {
      lane_ctx[j] = 0;
      for (int64_t r = 0; r < hd; ++r) {
        s.q[r * kL + j] = 0.0f;
      }
      continue;
    }
    const int64_t i = task.item + j;
    const int64_t col = a.items[i].col;
    lane_ctx[j] = static_cast<int32_t>(a.contexts[i]);
    full = std::min(full, a.contexts[i]);
    for (int64_t r = 0; r < hd; ++r) {
      s.q[r * kL + j] = a.q->at(r0q + r, col);
    }
  }
  std::fill(s.acc, s.acc + hd * kL, 0.0f);
  const std::vector<int32_t>& blocks = *a.block_lists[task.item];
  const int64_t kv_dim = a.cache->config().kv_dim;
  const int64_t bt = a.cache->config().block_tokens;
  for (int64_t t0 = 0; t0 < keys; t0 += bt) {
    const Half* khead =
        a.cache->KBlockBase(a.layer, blocks[static_cast<size_t>(t0 / bt)]) +
        r0k * bt;
    a.k->tile_qk_block(s.q, khead, std::min(bt, keys - t0), bt, hd,
                       a.inv_sqrt_d, s.scores + t0, ld);
  }
  int64_t len[kL];
  for (int j = 0; j < kL; ++j) {
    len[j] = lane_ctx[j];
  }
  a.k->softmax_rows(s.scores, ld, task.lanes, len, s.denom);
  for (int64_t t0 = 0; t0 < keys; t0 += bt) {
    const Half* vhead =
        a.cache->VBlockBase(a.layer, blocks[static_cast<size_t>(t0 / bt)]) +
        r0k;
    const int64_t rows = std::min(bt, keys - t0);
    a.k->tile_pv_block(s.scores + t0, ld, vhead, rows, kv_dim, hd, t0,
                       std::clamp<int64_t>(full - t0, 0, rows), lane_ctx,
                       s.acc);
  }
  for (int j = 0; j < task.lanes; ++j) {
    const int64_t col = a.items[task.item + j].col;
    for (int64_t r = 0; r < hd; ++r) {
      a.out->at(r0q + r, col) = s.acc[j * hd + r] / s.denom[j];
    }
  }
}

// One lone query over query heads [head0, head1): each KV block is walked
// once for all of them (block-major), for QK and again for PV.
void RunLone(const BatchArgs& a, const Task& task) {
  const int64_t hd = a.hd;
  const int64_t nh = task.head1 - task.head0;
  const int64_t ctx = task.keys;
  const int64_t row = RoundUpLine(ctx);  // one score row per head
  const TaskSlices s = Slices(a.floats + task.offset, hd, nh);
  const int64_t col = a.items[task.item].col;
  for (int64_t r = 0; r < nh * hd; ++r) {
    s.q[r] = a.q->at(task.head0 * hd + r, col);
  }
  std::fill(s.acc, s.acc + nh * hd, 0.0f);
  const std::vector<int32_t>& blocks = *a.block_lists[task.item];
  const int64_t kv_dim = a.cache->config().kv_dim;
  const int64_t bt = a.cache->config().block_tokens;
  for (int64_t t0 = 0; t0 < ctx; t0 += bt) {
    const Half* kblock =
        a.cache->KBlockBase(a.layer, blocks[static_cast<size_t>(t0 / bt)]);
    const int64_t rows = std::min(bt, ctx - t0);
    for (int64_t hh = 0; hh < nh; ++hh) {
      const int64_t r0k = ((task.head0 + hh) / a.group) * hd;
      a.k->qk_block(s.q + hh * hd, kblock + r0k * bt, rows, bt, hd,
                    a.inv_sqrt_d, s.scores + hh * row + t0);
    }
  }
  int64_t len[kTileLanes];
  std::fill(len, len + kTileLanes, ctx);
  for (int64_t hh = 0; hh < nh; hh += kTileLanes) {
    a.k->softmax_rows(s.scores + hh * row, row,
                      std::min<int64_t>(kTileLanes, nh - hh), len,
                      s.denom + hh);
  }
  for (int64_t t0 = 0; t0 < ctx; t0 += bt) {
    const Half* vblock =
        a.cache->VBlockBase(a.layer, blocks[static_cast<size_t>(t0 / bt)]);
    const int64_t rows = std::min(bt, ctx - t0);
    for (int64_t hh = 0; hh < nh; ++hh) {
      const int64_t r0k = ((task.head0 + hh) / a.group) * hd;
      a.k->pv_block(s.scores + hh * row + t0, vblock + r0k, rows, kv_dim, hd,
                    s.acc + hh * hd);
    }
  }
  for (int64_t hh = 0; hh < nh; ++hh) {
    for (int64_t r = 0; r < hd; ++r) {
      a.out->at((task.head0 + hh) * hd + r, col) =
          s.acc[hh * hd + r] / s.denom[hh];
    }
  }
}

void RunTask(const BatchArgs& a, int64_t idx) {
  const Task& task = a.tasks[idx];
  if (task.lanes == 0) {
    RunLone(a, task);
  } else {
    RunTile(a, task);
  }
}

void BatchImpl(const PagedKvCache& cache, int64_t layer, int64_t heads,
               int64_t kv_heads, const FloatMatrix& q,
               const std::vector<PagedAttentionItem>& items, FloatMatrix* out,
               PagedAttentionScratch* scratch, CpuSpmmVariant variant) {
  const int64_t kv_dim = cache.config().kv_dim;
  SPINFER_CHECK(heads > 0 && kv_heads > 0);
  SPINFER_CHECK_MSG(heads % kv_heads == 0,
                    "GQA requires kv_heads to divide heads");
  SPINFER_CHECK(kv_dim % kv_heads == 0);
  const int64_t hd = kv_dim / kv_heads;
  const int64_t q_rows = heads * hd;
  SPINFER_CHECK_EQ(q.rows(), q_rows);
  SPINFER_CHECK_EQ(out->rows(), q_rows);
  const int64_t ni = static_cast<int64_t>(items.size());
  if (ni == 0) {
    return;
  }

  // Resolve every item's horizon and page table once, up front: the block
  // lists stay valid for the whole call (the cache is const), and the hot
  // loop indexes them directly.
  scratch->contexts.resize(static_cast<size_t>(ni));
  scratch->block_lists.resize(static_cast<size_t>(ni));
  int64_t max_ctx = 0;
  for (int64_t i = 0; i < ni; ++i) {
    const PagedAttentionItem& it = items[static_cast<size_t>(i)];
    SPINFER_CHECK(it.col >= 0 && it.col < q.cols());
    SPINFER_CHECK_EQ(out->cols(), q.cols());
    const int64_t ctx =
        it.context < 0 ? cache.SequenceTokens(it.seq_id) : it.context;
    SPINFER_CHECK_MSG(ctx > 0,
                      "sequence " << it.seq_id << " has no cached tokens");
    SPINFER_CHECK(ctx <= cache.SequenceTokens(it.seq_id));
    const std::vector<int32_t>* blocks = cache.SequenceBlockList(it.seq_id);
    SPINFER_CHECK(blocks != nullptr);
    scratch->contexts[static_cast<size_t>(i)] = ctx;
    scratch->block_lists[static_cast<size_t>(i)] = blocks;
    max_ctx = std::max(max_ctx, ctx);
  }
  SPINFER_CHECK(max_ctx <= INT32_MAX);  // lane horizons are int32 lanes
  SPINFER_CHECK(ni <= INT32_MAX);

  // The work grid. A run is a maximal stretch of consecutive items of one
  // sequence; runs of kTileMinQueries or more are cut into equal tiles of
  // at most kTileLanes queries, one task per (tile, query head); shorter
  // runs' items are lone queries, one task per (item, head band).
  auto run_end = [&](int64_t i) {
    int64_t j = i + 1;
    while (j < ni && items[static_cast<size_t>(j)].seq_id ==
                         items[static_cast<size_t>(i)].seq_id) {
      ++j;
    }
    return j;
  };
  int64_t n_lone = 0;
  int64_t n_tiles = 0;
  for (int64_t i = 0; i < ni;) {
    const int64_t j = run_end(i);
    if (j - i < paged_attention_detail::kTileMinQueries) {
      n_lone += j - i;
    } else {
      n_tiles += (j - i + kTileLanes - 1) / kTileLanes;
    }
    i = j;
  }
  // Head bands only when lone items alone would leave threads idle; band
  // boundaries cannot change bits (each head's chains are its own).
  const int64_t threads = ThreadPool::Global().num_threads();
  const int64_t bands =
      (n_lone > 0 && n_lone < threads)
          ? std::min(heads, (threads + n_lone - 1) / n_lone)
          : 1;
  const int64_t n_tasks = n_tiles * heads + n_lone * bands;
  ReserveGeometric(&scratch->tasks, static_cast<size_t>(n_tasks));
  Task* tasks = scratch->tasks.data();
  int64_t n = 0;
  int64_t floats = 0;
  auto emit = [&](int64_t item, int64_t lanes, int64_t head0, int64_t head1,
                  int64_t keys) {
    tasks[n++] = {static_cast<int32_t>(item), static_cast<int32_t>(lanes),
                  static_cast<int32_t>(head0), static_cast<int32_t>(head1),
                  keys, floats};
    floats += TaskFloats(hd, lanes == 0 ? head1 - head0 : kTileLanes, keys);
  };
  for (int64_t i = 0; i < ni;) {
    const int64_t j = run_end(i);
    const int64_t len = j - i;
    if (len < paged_attention_detail::kTileMinQueries) {
      for (int64_t it = i; it < j; ++it) {
        const int64_t ctx = scratch->contexts[static_cast<size_t>(it)];
        for (int64_t b = 0; b < bands; ++b) {
          emit(it, 0, b * heads / bands, (b + 1) * heads / bands, ctx);
        }
      }
    } else {
      const int64_t tiles = (len + kTileLanes - 1) / kTileLanes;
      int64_t first = i;
      for (int64_t t = 0; t < tiles; ++t) {
        const int64_t lanes = len / tiles + (t < len % tiles ? 1 : 0);
        int64_t keys = 0;
        for (int64_t it = first; it < first + lanes; ++it) {
          keys = std::max(keys, scratch->contexts[static_cast<size_t>(it)]);
        }
        for (int64_t h = 0; h < heads; ++h) {
          emit(first, lanes, h, h + 1, keys);
        }
        first += lanes;
      }
    }
    i = j;
  }
  SPINFER_CHECK_EQ(n, n_tasks);
  ReserveGeometric(&scratch->floats, static_cast<size_t>(floats));

  obs::TraceScope call_scope("paged_attn");
  if (call_scope.active()) {
    call_scope.AddArg("items", ni);
    call_scope.AddArg("heads", heads);
    call_scope.AddArg("max_ctx", max_ctx);
    call_scope.AddArg("tasks", n_tasks);
  }

  const BatchArgs args = {
      &cache,
      layer,
      &q,
      out,
      items.data(),
      scratch->contexts.data(),
      scratch->block_lists.data(),
      tasks,
      scratch->floats.data(),
      variant == CpuSpmmVariant::kAvx2
          ? &paged_attention_detail::Avx2AttnKernels()
          : &paged_attention_detail::PortableAttnKernels(),
      hd,
      heads / kv_heads,
      1.0f / std::sqrt(static_cast<float>(hd))};
  // Each task owns disjoint output rows of its columns, so bits are
  // thread-count-independent. grain=1: tasks are coarse (a whole context
  // sweep) and ragged contexts make them uneven.
  ParallelFor(0, n_tasks, [&args](int64_t idx) { RunTask(args, idx); },
              /*grain=*/1);
}

}  // namespace

void PagedAttentionDecodeBatch(const PagedKvCache& cache, int64_t layer,
                               int64_t heads, int64_t kv_heads,
                               const FloatMatrix& q,
                               const std::vector<PagedAttentionItem>& items,
                               FloatMatrix* out,
                               PagedAttentionScratch* scratch) {
  BatchImpl(cache, layer, heads, kv_heads, q, items, out, scratch,
            ActivePagedAttentionVariant());
}

void PagedAttentionDecodeBatchVariant(
    const PagedKvCache& cache, int64_t layer, int64_t heads, int64_t kv_heads,
    const FloatMatrix& q, const std::vector<PagedAttentionItem>& items,
    FloatMatrix* out, PagedAttentionScratch* scratch, CpuSpmmVariant v) {
  SPINFER_CHECK_MSG(
      PagedAttentionVariantAvailable(v),
      "requested paged-attention variant is unavailable on this machine");
  BatchImpl(cache, layer, heads, kv_heads, q, items, out, scratch, v);
}

bool PagedAttentionVariantAvailable(CpuSpmmVariant v) {
  switch (v) {
    case CpuSpmmVariant::kAvx2: {
      const CpuFeatures& f = GetCpuFeatures();
      return paged_attention_detail::PagedAttentionAvx2Compiled() && f.avx2 &&
             f.fma && f.f16c;
    }
    case CpuSpmmVariant::kAvx512:
      return false;  // attention has no AVX-512 kernels
    case CpuSpmmVariant::kPortable:
      break;
  }
  return true;
}

CpuSpmmVariant ActivePagedAttentionVariant() {
  static const CpuSpmmVariant v = [] {
    // The AVX-512 tier runs the AVX2 attention kernels.
    if (ActiveSimdLevel() >= SimdLevel::kAvx2 &&
        PagedAttentionVariantAvailable(CpuSpmmVariant::kAvx2)) {
      return CpuSpmmVariant::kAvx2;
    }
    return CpuSpmmVariant::kPortable;
  }();
  return v;
}

void PagedAttentionDecodeReference(const PagedKvCache& cache, int64_t layer,
                                   int64_t seq_id, int64_t heads,
                                   int64_t kv_heads, const FloatMatrix& q,
                                   int64_t col, FloatMatrix* out,
                                   std::vector<float>* scores,
                                   int64_t context) {
  const int64_t kv_dim = cache.config().kv_dim;
  SPINFER_CHECK(heads > 0 && kv_heads > 0);
  SPINFER_CHECK_MSG(heads % kv_heads == 0,
                    "GQA requires kv_heads to divide heads");
  SPINFER_CHECK(kv_dim % kv_heads == 0);
  const int64_t hd = kv_dim / kv_heads;
  SPINFER_CHECK_EQ(q.rows(), heads * hd);
  SPINFER_CHECK_EQ(out->rows(), heads * hd);
  const int64_t ctx = context < 0 ? cache.SequenceTokens(seq_id) : context;
  SPINFER_CHECK_MSG(ctx > 0, "sequence " << seq_id
                                         << " has no cached tokens to attend "
                                            "over (max_score needs ctx > 0)");
  SPINFER_CHECK(ctx <= cache.SequenceTokens(seq_id));
  const std::vector<int32_t>* blocks = cache.SequenceBlockList(seq_id);
  SPINFER_CHECK(blocks != nullptr);
  const int64_t bt = cache.config().block_tokens;
  if (static_cast<int64_t>(scores->size()) < ctx) {
    scores->resize(static_cast<size_t>(ctx));
  }
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(hd));
  const int64_t group = heads / kv_heads;
  for (int64_t head = 0; head < heads; ++head) {
    const int64_t r0q = head * hd;
    const int64_t r0k = (head / group) * hd;
    float max_score = -1e30f;
    for (int64_t t = 0; t < ctx; ++t) {
      // Key t's dimension r sits at kcol[r * bt] (dims-major K).
      const Half* kcol =
          cache.KBlockBase(layer, (*blocks)[static_cast<size_t>(t / bt)]) +
          r0k * bt + t % bt;
      float dot = 0.0f;
      for (int64_t r = 0; r < hd; ++r) {
        dot += q.at(r0q + r, col) * kcol[r * bt].ToFloat();
      }
      (*scores)[static_cast<size_t>(t)] = dot * inv_sqrt_d;
      max_score = std::max(max_score, (*scores)[static_cast<size_t>(t)]);
    }
    float denom = 0.0f;
    for (int64_t t = 0; t < ctx; ++t) {
      float& s = (*scores)[static_cast<size_t>(t)];
      s = SoftmaxExp(s - max_score);
      denom += s;
    }
    // t-outer/r-inner: V rows stream once per head and the block pointer
    // resolves once per token, while every out element keeps its exact
    // ascending-t accumulation chain (the pre-fix r-outer loop formed the
    // same chains at O(hd * ctx) pointer resolutions).
    for (int64_t r = 0; r < hd; ++r) {
      out->at(r0q + r, col) = 0.0f;
    }
    for (int64_t t = 0; t < ctx; ++t) {
      const Half* vrow =
          cache.VBlockBase(layer, (*blocks)[static_cast<size_t>(t / bt)]) +
          (t % bt) * kv_dim + r0k;
      const float s = (*scores)[static_cast<size_t>(t)];
      for (int64_t r = 0; r < hd; ++r) {
        out->at(r0q + r, col) += s * vrow[r].ToFloat();
      }
    }
    for (int64_t r = 0; r < hd; ++r) {
      out->at(r0q + r, col) /= denom;
    }
  }
}

}  // namespace spinfer

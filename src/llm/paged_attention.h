// Fused, SIMD-dispatched, batched paged-attention kernel — the executing
// counterpart of the analytic DecodeAttentionCost model
// (src/llm/attention.h), built in the CPU-backend-v2 style.
//
// One call computes causal attention for a whole batch of (sequence,
// query-column) work items at one layer: QK^T, the max-subtracted softmax
// and PV over each sequence's paged KV blocks. The batch is cut into a work
// grid whose every task walks the K/V it needs once for all the queries
// that share it:
//   * Query tiles. Consecutive items of one sequence form a run (a prefill
//     chunk's columns, as MixedStep emits them). A run of at least
//     kTileMinQueries items (paged_attention_inner.h) is cut into tiles of
//     at most 8 queries, and one task handles one (tile, query head): every
//     K and V vector the task widens serves all of the tile's queries, and
//     every query keeps its own horizon — a key past it is left out of that
//     query's max, exp, denominator and PV, never multiplied by zero.
//   * Lone queries (a decode item, or a run too short to tile). One task
//     per item walks each KV block once for all of the item's heads
//     (block-major). When the pool has more threads than lone items, an
//     item's heads are split into bands so no thread idles.
// Both put a block's keys in the SIMD lanes for QK and the head dimensions
// in the lanes for PV.
// The pages are FP16 (kv_allocator.h: K dims-major, V slot-major), and every
// path widens each value it reads, which is exact.
//
// Contracts, matching the rest of the CPU kernel family:
//   * Bit-identity with the retained reference (PagedAttentionDecodeReference)
//     and with TinyTransformer::Forward's in-batch attention: every path
//     reschedules — never reorders — each output element's scalar chain (QK
//     dots ascend the head dimension, the denominator and PV ascend the
//     context, separate mul/add roundings, -ffp-contract=off, no FMA), and
//     all three take the exponential from one repository-owned function,
//     SoftmaxExp, so no result depends on the host's libm.
//   * Determinism: output bits do not depend on the SIMD variant, the thread
//     count, the batch mix or how a run is cut into tiles (each task owns
//     disjoint output rows of its columns).
//   * Allocation-free when warm: the task list and all per-task scratch live
//     in PagedAttentionScratch, grown geometrically so a decode loop whose
//     context grows one token per step does not reallocate per step.
//
// Grouped-query attention: `kv_heads` may divide `heads`; query head h reads
// the cached K/V rows of kv head h / (heads / kv_heads). Classic MHA is
// kv_heads == heads. The cache's kv_dim must equal kv_heads * head_dim.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/cpu_backend.h"
#include "src/llm/kv_allocator.h"
#include "src/numeric/matrix.h"
#include "src/util/aligned_buffer.h"

namespace spinfer {

// One query of a batched decode-attention call: column `col` of the q panel
// belongs to sequence `seq_id` and attends over cached slots [0, context).
// context == -1 (the decode default) means all of SequenceTokens(seq_id);
// chunked prefill passes an explicit horizon so prompt position p attends
// over slots [0, p] even while later slots of the same chunk are already
// written. The attended slots — including the query's own — must hold real
// K/V before the call.
struct PagedAttentionItem {
  int64_t seq_id = 0;
  int64_t col = 0;
  int64_t context = -1;
};

// Reusable scratch for PagedAttentionDecodeBatch. Buffers grow geometrically
// and never shrink, so a serving loop stops allocating once it has seen its
// largest (batch x heads, context) shape — even though decode contexts grow
// every step. grow_count()/capacity_bytes() feed the zero-allocation
// observability contract (TinyTransformer::MatmulScratchGrowCount).
struct PagedAttentionScratch {
  // One task of the work grid: a tile of `lanes` consecutive items starting
  // at `item` for one query head (head1 == head0 + 1), or, with lanes == 0,
  // the lone item `item` over query heads [head0, head1). Its private float
  // slices (staged queries, PV accumulators, denominators, scores) start at
  // `offset` in `floats`; `keys` is the longest horizon it attends.
  struct Task {
    int32_t item;
    int32_t lanes;
    int32_t head0;
    int32_t head1;
    int64_t keys;
    int64_t offset;
  };
  AlignedBuffer<Task> tasks;
  AlignedBuffer<float> floats;
  // Per-item views resolved once per call (hot loops must not re-resolve
  // block lists per token — see PagedKvCache::WriteSlot).
  std::vector<const std::vector<int32_t>*> block_lists;
  std::vector<int64_t> contexts;

  int64_t grow_count() const {
    return tasks.grow_count() + floats.grow_count();
  }
  uint64_t capacity_bytes() const {
    return tasks.capacity() * sizeof(Task) + floats.capacity() * sizeof(float);
  }
};

// Batched fused decode attention at one layer: for every item, attends column
// item.col of `q` (a kv-projection panel with heads * head_dim rows) over
// item.seq_id's cached context and writes the same column of `out` (same row
// count as q). Dispatches to the best available SIMD variant.
void PagedAttentionDecodeBatch(const PagedKvCache& cache, int64_t layer,
                               int64_t heads, int64_t kv_heads,
                               const FloatMatrix& q,
                               const std::vector<PagedAttentionItem>& items,
                               FloatMatrix* out, PagedAttentionScratch* scratch);

// Variant-pinned entry for the bit-identity tests and benches; CHECK-fails
// if `v` is unavailable (PagedAttentionVariantAvailable).
void PagedAttentionDecodeBatchVariant(
    const PagedKvCache& cache, int64_t layer, int64_t heads, int64_t kv_heads,
    const FloatMatrix& q, const std::vector<PagedAttentionItem>& items,
    FloatMatrix* out, PagedAttentionScratch* scratch, CpuSpmmVariant v);

// Whether `v` can run here. The attention AVX2 unit needs avx2+fma+f16c at
// runtime (F16C widens the FP16 KV pages); its gate is its own, not
// CpuSpmmVariantAvailable's. Attention has no AVX-512 kernels, so kAvx512 is
// never available.
bool PagedAttentionVariantAvailable(CpuSpmmVariant v);
// The variant PagedAttentionDecodeBatch dispatches to; cached, honors the
// SPINFER_SIMD override via ActiveSimdLevel(). The AVX-512 tier runs the
// AVX2 kernels.
CpuSpmmVariant ActivePagedAttentionVariant();

// The softmax exponential every attention path here shares: the kernel, the
// reference and TinyTransformer::Forward. exp(x) for x <= 0 by Cephes-style
// range reduction (x = n ln2 + r, |r| <= ln2 / 2), a degree-5 polynomial and
// an exponent-field construction of 2^n, every multiply and add rounded
// separately: within 1 ulp of a double-precision exp on [-87.33, 0],
// SoftmaxExp(0) == 1 exactly, inputs above 0 are taken as 0, inputs below
// ln(FLT_MIN) give 0 (so -inf gives 0), NaN gives NaN. Defined out of line
// in the portable unit; the AVX2 unit mirrors it operation for operation.
float SoftmaxExp(float x);

// The pre-fusion scalar kernel, retained as the differential reference: one
// sequence, one column, single-threaded, no SIMD, no fusion, each K/V value
// widened from its page as it is read — but with the
// PV loop nest in the corrected t-outer/r-inner order (order-preserving; see
// the bit-identity contract above) so V rows stream once per head instead of
// once per output element. `scores` is caller-owned scratch, grown to the
// context length. Numerics mirror TinyTransformer::Forward's in-batch
// attention exactly.
void PagedAttentionDecodeReference(const PagedKvCache& cache, int64_t layer,
                                   int64_t seq_id, int64_t heads,
                                   int64_t kv_heads, const FloatMatrix& q,
                                   int64_t col, FloatMatrix* out,
                                   std::vector<float>* scores,
                                   int64_t context = -1);

}  // namespace spinfer

// Paged KV cache (vLLM-style block management).
//
// The serving results (Figs. 13-14, and our serving simulator) hinge on how
// much KV cache fits beside the weights; a real engine manages that pool in
// fixed-size blocks so sequences can grow without reserving their maximum
// context up front. PagedKvCache is that pool for the executing CPU path:
// per-sequence block lists, O(1) alloc/free from a free list, token-granular
// append, per-block refcounts for prefix sharing (copy-on-write on divergent
// append), the utilization accounting the scheduler admits against, real
// per-layer K/V storage, and a content-hash index over full prompt-prefix
// blocks. TinyTransformer's KV-cache decode path reads and writes through its
// page tables, and new arrivals can adopt identical prefix blocks instead of
// recomputing them. K and V are stored in FP16 (see PagedKvCache for the two
// block layouts).
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/numeric/fp16.h"

namespace spinfer {

struct PagedKvCacheConfig {
  int64_t layers = 0;
  // Values per token per tensor (== hidden for classic MHA: heads * head_dim).
  int64_t kv_dim = 0;
  int64_t block_tokens = 16;
  int64_t num_blocks = 0;
};

// Block-paged K/V storage for the executing CPU serving path: the block
// bookkeeping (which blocks a sequence owns, a LIFO free list that hands out
// block 0 first, per-block refcounts, fragmentation counters), the FP16
// pools, slot addressing, and the prefix index.
//
// Page format. K and V are stored as Half: WriteSlot rounds each value once
// (round-to-nearest-even, Half(float)), and every reader widens it back to
// float, which is exact. So a decode that reads a cached slot sees
// bit-for-bit the FP16 rounding of the column written at prefill/append
// time, whichever path wrote it (the substrate of the batched-vs-single
// bit-identity tests). Within one block at one layer:
//   * K is dims-major, [kv_dim][block_tokens]: element (slot s, dim d) sits at
//     KBlockBase(layer, block)[d * block_tokens + s], so a kv head's slice
//     of a block is head_dim * block_tokens contiguous halves, and one
//     dimension of block_tokens consecutive keys is one vector load;
//   * V is slot-major, [block_tokens][kv_dim]: element (s, d) sits at
//     VBlockBase(layer, block)[s * kv_dim + d], so one slot's head slice is
//     head_dim contiguous halves.
// Each layout puts its reduction's independent chains side by side: a QK
// score is one chain per key (keys in the SIMD lanes), a PV output one chain
// per head dimension (dimensions in the lanes).
//
// Prefix index: full prompt-prefix blocks are keyed by a chained content
// hash h_i = H(h_{i-1}, tokens of block i) and looked up by MatchPrefix.
// Every hit is verified against the stored parent hash and token ids, so a
// hash collision degrades to a miss, never to wrong KV. Because a shared
// block's K/V equals bit-for-bit what the adopting sequence would have
// written itself (same tokens, same positions, same weights, per-column
// deterministic kernels), adoption preserves per-sequence bit-identity.
class PagedKvCache {
 public:
  explicit PagedKvCache(const PagedKvCacheConfig& config);

  // Registers `seq_id` with `tokens` slots (the prompt); the caller then
  // fills the K/V rows of slots [0, tokens). Returns false if the pool
  // cannot hold it (nothing allocated).
  bool AddSequence(int64_t seq_id, int64_t tokens);
  // Allocates one more slot; returns false on pool exhaustion. If the slot's
  // block was shared, its already-written rows are copied into a fresh
  // private block first (copy-on-write, counted in cow_copies()). Appending
  // into an indexed block removes that index entry: the block's content is
  // about to diverge from the hash it was filed under.
  bool AppendToken(int64_t seq_id);
  // Releases all of a sequence's blocks (refcount-aware: a block returns to
  // the free list, and leaves the prefix index, only when its last holder
  // drops it). Unknown ids are ignored. Allocates nothing.
  void RemoveSequence(int64_t seq_id);
  // Rewinds `seq_id` to `tokens` (<= its current count) slots, releasing the
  // now-unused tail blocks the same refcount-aware way. Allocates nothing.
  // The serving benches rewind decode state with this; eviction uses
  // RemoveSequence.
  void TruncateSequence(int64_t seq_id, int64_t tokens);

  // --- Shared-prefix interface ---------------------------------------------

  // Longest indexed prefix of `prompt_tokens`, in whole blocks, capped at
  // len-1 tokens so the final prompt position is always recomputed (its
  // logits seed generation). `blocks` are the physical block ids to adopt in
  // order; `tokens` == blocks.size() * block_tokens.
  struct PrefixMatch {
    int64_t tokens = 0;
    std::vector<int32_t> blocks;
  };
  PrefixMatch MatchPrefix(const std::vector<int32_t>& prompt_tokens) const;

  // AddSequence variant adopting `match.blocks` (from MatchPrefix against
  // this cache) as the sequence's leading blocks; only the tail past
  // `match.tokens` is freshly allocated. The caller fills slots
  // [match.tokens, tokens) — slots before that already hold the prefix KV.
  // Returns false, adopting nothing, if the free list cannot supply the tail.
  bool AddSequenceSharing(int64_t seq_id, int64_t tokens, const PrefixMatch& match);

  // Files the full blocks covering prompt positions [0, min(filled, len-1))
  // of `seq_id` under their chained content hashes, making them adoptable by
  // future MatchPrefix calls. Only fully-written blocks are indexed (call
  // after the covering slots hold real KV); first writer wins on hash ties.
  void IndexPrefix(int64_t seq_id, const std::vector<int32_t>& prompt_tokens,
                   int64_t filled);

  // Tokens cached for `seq_id` (0 if unknown).
  int64_t SequenceTokens(int64_t seq_id) const;
  // Blocks held by `seq_id` (0 if unknown).
  int64_t SequenceBlocks(int64_t seq_id) const;
  // Block ids held by `seq_id` in token order (token t lives in entry
  // t / block_tokens), or nullptr if the sequence is unknown. The pointer is
  // invalidated by the next mutating call for that sequence.
  const std::vector<int32_t>* SequenceBlockList(int64_t seq_id) const;
  // Holders of `block`: 0 = free, 1 = private, >1 = shared.
  int32_t BlockRefCount(int32_t block) const;

  // Stores one token slot's K and V at `layer`, each rounded to FP16 once:
  // k[r * stride] and v[r * stride] for r in [0, kv_dim) (stride 1 for
  // contiguous rows, the panel width for a column of a row-major panel).
  // `token` must be < SequenceTokens(seq_id). Resolves the sequence's block
  // list per call.
  void WriteSlot(int64_t layer, int64_t seq_id, int64_t token, const float* k,
                 const float* v, int64_t stride = 1);
  // Widens one slot's stored K and V into kv_dim floats each (exact). For
  // tests and tools; hot loops resolve the block list once and read blocks
  // through *BlockBase.
  void ReadSlot(int64_t layer, int64_t seq_id, int64_t token, float* k,
                float* v) const;

  // One block's block_tokens * kv_dim halves at one layer, in the layouts
  // above; token t of a sequence lives in slot t % block_tokens of block
  // blocks[t / block_tokens].
  const Half* KBlockBase(int64_t layer, int32_t block) const;
  const Half* VBlockBase(int64_t layer, int32_t block) const;

  // Accounting (scheduler gauges, fragmentation counters).
  int64_t total_blocks() const { return config_.num_blocks; }
  int64_t free_blocks() const { return static_cast<int64_t>(free_list_.size()); }
  int64_t used_blocks() const { return total_blocks() - free_blocks(); }
  double Utilization() const {
    return static_cast<double>(used_blocks()) / static_cast<double>(total_blocks());
  }
  // Internal fragmentation: allocated-but-unused token slots, summed per
  // sequence. A block shared by k sequences contributes its slack k times —
  // by design: the figure answers "how many token appends could the resident
  // sequences absorb without new blocks", not "how many pool slots idle".
  int64_t WastedTokenSlots() const;
  // Blocks needed to hold `tokens` tokens (schedulers reserve against this).
  int64_t BlocksForTokens(int64_t tokens) const {
    return (tokens + config_.block_tokens - 1) / config_.block_tokens;
  }

  // Copy-on-write block copies performed since construction.
  int64_t cow_copies() const { return cow_copies_; }
  // Live prefix-index entries (one per indexed block).
  int64_t indexed_blocks() const { return static_cast<int64_t>(index_.size()); }

  const PagedKvCacheConfig& config() const { return config_; }
  uint64_t StorageBytes() const {
    return 2ull * k_pool_.size() * sizeof(Half);
  }

 private:
  struct Sequence {
    int64_t tokens = 0;
    std::vector<int32_t> blocks;
  };

  // One indexed full block: where it lives and exactly what it claims to
  // hold, so lookups can verify instead of trusting 64-bit hashes.
  struct PrefixEntry {
    int32_t block = 0;
    uint64_t parent = 0;          // chained hash of everything before it
    std::vector<int32_t> tokens;  // the block_tokens token ids it covers
  };

  friend bool MigrateKvSequence(PagedKvCache* from, PagedKvCache* to,
                                int64_t from_seq, int64_t to_seq);

  // The registered sequence `seq_id` (CHECKed).
  Sequence& Find(int64_t seq_id);
  const Sequence& Find(int64_t seq_id) const;
  // Pops the next free block (LIFO) for one holder. The free list must not
  // be empty.
  int32_t TakeFreeBlock();
  // Drops one holder of `block`. The last holder's release returns it to
  // the free list and removes its index entry, if any.
  void ReleaseBlock(int32_t block);

  // Offset of `block`'s first half at `layer` in either pool.
  int64_t BlockOffset(int64_t layer, int32_t block) const {
    return (layer * config_.num_blocks + block) * config_.block_tokens *
           config_.kv_dim;
  }
  // The block holding `token` of `seq_id` and the token's slot in it.
  std::pair<int32_t, int64_t> Slot(int64_t seq_id, int64_t token) const;
  // Copies the first `slots` slots of `src`'s block `src_block` into this
  // cache's `dst_block` at every layer, K and V, as Half bits (no rounding).
  // The caches share geometry; `src` may be this cache.
  void CopySlots(const PagedKvCache& src, int32_t src_block, int32_t dst_block,
                 int64_t slots);
  // Removes the index entry for `block`, if any.
  void DeindexBlock(int32_t block);

  PagedKvCacheConfig config_;
  // Free block ids; the back is handed out next. Reserved to num_blocks at
  // construction, so releasing never allocates.
  std::vector<int32_t> free_list_;
  // Holder count per block id; 0 for free blocks.
  std::vector<int32_t> ref_count_;
  std::map<int64_t, Sequence> sequences_;
  // [layer][block] pools of block_tokens * kv_dim halves each (K dims-major,
  // V slot-major), allocated once at construction.
  std::vector<Half> k_pool_;
  std::vector<Half> v_pool_;
  // Chained content hash -> indexed block. Keys collide only across distinct
  // chains; entries verify (block tokens) on lookup so a collision is a miss.
  std::unordered_map<uint64_t, PrefixEntry> index_;
  // Reverse map for O(1) deindex on write/free: block id -> its hash key.
  std::unordered_map<int32_t, uint64_t> block_hash_;
  int64_t cow_copies_ = 0;
};

// Moves sequence `from_seq`'s cached K/V — every layer, every token slot —
// from `from` to `to`, where it becomes sequence `to_seq` (the prefill->decode
// handoff of a disaggregated deployment). The two pools must share geometry
// (layers, kv_dim, block_tokens) and `to` must not hold `to_seq` (CHECKed).
// Returns false, mutating nothing, when `from` does not hold the sequence or
// `to` cannot allocate it; on success the destination slots hold the source
// slots' Half bits (nothing is rounded again), the destination blocks are fresh private (unshared,
// unindexed) blocks, and the source's blocks are released refcount-aware —
// a slot shared with another source sequence survives there, the copy here
// is private. Total live refcounts are conserved: the sequence's holds move
// pools, nothing leaks and nothing double-frees (the property fuzz in
// tests/paged_kv_property_test.cc drives exactly this invariant).
bool MigrateKvSequence(PagedKvCache* from, PagedKvCache* to, int64_t from_seq,
                       int64_t to_seq);

}  // namespace spinfer

#include "src/llm/kv_allocator.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/util/check.h"

namespace spinfer {

namespace {

// FNV-1a offset basis doubles as the root of every hash chain (the "parent"
// of a prompt's first block). Deterministic and platform-stable by
// construction — std::hash would tie index behavior to the standard library.
constexpr uint64_t kChainSeed = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t HashMix(uint64_t h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

// Chained block hash: parent chain hash folded with the block's token ids.
uint64_t ChainBlockHash(uint64_t parent, const int32_t* tokens, int64_t count) {
  uint64_t h = HashMix(parent, 0x626c6f636bull);  // domain-separate from parent
  for (int64_t i = 0; i < count; ++i) {
    h = HashMix(h, static_cast<uint64_t>(static_cast<uint32_t>(tokens[i])));
  }
  return h;
}

}  // namespace

PagedKvCache::PagedKvCache(const PagedKvCacheConfig& config) : config_(config) {
  SPINFER_CHECK(config.layers > 0 && config.kv_dim > 0);
  SPINFER_CHECK(config.block_tokens > 0 && config.num_blocks > 0);
  // Block ids descend so block 0 is handed out first.
  free_list_.reserve(static_cast<size_t>(config.num_blocks));
  for (int64_t b = config.num_blocks - 1; b >= 0; --b) {
    free_list_.push_back(static_cast<int32_t>(b));
  }
  ref_count_.assign(static_cast<size_t>(config.num_blocks), 0);
  const size_t halves = static_cast<size_t>(config.layers) *
                        static_cast<size_t>(config.num_blocks) *
                        static_cast<size_t>(config.block_tokens) *
                        static_cast<size_t>(config.kv_dim);
  k_pool_.assign(halves, Half(0.0f));
  v_pool_.assign(halves, Half(0.0f));
}

const PagedKvCache::Sequence& PagedKvCache::Find(int64_t seq_id) const {
  const auto it = sequences_.find(seq_id);
  SPINFER_CHECK_MSG(it != sequences_.end(), "unknown sequence: " << seq_id);
  return it->second;
}

PagedKvCache::Sequence& PagedKvCache::Find(int64_t seq_id) {
  return const_cast<Sequence&>(std::as_const(*this).Find(seq_id));
}

int32_t PagedKvCache::TakeFreeBlock() {
  const int32_t block = free_list_.back();
  free_list_.pop_back();
  ref_count_[block] = 1;
  return block;
}

void PagedKvCache::ReleaseBlock(int32_t block) {
  SPINFER_CHECK(block >= 0 && block < total_blocks() && ref_count_[block] > 0);
  if (--ref_count_[block] == 0) {
    free_list_.push_back(block);
    DeindexBlock(block);
  }
}

bool PagedKvCache::AddSequence(int64_t seq_id, int64_t tokens) {
  return AddSequenceSharing(seq_id, tokens, PrefixMatch{});
}

PagedKvCache::PrefixMatch PagedKvCache::MatchPrefix(
    const std::vector<int32_t>& prompt_tokens) const {
  PrefixMatch match;
  const int64_t bt = config_.block_tokens;
  const int64_t len = static_cast<int64_t>(prompt_tokens.size());
  // Cap at len-1 tokens: the last prompt position is always recomputed so
  // its logits (which seed generation) come from a live forward pass.
  const int64_t max_blocks = len > 0 ? (len - 1) / bt : 0;
  uint64_t parent = kChainSeed;
  for (int64_t b = 0; b < max_blocks; ++b) {
    const uint64_t h = ChainBlockHash(parent, prompt_tokens.data() + b * bt, bt);
    const auto it = index_.find(h);
    if (it == index_.end()) {
      break;
    }
    // Verify content, not just the 64-bit key: a collision (or a same-key
    // entry from a different parent chain) must degrade to a miss.
    const PrefixEntry& entry = it->second;
    if (entry.parent != parent ||
        !std::equal(entry.tokens.begin(), entry.tokens.end(),
                    prompt_tokens.begin() + b * bt)) {
      break;
    }
    match.blocks.push_back(entry.block);
    match.tokens += bt;
    parent = h;
  }
  return match;
}

bool PagedKvCache::AddSequenceSharing(int64_t seq_id, int64_t tokens,
                                      const PrefixMatch& match) {
  SPINFER_CHECK(match.tokens ==
                static_cast<int64_t>(match.blocks.size()) * config_.block_tokens);
  SPINFER_CHECK(match.tokens <= tokens);
  SPINFER_CHECK_MSG(sequences_.find(seq_id) == sequences_.end(),
                    "sequence id already registered: " << seq_id);
  const int64_t need = BlocksForTokens(tokens);
  const int64_t shared = static_cast<int64_t>(match.blocks.size());
  if (need - shared > free_blocks()) {
    return false;
  }
  Sequence seq;
  seq.tokens = tokens;
  seq.blocks.reserve(static_cast<size_t>(need));
  for (int32_t b : match.blocks) {
    SPINFER_CHECK_MSG(b >= 0 && b < total_blocks() && ref_count_[b] > 0,
                      "cannot adopt non-live block " << b);
    ++ref_count_[b];
    seq.blocks.push_back(b);
  }
  for (int64_t i = shared; i < need; ++i) {
    seq.blocks.push_back(TakeFreeBlock());
  }
  sequences_.emplace(seq_id, std::move(seq));
  return true;
}

void PagedKvCache::IndexPrefix(int64_t seq_id,
                               const std::vector<int32_t>& prompt_tokens,
                               int64_t filled) {
  const Sequence& seq = Find(seq_id);
  const int64_t bt = config_.block_tokens;
  const int64_t len = static_cast<int64_t>(prompt_tokens.size());
  SPINFER_CHECK(filled <= seq.tokens && filled <= len);
  // Same len-1 cap as MatchPrefix: never index the block holding the final
  // prompt position unless earlier tokens fill it anyway.
  const int64_t indexable = std::min(filled, len > 0 ? len - 1 : 0) / bt;
  uint64_t parent = kChainSeed;
  for (int64_t b = 0; b < indexable; ++b) {
    const uint64_t h = ChainBlockHash(parent, prompt_tokens.data() + b * bt, bt);
    const int32_t block = seq.blocks[static_cast<size_t>(b)];
    if (index_.find(h) == index_.end() && block_hash_.count(block) == 0) {
      // Otherwise: first writer wins on the hash (sharing chains through the
      // incumbent block), or this block is already filed under another
      // chain. Either way keep walking — later blocks of this prompt may
      // extend a prefix the incumbent stops at.
      PrefixEntry entry;
      entry.block = block;
      entry.parent = parent;
      entry.tokens.assign(prompt_tokens.begin() + b * bt,
                          prompt_tokens.begin() + (b + 1) * bt);
      index_.emplace(h, std::move(entry));
      block_hash_.emplace(block, h);
    }
    parent = h;
  }
}

void PagedKvCache::DeindexBlock(int32_t block) {
  const auto it = block_hash_.find(block);
  if (it == block_hash_.end()) {
    return;
  }
  index_.erase(it->second);
  block_hash_.erase(it);
}

void PagedKvCache::CopySlots(const PagedKvCache& src, int32_t src_block,
                             int32_t dst_block, int64_t slots) {
  if (slots <= 0) {
    return;
  }
  const int64_t bt = config_.block_tokens;
  const int64_t kv_dim = config_.kv_dim;
  for (int64_t layer = 0; layer < config_.layers; ++layer) {
    const Half* ks = src.k_pool_.data() + src.BlockOffset(layer, src_block);
    const Half* vs = src.v_pool_.data() + src.BlockOffset(layer, src_block);
    Half* kd = k_pool_.data() + BlockOffset(layer, dst_block);
    Half* vd = v_pool_.data() + BlockOffset(layer, dst_block);
    // K: the leading `slots` keys of every dimension; V: the leading rows.
    for (int64_t d = 0; d < kv_dim; ++d) {
      std::memcpy(kd + d * bt, ks + d * bt,
                  static_cast<size_t>(slots) * sizeof(Half));
    }
    std::memcpy(vd, vs, static_cast<size_t>(slots * kv_dim) * sizeof(Half));
  }
}

bool PagedKvCache::AppendToken(int64_t seq_id) {
  Sequence& seq = Find(seq_id);
  const int64_t bt = config_.block_tokens;
  const size_t block_index = static_cast<size_t>(seq.tokens / bt);
  if (block_index == seq.blocks.size()) {
    // The new slot opens a fresh block.
    if (free_list_.empty()) {
      return false;
    }
    seq.blocks.push_back(TakeFreeBlock());
  } else if (const int32_t shared = seq.blocks[block_index];
             ref_count_[shared] > 1) {
    // The new slot lands in a block other sequences also hold: writing would
    // corrupt them, so the sequence moves to a private copy first, carrying
    // its already-written slots bit for bit (copy-on-write).
    if (free_list_.empty()) {
      return false;
    }
    const int32_t copy = TakeFreeBlock();
    --ref_count_[shared];
    CopySlots(*this, shared, copy, seq.tokens % bt);
    seq.blocks[block_index] = copy;
    ++cow_copies_;
  }
  ++seq.tokens;
  // The block holding the new slot is about to receive a write its index
  // entry (if any) does not describe: retire the entry. Shared holders were
  // detached by the copy above, so only this sequence sees the divergence.
  DeindexBlock(seq.blocks[block_index]);
  return true;
}

void PagedKvCache::RemoveSequence(int64_t seq_id) {
  const auto it = sequences_.find(seq_id);
  if (it == sequences_.end()) {
    return;
  }
  for (int32_t block : it->second.blocks) {
    ReleaseBlock(block);
  }
  sequences_.erase(it);
}

void PagedKvCache::TruncateSequence(int64_t seq_id, int64_t tokens) {
  Sequence& seq = Find(seq_id);
  SPINFER_CHECK_MSG(tokens >= 0 && tokens <= seq.tokens,
                    "cannot truncate sequence " << seq_id << " from "
                                                << seq.tokens << " to " << tokens);
  const size_t keep = static_cast<size_t>(BlocksForTokens(tokens));
  while (seq.blocks.size() > keep) {
    ReleaseBlock(seq.blocks.back());
    seq.blocks.pop_back();
  }
  seq.tokens = tokens;
}

int64_t PagedKvCache::SequenceTokens(int64_t seq_id) const {
  const auto it = sequences_.find(seq_id);
  return it == sequences_.end() ? 0 : it->second.tokens;
}

int64_t PagedKvCache::SequenceBlocks(int64_t seq_id) const {
  const std::vector<int32_t>* blocks = SequenceBlockList(seq_id);
  return blocks == nullptr ? 0 : static_cast<int64_t>(blocks->size());
}

const std::vector<int32_t>* PagedKvCache::SequenceBlockList(int64_t seq_id) const {
  const auto it = sequences_.find(seq_id);
  return it == sequences_.end() ? nullptr : &it->second.blocks;
}

int32_t PagedKvCache::BlockRefCount(int32_t block) const {
  SPINFER_CHECK(block >= 0 && block < total_blocks());
  return ref_count_[block];
}

int64_t PagedKvCache::WastedTokenSlots() const {
  int64_t waste = 0;
  for (const auto& [id, seq] : sequences_) {
    waste += static_cast<int64_t>(seq.blocks.size()) * config_.block_tokens - seq.tokens;
  }
  return waste;
}

std::pair<int32_t, int64_t> PagedKvCache::Slot(int64_t seq_id,
                                               int64_t token) const {
  const Sequence& seq = Find(seq_id);
  SPINFER_CHECK_MSG(token >= 0 && token < seq.tokens,
                    "token slot " << token << " out of range for sequence "
                                  << seq_id);
  return {seq.blocks[static_cast<size_t>(token / config_.block_tokens)],
          token % config_.block_tokens};
}

void PagedKvCache::WriteSlot(int64_t layer, int64_t seq_id, int64_t token,
                             const float* k, const float* v, int64_t stride) {
  SPINFER_CHECK(layer >= 0 && layer < config_.layers);
  const auto [block, slot] = Slot(seq_id, token);
  const int64_t bt = config_.block_tokens;
  Half* kd = k_pool_.data() + BlockOffset(layer, block) + slot;
  Half* vd = v_pool_.data() + BlockOffset(layer, block) + slot * config_.kv_dim;
  for (int64_t r = 0; r < config_.kv_dim; ++r) {
    kd[r * bt] = Half(k[r * stride]);
    vd[r] = Half(v[r * stride]);
  }
}

void PagedKvCache::ReadSlot(int64_t layer, int64_t seq_id, int64_t token,
                            float* k, float* v) const {
  SPINFER_CHECK(layer >= 0 && layer < config_.layers);
  const auto [block, slot] = Slot(seq_id, token);
  const int64_t bt = config_.block_tokens;
  const Half* ks = k_pool_.data() + BlockOffset(layer, block) + slot;
  const Half* vs = v_pool_.data() + BlockOffset(layer, block) + slot * config_.kv_dim;
  for (int64_t r = 0; r < config_.kv_dim; ++r) {
    k[r] = ks[r * bt].ToFloat();
    v[r] = vs[r].ToFloat();
  }
}

const Half* PagedKvCache::KBlockBase(int64_t layer, int32_t block) const {
  return k_pool_.data() + BlockOffset(layer, block);
}

const Half* PagedKvCache::VBlockBase(int64_t layer, int32_t block) const {
  return v_pool_.data() + BlockOffset(layer, block);
}

bool MigrateKvSequence(PagedKvCache* from, PagedKvCache* to, int64_t from_seq,
                       int64_t to_seq) {
  SPINFER_CHECK(from != nullptr && to != nullptr && from != to);
  SPINFER_CHECK_EQ(from->config().layers, to->config().layers);
  SPINFER_CHECK_EQ(from->config().kv_dim, to->config().kv_dim);
  SPINFER_CHECK_EQ(from->config().block_tokens, to->config().block_tokens);
  const int64_t tokens = from->SequenceTokens(from_seq);
  if (tokens <= 0) {
    return false;  // unknown to the source pool
  }
  SPINFER_CHECK_MSG(to->SequenceTokens(to_seq) == 0,
                    "sequence " << to_seq << " already lives in the target pool");
  // Allocate first, copy, release last: a failed allocation leaves both
  // pools untouched, and the source rows stay readable while copied.
  if (!to->AddSequence(to_seq, tokens)) {
    return false;
  }
  const std::vector<int32_t>& src = *from->SequenceBlockList(from_seq);
  const std::vector<int32_t>& dst = *to->SequenceBlockList(to_seq);
  const int64_t bt = from->config().block_tokens;
  for (size_t i = 0; i < src.size(); ++i) {
    const int64_t first = static_cast<int64_t>(i) * bt;
    to->CopySlots(*from, src[i], dst[i], std::min(bt, tokens - first));
  }
  from->RemoveSequence(from_seq);
  return true;
}

}  // namespace spinfer

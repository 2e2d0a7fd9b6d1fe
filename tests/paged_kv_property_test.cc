// Property/fuzz tests for the paged KV cache: seeded random
// alloc/append/truncate/free sequences checked against a shadow model.
//
// Invariants enforced after every operation:
//   * Conservation: live blocks + free blocks == total blocks.
//   * Isolation: no block belongs to two live sequences (or twice to one).
//   * Token counts match the shadow model exactly; failed operations change
//     nothing.
//   * Data integrity: every live K/V row still holds the FP16 rounding of
//     the pattern written when its token was added, bit for bit — block
//     recycling never lets one sequence's writes reach another's rows, and
//     copy-on-write and migration move Half bits without rounding again.
//   * Full reclamation: draining all sequences returns every block.
#include "src/llm/kv_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <set>
#include <vector>

#include "src/util/random.h"

namespace spinfer {
namespace {

PagedKvCacheConfig SmallCache() {
  PagedKvCacheConfig cfg;
  cfg.layers = 2;
  cfg.kv_dim = 4;
  cfg.block_tokens = 4;
  cfg.num_blocks = 24;
  return cfg;
}

// A value that is not exact in FP16 and rounds to a half picked by hashing
// `code`: a finite half (multiplicative hash, exponent 31 folded away) plus
// a quarter of its ulp, which round-to-nearest-even takes back down. Every
// write through the cache therefore rounds, and two codes' halves collide
// with probability about 1/63488 per element — a row mixed up with another
// keeps all of its elements only by a many-way coincidence.
float RoundedPattern(uint64_t code) {
  uint16_t bits = static_cast<uint16_t>((code * 2654435761u) >> 16);
  if ((bits & 0x7c00u) == 0x7c00u) {
    bits ^= 0x4000u;
  }
  const float h = Half::FromBits(bits).ToFloat();
  const int exponent = std::max((bits >> 10) & 0x1f, 1);
  const float quarter_ulp = std::ldexp(1.0f, exponent - 27);
  return std::signbit(h) ? h - quarter_ulp : h + quarter_ulp;
}

// One pattern per (seq, token, layer, element); K codes are even and V codes
// odd, so K/V mixups are caught too.
float PatternK(int64_t seq, int64_t token, int64_t layer, int64_t r) {
  return RoundedPattern(
      2 * static_cast<uint64_t>(((seq * 128 + token) * 2 + layer) * 4 + r));
}
float PatternV(int64_t seq, int64_t token, int64_t layer, int64_t r) {
  return RoundedPattern(
      2 * static_cast<uint64_t>(((seq * 128 + token) * 2 + layer) * 4 + r) + 1);
}

// The stored value every read must return: the pattern's FP16 rounding, as
// float bits.
uint32_t Stored(float pattern) {
  return std::bit_cast<uint32_t>(Half(pattern).ToFloat());
}

// Slot `token` of `seq` at `layer`, widened, as float bits.
struct SlotBits {
  std::vector<uint32_t> k;
  std::vector<uint32_t> v;
};
SlotBits ReadBits(const PagedKvCache& cache, int64_t layer, int64_t seq,
                  int64_t token) {
  const size_t d = static_cast<size_t>(cache.config().kv_dim);
  std::vector<float> k(d), v(d);
  cache.ReadSlot(layer, seq, token, k.data(), v.data());
  SlotBits out{std::vector<uint32_t>(d), std::vector<uint32_t>(d)};
  for (size_t r = 0; r < d; ++r) {
    out.k[r] = std::bit_cast<uint32_t>(k[r]);
    out.v[r] = std::bit_cast<uint32_t>(v[r]);
  }
  return out;
}

// Writes pattern key `key`'s row into live sequence `seq`'s slot `token`
// (the two differ once a migration renamed the sequence).
void FillTokenAs(PagedKvCache* cache, int64_t seq, int64_t key, int64_t token) {
  const int64_t d = cache->config().kv_dim;
  std::vector<float> k(static_cast<size_t>(d)), v(static_cast<size_t>(d));
  for (int64_t layer = 0; layer < cache->config().layers; ++layer) {
    for (int64_t r = 0; r < d; ++r) {
      k[static_cast<size_t>(r)] = PatternK(key, token, layer, r);
      v[static_cast<size_t>(r)] = PatternV(key, token, layer, r);
    }
    cache->WriteSlot(layer, seq, token, k.data(), v.data());
  }
}

void FillToken(PagedKvCache* cache, int64_t seq, int64_t token) {
  FillTokenAs(cache, seq, seq, token);
}

class Shadow {
 public:
  explicit Shadow(const PagedKvCacheConfig& cfg) : cfg_(cfg) {}

  void Check(const PagedKvCache& cache) const {
    // Conservation + per-sequence bookkeeping.
    int64_t live_blocks = 0;
    std::set<int32_t> seen;
    for (const auto& [seq, tokens] : tokens_) {
      ASSERT_EQ(cache.SequenceTokens(seq), tokens);
      const std::vector<int32_t>* blocks = cache.SequenceBlockList(seq);
      ASSERT_NE(blocks, nullptr);
      const int64_t expect_blocks =
          (tokens + cfg_.block_tokens - 1) / cfg_.block_tokens;
      ASSERT_EQ(static_cast<int64_t>(blocks->size()), expect_blocks);
      live_blocks += expect_blocks;
      for (int32_t b : *blocks) {
        ASSERT_GE(b, 0);
        ASSERT_LT(b, cfg_.num_blocks);
        // Isolation: first claim wins; a duplicate means two live sequences
        // (or two positions) share storage.
        ASSERT_TRUE(seen.insert(b).second)
            << "block " << b << " owned twice (seq " << seq << ")";
      }
    }
    ASSERT_EQ(cache.used_blocks(), live_blocks);
    ASSERT_EQ(cache.free_blocks(), cfg_.num_blocks - live_blocks);

    // Data integrity of every live row.
    for (const auto& [seq, tokens] : tokens_) {
      const int64_t key = Key(seq);
      for (int64_t t = 0; t < tokens; ++t) {
        for (int64_t layer = 0; layer < cfg_.layers; ++layer) {
          const SlotBits got = ReadBits(cache, layer, seq, t);
          for (int64_t r = 0; r < cfg_.kv_dim; ++r) {
            ASSERT_EQ(got.k[static_cast<size_t>(r)],
                      Stored(PatternK(key, t, layer, r)))
                << "seq=" << seq << " token=" << t << " layer=" << layer;
            ASSERT_EQ(got.v[static_cast<size_t>(r)],
                      Stored(PatternV(key, t, layer, r)))
                << "seq=" << seq << " token=" << t << " layer=" << layer;
          }
        }
      }
    }
  }

  // The pattern key live sequence `seq`'s rows hold: its own id unless a
  // migration renamed it.
  int64_t Key(int64_t seq) const {
    const auto it = keys_.find(seq);
    return it == keys_.end() ? seq : it->second;
  }

  std::map<int64_t, int64_t> tokens_;
  std::map<int64_t, int64_t> keys_;  // live id -> pattern key; absent: the id
  PagedKvCacheConfig cfg_;
};

TEST(PagedKvPropertyTest, RandomOpSequencesPreserveInvariants) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const PagedKvCacheConfig cfg = SmallCache();
    PagedKvCache cache(cfg);
    Shadow shadow(cfg);
    Rng rng(seed);
    int64_t next_seq = 0;

    for (int op = 0; op < 400; ++op) {
      const uint64_t kind = rng.Below(10);
      if (kind < 3 || shadow.tokens_.empty()) {
        // AddSequence with a random prompt (may exceed the pool).
        const int64_t prompt = 1 + static_cast<int64_t>(rng.Below(30));
        const int64_t seq = next_seq++;
        const bool fits =
            (prompt + cfg.block_tokens - 1) / cfg.block_tokens <=
            cache.free_blocks();
        const bool ok = cache.AddSequence(seq, prompt);
        ASSERT_EQ(ok, fits) << "seed=" << seed << " op=" << op;
        if (ok) {
          shadow.tokens_[seq] = prompt;
          for (int64_t t = 0; t < prompt; ++t) {
            FillToken(&cache, seq, t);
          }
        }
      } else if (kind < 6) {
        // AppendToken on a random live sequence.
        auto it = shadow.tokens_.begin();
        std::advance(it, static_cast<int64_t>(
                             rng.Below(static_cast<uint64_t>(shadow.tokens_.size()))));
        const int64_t seq = it->first;
        const bool needs_block = it->second % cfg.block_tokens == 0;
        const bool fits = !needs_block || cache.free_blocks() > 0;
        const bool ok = cache.AppendToken(seq);
        ASSERT_EQ(ok, fits) << "seed=" << seed << " op=" << op;
        if (ok) {
          FillToken(&cache, seq, it->second);
          it->second += 1;
        } else {
          ASSERT_EQ(cache.SequenceTokens(seq), it->second);
        }
      } else if (kind < 8) {
        // TruncateSequence to a random smaller length (0 keeps the sequence
        // registered with no tokens is not supported; keep >= 1).
        auto it = shadow.tokens_.begin();
        std::advance(it, static_cast<int64_t>(
                             rng.Below(static_cast<uint64_t>(shadow.tokens_.size()))));
        const int64_t keep =
            1 + static_cast<int64_t>(rng.Below(static_cast<uint64_t>(it->second)));
        cache.TruncateSequence(it->first, keep);
        it->second = keep;
      } else {
        // RemoveSequence.
        auto it = shadow.tokens_.begin();
        std::advance(it, static_cast<int64_t>(
                             rng.Below(static_cast<uint64_t>(shadow.tokens_.size()))));
        cache.RemoveSequence(it->first);
        shadow.tokens_.erase(it);
      }
      shadow.Check(cache);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }

    // Drain: every block comes back; no fragmentation is left behind.
    while (!shadow.tokens_.empty()) {
      cache.RemoveSequence(shadow.tokens_.begin()->first);
      shadow.tokens_.erase(shadow.tokens_.begin());
      shadow.Check(cache);
    }
    EXPECT_EQ(cache.free_blocks(), cfg.num_blocks);
    EXPECT_EQ(cache.used_blocks(), 0);
    EXPECT_EQ(cache.WastedTokenSlots(), 0);
  }
}

// --- Shared-prefix / refcount / copy-on-write fuzz --------------------------
//
// The sharing oracle needs content-derived patterns: a slot's expected value
// depends on WHICH token sits at WHICH position, never on which sequence
// wrote it — exactly the property that makes prefix blocks adoptable. On top
// of the original invariants (minus exclusive ownership, which sharing
// deliberately breaks) this checks:
//   * Refcount conservation: every block's refcount equals the number of
//     times live sequences hold it; distinct held blocks == used_blocks.
//   * No write-after-share without a copy: appending into a shared block
//     swaps in a fresh private block and bumps cow_copies; appending into a
//     private block never does.
//   * Full reclamation: draining returns every block and empties the index.

// Expected K/V for position `pos` holding token id `tok` (writer-agnostic).
float SharedPatternK(int32_t tok, int64_t pos, int64_t layer, int64_t r) {
  return RoundedPattern(2 * static_cast<uint64_t>(
      ((static_cast<int64_t>(tok) * 64 + pos) * 2 + layer) * 4 + r));
}
float SharedPatternV(int32_t tok, int64_t pos, int64_t layer, int64_t r) {
  return RoundedPattern(2 * static_cast<uint64_t>(
      ((static_cast<int64_t>(tok) * 64 + pos) * 2 + layer) * 4 + r) + 1);
}

void FillSharedToken(PagedKvCache* cache, int64_t seq, int64_t pos, int32_t tok) {
  const int64_t d = cache->config().kv_dim;
  std::vector<float> k(static_cast<size_t>(d)), v(static_cast<size_t>(d));
  for (int64_t layer = 0; layer < cache->config().layers; ++layer) {
    for (int64_t r = 0; r < d; ++r) {
      k[static_cast<size_t>(r)] = SharedPatternK(tok, pos, layer, r);
      v[static_cast<size_t>(r)] = SharedPatternV(tok, pos, layer, r);
    }
    cache->WriteSlot(layer, seq, pos, k.data(), v.data());
  }
}

// Shadow for the sharing oracle: per-sequence token content.
class SharedShadow {
 public:
  explicit SharedShadow(const PagedKvCacheConfig& cfg) : cfg_(cfg) {}

  void Check(const PagedKvCache& cache) const {
    // Refcount conservation: multiplicity across live sequences.
    std::map<int32_t, int32_t> holders;
    for (const auto& [seq, content] : content_) {
      const int64_t tokens = static_cast<int64_t>(content.size());
      ASSERT_EQ(cache.SequenceTokens(seq), tokens);
      const std::vector<int32_t>* blocks = cache.SequenceBlockList(seq);
      ASSERT_NE(blocks, nullptr);
      const int64_t expect_blocks =
          (tokens + cfg_.block_tokens - 1) / cfg_.block_tokens;
      ASSERT_EQ(static_cast<int64_t>(blocks->size()), expect_blocks);
      for (int32_t b : *blocks) {
        ASSERT_GE(b, 0);
        ASSERT_LT(b, cfg_.num_blocks);
        ++holders[b];
      }
    }
    int64_t distinct = 0;
    for (const auto& [b, count] : holders) {
      ASSERT_EQ(cache.BlockRefCount(b), count) << "block " << b;
      ++distinct;
    }
    for (int32_t b = 0; b < cfg_.num_blocks; ++b) {
      if (holders.find(b) == holders.end()) {
        ASSERT_EQ(cache.BlockRefCount(b), 0) << "leaked refcount on block " << b;
      }
    }
    ASSERT_EQ(cache.used_blocks(), distinct);
    ASSERT_EQ(cache.free_blocks(), cfg_.num_blocks - distinct);

    // Data integrity: every sequence reads its own content, bit for bit,
    // through whatever physical blocks (shared or private) back it.
    for (const auto& [seq, content] : content_) {
      for (int64_t t = 0; t < static_cast<int64_t>(content.size()); ++t) {
        for (int64_t layer = 0; layer < cfg_.layers; ++layer) {
          const SlotBits got = ReadBits(cache, layer, seq, t);
          const int32_t tok = content[static_cast<size_t>(t)];
          for (int64_t r = 0; r < cfg_.kv_dim; ++r) {
            ASSERT_EQ(got.k[static_cast<size_t>(r)],
                      Stored(SharedPatternK(tok, t, layer, r)))
                << "seq=" << seq << " token=" << t << " layer=" << layer;
            ASSERT_EQ(got.v[static_cast<size_t>(r)],
                      Stored(SharedPatternV(tok, t, layer, r)))
                << "seq=" << seq << " token=" << t << " layer=" << layer;
          }
        }
      }
    }
  }

  std::map<int64_t, std::vector<int32_t>> content_;
  PagedKvCacheConfig cfg_;
};

TEST(PagedKvPropertyTest, SharedBlockFuzzPreservesRefcountsAndData) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const PagedKvCacheConfig cfg = SmallCache();
    PagedKvCache cache(cfg);
    SharedShadow shadow(cfg);
    Rng rng(seed);
    int64_t next_seq = 0;
    // A small pool of "system prompts" so arrivals actually share prefixes.
    std::vector<std::vector<int32_t>> bases;
    for (int64_t i = 0; i < 3; ++i) {
      std::vector<int32_t> base(static_cast<size_t>(5 + 4 * i));
      for (int32_t& tok : base) {
        tok = static_cast<int32_t>(rng.Below(50));
      }
      bases.push_back(std::move(base));
    }

    for (int op = 0; op < 300; ++op) {
      const uint64_t kind = rng.Below(10);
      if (kind < 3 || shadow.content_.empty()) {
        // Add with a shared-prefix match against the live index.
        std::vector<int32_t> prompt = bases[rng.Below(bases.size())];
        const int64_t tail = static_cast<int64_t>(rng.Below(7));
        for (int64_t i = 0; i < tail; ++i) {
          prompt.push_back(static_cast<int32_t>(rng.Below(50)));
        }
        const int64_t len = static_cast<int64_t>(prompt.size());
        const PagedKvCache::PrefixMatch match = cache.MatchPrefix(prompt);
        ASSERT_LE(match.tokens, len - 1);
        ASSERT_EQ(match.tokens % cfg.block_tokens, 0);
        const int64_t need =
            (len + cfg.block_tokens - 1) / cfg.block_tokens -
            static_cast<int64_t>(match.blocks.size());
        const bool fits = need <= cache.free_blocks();
        const int64_t seq = next_seq++;
        ASSERT_EQ(cache.AddSequenceSharing(seq, len, match), fits)
            << "seed=" << seed << " op=" << op;
        if (fits) {
          // Only the unmatched tail gets written; matched slots must already
          // hold this prompt's content (Check verifies exactly that).
          for (int64_t t = match.tokens; t < len; ++t) {
            FillSharedToken(&cache, seq, t, prompt[static_cast<size_t>(t)]);
          }
          cache.IndexPrefix(seq, prompt, len);
          shadow.content_[seq] = std::move(prompt);
        }
      } else if (kind < 6) {
        // Append: must copy-on-write when the target block is shared.
        auto it = shadow.content_.begin();
        std::advance(it, static_cast<int64_t>(rng.Below(
                             static_cast<uint64_t>(shadow.content_.size()))));
        const int64_t seq = it->first;
        const int64_t tokens = static_cast<int64_t>(it->second.size());
        const bool needs_block = tokens % cfg.block_tokens == 0;
        int32_t target_block = -1;
        bool shared_target = false;
        if (!needs_block) {
          target_block = (*cache.SequenceBlockList(seq))[static_cast<size_t>(
              tokens / cfg.block_tokens)];
          shared_target = cache.BlockRefCount(target_block) > 1;
        }
        const bool fits =
            (needs_block || shared_target) ? cache.free_blocks() > 0 : true;
        const int64_t cow_before = cache.cow_copies();
        const bool ok = cache.AppendToken(seq);
        ASSERT_EQ(ok, fits) << "seed=" << seed << " op=" << op;
        if (ok) {
          if (shared_target) {
            // The write may not land in the shared block: a private copy
            // must have been swapped in.
            const int32_t now_block = (*cache.SequenceBlockList(
                seq))[static_cast<size_t>(tokens / cfg.block_tokens)];
            ASSERT_NE(now_block, target_block);
            ASSERT_EQ(cache.cow_copies(), cow_before + 1);
          } else {
            ASSERT_EQ(cache.cow_copies(), cow_before);
          }
          const int32_t tok = static_cast<int32_t>(rng.Below(50));
          FillSharedToken(&cache, seq, tokens, tok);
          it->second.push_back(tok);
        } else {
          ASSERT_EQ(cache.SequenceTokens(seq), tokens);
        }
      } else if (kind < 8) {
        // Truncate (drops refs on released tail blocks).
        auto it = shadow.content_.begin();
        std::advance(it, static_cast<int64_t>(rng.Below(
                             static_cast<uint64_t>(shadow.content_.size()))));
        const int64_t keep = 1 + static_cast<int64_t>(rng.Below(
                                     static_cast<uint64_t>(it->second.size())));
        cache.TruncateSequence(it->first, keep);
        it->second.resize(static_cast<size_t>(keep));
      } else {
        // Remove ("cancel"): shared blocks must survive for other holders.
        auto it = shadow.content_.begin();
        std::advance(it, static_cast<int64_t>(rng.Below(
                             static_cast<uint64_t>(shadow.content_.size()))));
        cache.RemoveSequence(it->first);
        shadow.content_.erase(it);
      }
      shadow.Check(cache);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }

    // Drain: every block comes back and the prefix index empties with them.
    while (!shadow.content_.empty()) {
      cache.RemoveSequence(shadow.content_.begin()->first);
      shadow.content_.erase(shadow.content_.begin());
      shadow.Check(cache);
    }
    EXPECT_EQ(cache.free_blocks(), cfg.num_blocks);
    EXPECT_EQ(cache.used_blocks(), 0);
    EXPECT_EQ(cache.WastedTokenSlots(), 0);
    EXPECT_EQ(cache.indexed_blocks(), 0);
  }
}

// Adopting a matched prefix then appending must never corrupt the sequences
// the blocks were adopted from (the copy-on-write contract, deterministically).
TEST(PagedKvPropertyTest, CopyOnWriteIsolatesDivergentAppends) {
  const PagedKvCacheConfig cfg = SmallCache();
  PagedKvCache cache(cfg);
  // Seed sequence: 9 tokens = 2 full blocks + 1 partial; index its prefix.
  std::vector<int32_t> prompt = {3, 1, 4, 1, 5, 9, 2, 6, 5};
  ASSERT_TRUE(cache.AddSequence(0, static_cast<int64_t>(prompt.size())));
  for (size_t t = 0; t < prompt.size(); ++t) {
    FillSharedToken(&cache, 0, static_cast<int64_t>(t), prompt[t]);
  }
  cache.IndexPrefix(0, prompt, static_cast<int64_t>(prompt.size()));
  EXPECT_EQ(cache.indexed_blocks(), 2);

  // Adopter shares both full blocks, writes only its last token.
  const PagedKvCache::PrefixMatch match = cache.MatchPrefix(prompt);
  ASSERT_EQ(match.tokens, 8);
  ASSERT_TRUE(cache.AddSequenceSharing(1, static_cast<int64_t>(prompt.size()), match));
  FillSharedToken(&cache, 1, 8, prompt[8]);
  EXPECT_EQ(cache.BlockRefCount(match.blocks[0]), 2);
  EXPECT_EQ(cache.BlockRefCount(match.blocks[1]), 2);

  // Truncate the adopter into the SHARED second block, then append a
  // divergent token there: copy-on-write must fire and the seed sequence
  // must keep reading its original content.
  cache.TruncateSequence(1, 6);
  ASSERT_TRUE(cache.AppendToken(1));
  EXPECT_EQ(cache.cow_copies(), 1);
  FillSharedToken(&cache, 1, 6, 42);
  for (size_t t = 0; t < prompt.size(); ++t) {
    for (int64_t layer = 0; layer < cfg.layers; ++layer) {
      const SlotBits got = ReadBits(cache, layer, 0, static_cast<int64_t>(t));
      for (int64_t r = 0; r < cfg.kv_dim; ++r) {
        EXPECT_EQ(got.k[static_cast<size_t>(r)],
                  Stored(SharedPatternK(prompt[t], static_cast<int64_t>(t),
                                        layer, r)));
      }
    }
  }
  // The adopter's retained slots survived the copy; its divergent slot reads
  // back the new token.
  for (int64_t t = 0; t < 6; ++t) {
    EXPECT_EQ(ReadBits(cache, 0, 1, t).k[0],
              Stored(SharedPatternK(prompt[static_cast<size_t>(t)], t, 0, 0)));
  }
  EXPECT_EQ(ReadBits(cache, 0, 1, 6).k[0], Stored(SharedPatternK(42, 6, 0, 0)));
}

// --- Cross-pool migration fuzz ----------------------------------------------
//
// MigrateKvSequence is the disaggregated handoff primitive: a sequence's
// pages leave the prefill pool and land in the decode pool. The oracle runs
// TWO caches with independent shadows and randomly adds, appends, removes,
// and migrates in both directions. On top of each pool's own invariants
// (conservation, isolation, token counts, bit-exact rows) this enforces:
//   * Refcount conservation across pools: a migrated sequence's blocks are
//     released at the source and claimed at the target — never both, never
//     neither — so each pool's used+free always equals its total.
//   * No cross-pool aliasing: pools never share storage, so mutating one
//     pool after a handoff can never corrupt rows the other pool still
//     holds (every row of both pools is re-read after every op).
//   * Bit-exact transport: the Pattern oracle is keyed by (seq, token), not
//     by pool, so a migrated sequence must read back the same bits through
//     its new pages. Half the migrations rename the sequence (a fresh
//     destination id, as a decode engine numbers its own requests); the
//     shadow then tracks which pattern key each live id holds.
//   * A migration the target cannot hold fails cleanly: false, source
//     untouched, destination id unregistered.
//   * Full reclamation of both pools after a drain.
TEST(PagedKvPropertyTest, MigrationFuzzConservesBlocksAndBits) {
  for (uint64_t seed : {11ull, 12ull, 13ull, 14ull, 15ull}) {
    const PagedKvCacheConfig cfg = SmallCache();
    PagedKvCache pool_a(cfg);  // "prefill"
    PagedKvCache pool_b(cfg);  // "decode"
    Shadow shadow_a(cfg), shadow_b(cfg);
    Rng rng(seed);
    int64_t next_seq = 0;
    int64_t migrations = 0;
    int64_t renamed = 0;

    auto check_both = [&]() {
      shadow_a.Check(pool_a);
      shadow_b.Check(pool_b);
    };

    for (int op = 0; op < 400; ++op) {
      const uint64_t kind = rng.Below(10);
      const bool pick_a = rng.Below(2) == 0;
      PagedKvCache& pool = pick_a ? pool_a : pool_b;
      Shadow& shadow = pick_a ? shadow_a : shadow_b;
      if (kind < 3 || (shadow_a.tokens_.empty() && shadow_b.tokens_.empty())) {
        const int64_t prompt = 1 + static_cast<int64_t>(rng.Below(20));
        const int64_t seq = next_seq++;
        const bool fits =
            (prompt + cfg.block_tokens - 1) / cfg.block_tokens <=
            pool.free_blocks();
        ASSERT_EQ(pool.AddSequence(seq, prompt), fits)
            << "seed=" << seed << " op=" << op;
        if (fits) {
          shadow.tokens_[seq] = prompt;
          for (int64_t t = 0; t < prompt; ++t) {
            FillToken(&pool, seq, t);
          }
        }
      } else if (kind < 6) {
        // Migrate a random live sequence to the other pool.
        Shadow& from_shadow = shadow_a.tokens_.empty() ? shadow_b
                              : shadow_b.tokens_.empty()
                                  ? shadow_a
                                  : (pick_a ? shadow_a : shadow_b);
        PagedKvCache& from = &from_shadow == &shadow_a ? pool_a : pool_b;
        PagedKvCache& to = &from_shadow == &shadow_a ? pool_b : pool_a;
        Shadow& to_shadow = &from_shadow == &shadow_a ? shadow_b : shadow_a;
        auto it = from_shadow.tokens_.begin();
        std::advance(it, static_cast<int64_t>(rng.Below(static_cast<uint64_t>(
                             from_shadow.tokens_.size()))));
        const int64_t seq = it->first;
        const int64_t tokens = it->second;
        const int64_t to_seq = rng.Below(2) == 0 ? next_seq++ : seq;
        const bool fits =
            (tokens + cfg.block_tokens - 1) / cfg.block_tokens <=
            to.free_blocks();
        ASSERT_EQ(MigrateKvSequence(&from, &to, seq, to_seq), fits)
            << "seed=" << seed << " op=" << op;
        if (fits) {
          to_shadow.tokens_[to_seq] = tokens;
          to_shadow.keys_[to_seq] = from_shadow.Key(seq);
          from_shadow.tokens_.erase(it);
          from_shadow.keys_.erase(seq);
          ++migrations;
          renamed += to_seq != seq ? 1 : 0;
        } else {
          // Failed handoff leaves the source holding the sequence and the
          // target without it.
          ASSERT_EQ(from.SequenceTokens(seq), tokens);
          ASSERT_EQ(to.SequenceTokens(to_seq), 0);
        }
      } else if (kind < 8 && !shadow.tokens_.empty()) {
        auto it = shadow.tokens_.begin();
        std::advance(it, static_cast<int64_t>(rng.Below(
                             static_cast<uint64_t>(shadow.tokens_.size()))));
        const bool needs_block = it->second % cfg.block_tokens == 0;
        const bool fits = !needs_block || pool.free_blocks() > 0;
        ASSERT_EQ(pool.AppendToken(it->first), fits)
            << "seed=" << seed << " op=" << op;
        if (fits) {
          FillTokenAs(&pool, it->first, shadow.Key(it->first), it->second);
          it->second += 1;
        }
      } else if (!shadow.tokens_.empty()) {
        auto it = shadow.tokens_.begin();
        std::advance(it, static_cast<int64_t>(rng.Below(
                             static_cast<uint64_t>(shadow.tokens_.size()))));
        pool.RemoveSequence(it->first);
        shadow.keys_.erase(it->first);
        shadow.tokens_.erase(it);
      }
      check_both();
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    EXPECT_GT(migrations, 10) << "seed=" << seed;  // the fuzz actually migrated
    EXPECT_GT(renamed, 3) << "seed=" << seed;       // ... and renamed

    // Drain both pools: every block comes back on both sides.
    while (!shadow_a.tokens_.empty()) {
      pool_a.RemoveSequence(shadow_a.tokens_.begin()->first);
      shadow_a.tokens_.erase(shadow_a.tokens_.begin());
    }
    while (!shadow_b.tokens_.empty()) {
      pool_b.RemoveSequence(shadow_b.tokens_.begin()->first);
      shadow_b.tokens_.erase(shadow_b.tokens_.begin());
    }
    check_both();
    for (PagedKvCache* pool : {&pool_a, &pool_b}) {
      EXPECT_EQ(pool->free_blocks(), cfg.num_blocks);
      EXPECT_EQ(pool->used_blocks(), 0);
      EXPECT_EQ(pool->WastedTokenSlots(), 0);
    }
  }
}

// Growth across a block boundary must not move data already written — the
// page table grows, the rows stay put.
TEST(PagedKvPropertyTest, AppendAcrossBlockBoundaryKeepsEarlierRows) {
  const PagedKvCacheConfig cfg = SmallCache();
  PagedKvCache cache(cfg);
  ASSERT_TRUE(cache.AddSequence(7, cfg.block_tokens));  // exactly one block
  for (int64_t t = 0; t < cfg.block_tokens; ++t) {
    FillToken(&cache, 7, t);
  }
  const int32_t before = (*cache.SequenceBlockList(7))[0];
  ASSERT_TRUE(cache.AppendToken(7));  // forces a second block
  FillToken(&cache, 7, cfg.block_tokens);
  EXPECT_EQ((*cache.SequenceBlockList(7))[0], before);
  for (int64_t t = 0; t <= cfg.block_tokens; ++t) {
    for (int64_t layer = 0; layer < cfg.layers; ++layer) {
      const SlotBits got = ReadBits(cache, layer, 7, t);
      for (int64_t r = 0; r < cfg.kv_dim; ++r) {
        EXPECT_EQ(got.k[static_cast<size_t>(r)], Stored(PatternK(7, t, layer, r)));
        EXPECT_EQ(got.v[static_cast<size_t>(r)], Stored(PatternV(7, t, layer, r)));
      }
    }
  }
}

// The page format: a slot reads back the FP16 rounding of what was written,
// bit for bit — round-to-nearest-even at ties (normal, subnormal and at the
// overflow edge), signed zero and infinities kept, a NaN still a NaN.
TEST(PagedKvPropertyTest, WriteThenReadReturnsTheHalfRoundingBitwise) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> values = {
      1.0f + std::ldexp(1.0f, -11),      // tie -> 1.0 (even)
      1.0f + 3 * std::ldexp(1.0f, -11),  // tie -> 1 + 2^-9 (even)
      -(1.0f + std::ldexp(1.0f, -11)),   // negative tie -> -1.0
      std::ldexp(1.0f, -25),             // subnormal tie -> +0
      3 * std::ldexp(1.0f, -25),         // subnormal tie -> 2^-23
      65519.0f,                          // below the overflow tie -> 65504
      65520.0f,                          // overflow tie -> +inf
      -0.0f,
      inf,
      -inf,
      0.1f,
      -1e6f,                             // overflow -> -inf
      std::ldexp(1.0f, -130),            // float subnormal -> +0
      std::numeric_limits<float>::quiet_NaN(),
  };
  // The ties' expected halves, spelled out.
  EXPECT_EQ(Half(values[0]).bits(), 0x3c00u);
  EXPECT_EQ(Half(values[1]).bits(), 0x3c02u);
  EXPECT_EQ(Half(values[2]).bits(), 0xbc00u);
  EXPECT_EQ(Half(values[3]).bits(), 0x0000u);
  EXPECT_EQ(Half(values[4]).bits(), 0x0002u);
  EXPECT_EQ(Half(values[5]).bits(), 0x7bffu);
  EXPECT_EQ(Half(values[6]).bits(), 0x7c00u);

  const int64_t n = static_cast<int64_t>(values.size());
  PagedKvCacheConfig cfg;
  cfg.layers = 2;
  cfg.kv_dim = n;
  cfg.block_tokens = 4;
  cfg.num_blocks = 3;
  PagedKvCache cache(cfg);
  ASSERT_TRUE(cache.AddSequence(0, 6));
  std::vector<float> reversed(values.rbegin(), values.rend());
  for (int64_t layer = 0; layer < cfg.layers; ++layer) {
    for (int64_t t = 0; t < 6; ++t) {
      cache.WriteSlot(layer, 0, t, layer == 0 ? values.data() : reversed.data(),
                      layer == 0 ? reversed.data() : values.data());
    }
  }
  for (int64_t layer = 0; layer < cfg.layers; ++layer) {
    for (int64_t t = 0; t < 6; ++t) {
      std::vector<float> k(values.size()), v(values.size());
      cache.ReadSlot(layer, 0, t, k.data(), v.data());
      const std::vector<float>& want_k = layer == 0 ? values : reversed;
      const std::vector<float>& want_v = layer == 0 ? reversed : values;
      for (size_t r = 0; r < values.size(); ++r) {
        for (const auto& [got, want] :
             {std::pair{k[r], want_k[r]}, std::pair{v[r], want_v[r]}}) {
          if (std::isnan(want)) {
            EXPECT_TRUE(std::isnan(got)) << "layer " << layer << " slot " << t;
          } else {
            EXPECT_EQ(std::bit_cast<uint32_t>(got), Stored(want))
                << "value " << want << " layer " << layer << " slot " << t;
          }
        }
      }
    }
  }
}

TEST(PagedKvPropertyTest, StorageBytesCountsHalves) {
  PagedKvCacheConfig cfg;
  cfg.layers = 3;
  cfg.kv_dim = 12;
  cfg.block_tokens = 4;
  cfg.num_blocks = 7;
  const PagedKvCache cache(cfg);
  EXPECT_EQ(cache.StorageBytes(), 2u * 3 * 7 * 4 * 12 * sizeof(Half));
}

}  // namespace
}  // namespace spinfer

// Block bookkeeping of PagedKvCache: free list, token-granular growth,
// truncation and recycling, on a one-layer pool whose K/V storage the tests
// never touch.
#include "src/llm/kv_allocator.h"

#include <gtest/gtest.h>

namespace spinfer {
namespace {

PagedKvCacheConfig SmallPool() {
  PagedKvCacheConfig cfg;
  cfg.layers = 1;
  cfg.kv_dim = 1;
  cfg.block_tokens = 16;
  cfg.num_blocks = 100;
  return cfg;
}

TEST(KvAllocatorTest, PoolSizing) {
  const PagedKvCache alloc(SmallPool());
  EXPECT_EQ(alloc.total_blocks(), 100);
  EXPECT_EQ(alloc.free_blocks(), 100);
  EXPECT_DOUBLE_EQ(alloc.Utilization(), 0.0);
}

TEST(KvAllocatorTest, PromptAllocationRoundsUpToBlocks) {
  PagedKvCache alloc(SmallPool());
  ASSERT_TRUE(alloc.AddSequence(1, 17));  // 2 blocks for 17 tokens
  EXPECT_EQ(alloc.SequenceBlocks(1), 2);
  EXPECT_EQ(alloc.SequenceTokens(1), 17);
  EXPECT_EQ(alloc.used_blocks(), 2);
  EXPECT_EQ(alloc.WastedTokenSlots(), 32 - 17);
}

TEST(KvAllocatorTest, AppendGrowsBlockwise) {
  PagedKvCache alloc(SmallPool());
  ASSERT_TRUE(alloc.AddSequence(1, 16));  // exactly one block
  EXPECT_EQ(alloc.SequenceBlocks(1), 1);
  ASSERT_TRUE(alloc.AppendToken(1));  // token 17 -> needs block 2
  EXPECT_EQ(alloc.SequenceBlocks(1), 2);
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(alloc.AppendToken(1));  // fills block 2, no new allocations
  }
  EXPECT_EQ(alloc.SequenceBlocks(1), 2);
}

TEST(KvAllocatorTest, ExhaustionRefusesAdmissionNotCorruption) {
  PagedKvCache alloc(SmallPool());
  ASSERT_TRUE(alloc.AddSequence(1, 100 * 16 - 16));  // 99 blocks
  EXPECT_EQ(alloc.free_blocks(), 1);
  EXPECT_FALSE(alloc.AddSequence(2, 32));  // needs 2, only 1 free
  EXPECT_EQ(alloc.free_blocks(), 1);       // failed admission allocates nothing
  ASSERT_TRUE(alloc.AddSequence(3, 16));   // exactly the last block
  EXPECT_FALSE(alloc.AppendToken(3));      // pool exhausted at the boundary
  EXPECT_EQ(alloc.SequenceTokens(3), 16);  // failed append doesn't advance
}

TEST(KvAllocatorTest, RemoveRecyclesBlocks) {
  PagedKvCache alloc(SmallPool());
  ASSERT_TRUE(alloc.AddSequence(1, 640));  // 40 blocks
  ASSERT_TRUE(alloc.AddSequence(2, 640));  // 40 blocks
  EXPECT_FALSE(alloc.AddSequence(3, 640));  // 20 free < 40 needed
  EXPECT_EQ(alloc.free_blocks(), 20);       // the refusal allocated nothing
  alloc.RemoveSequence(1);
  ASSERT_TRUE(alloc.AddSequence(3, 640));
  EXPECT_EQ(alloc.used_blocks(), 80);
}

TEST(KvAllocatorTest, ManySequencesChurn) {
  PagedKvCache alloc(SmallPool());
  // Admit/retire waves; the free list must never leak blocks.
  for (int wave = 0; wave < 10; ++wave) {
    for (int64_t s = 0; s < 20; ++s) {
      ASSERT_TRUE(alloc.AddSequence(wave * 100 + s, 64));  // 4 blocks each
    }
    EXPECT_EQ(alloc.used_blocks(), 80);
    for (int64_t s = 0; s < 20; ++s) {
      alloc.RemoveSequence(wave * 100 + s);
    }
    EXPECT_EQ(alloc.free_blocks(), 100);
  }
}

TEST(KvAllocatorTest, TruncateReleasesTailBlocksAndKeepsPrefix) {
  PagedKvCache alloc(SmallPool());
  ASSERT_TRUE(alloc.AddSequence(1, 50));  // 4 blocks (ceil(50/16))
  const std::vector<int32_t> before = *alloc.SequenceBlockList(1);
  ASSERT_EQ(before.size(), 4u);

  alloc.TruncateSequence(1, 20);  // back to 2 blocks
  EXPECT_EQ(alloc.SequenceTokens(1), 20);
  EXPECT_EQ(alloc.SequenceBlocks(1), 2);
  EXPECT_EQ(alloc.free_blocks(), 100 - 2);
  // The surviving blocks are the original prefix, in order — truncation must
  // not shuffle the mapping of earlier tokens.
  const std::vector<int32_t>* after = alloc.SequenceBlockList(1);
  ASSERT_NE(after, nullptr);
  ASSERT_EQ(after->size(), 2u);
  EXPECT_EQ((*after)[0], before[0]);
  EXPECT_EQ((*after)[1], before[1]);

  // Truncate to a count inside the current last block: no block released.
  alloc.TruncateSequence(1, 17);
  EXPECT_EQ(alloc.SequenceBlocks(1), 2);
  // Truncate to zero keeps the sequence registered but holds no blocks.
  alloc.TruncateSequence(1, 0);
  EXPECT_EQ(alloc.SequenceTokens(1), 0);
  EXPECT_EQ(alloc.SequenceBlocks(1), 0);
  EXPECT_EQ(alloc.free_blocks(), 100);
  // Regrowth after a rewind works like fresh appends.
  ASSERT_TRUE(alloc.AppendToken(1));
  EXPECT_EQ(alloc.SequenceTokens(1), 1);
  EXPECT_EQ(alloc.SequenceBlocks(1), 1);
}

TEST(KvAllocatorTest, BlockListIsStableUnderOtherSequencesChurn) {
  PagedKvCache alloc(SmallPool());
  ASSERT_TRUE(alloc.AddSequence(7, 33));  // 3 blocks
  const std::vector<int32_t> pinned = *alloc.SequenceBlockList(7);
  for (int wave = 0; wave < 5; ++wave) {
    ASSERT_TRUE(alloc.AddSequence(100 + wave, 64));
    alloc.RemoveSequence(100 + wave);
  }
  const std::vector<int32_t>* now = alloc.SequenceBlockList(7);
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(*now, pinned);
  EXPECT_EQ(alloc.SequenceBlockList(999), nullptr);  // unknown id
}

}  // namespace
}  // namespace spinfer

#include "util/shared_append_array.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace culevo {
namespace {

std::vector<int> ToVec(const SharedAppendArray<int>& array) {
  return std::vector<int>(array.span().begin(), array.span().end());
}

TEST(SharedAppendArrayTest, AppendsLikeAVector) {
  SharedAppendArray<int> array;
  EXPECT_TRUE(array.empty());
  EXPECT_TRUE(array.span().empty());
  for (int i = 0; i < 100; ++i) array.push_back(i);
  const std::vector<int> more = {100, 101, 102};
  array.Append(more);
  ASSERT_EQ(array.size(), 103u);
  for (int i = 0; i < 103; ++i) EXPECT_EQ(array[i], i);
  EXPECT_EQ(array.back(), 102);
}

TEST(SharedAppendArrayTest, CopyExtendsInPlaceAndOriginalKeepsItsPrefix) {
  SharedAppendArray<int> original;
  original.Reserve(8);
  original.Append(std::vector<int>{1, 2, 3});
  SharedAppendArray<int> copy = original;
  copy.Append(std::vector<int>{4, 5});
  // The copy wrote into the shared storage's spare room...
  EXPECT_EQ(copy.span().data(), original.span().data());
  // ...past the end the original sees.
  EXPECT_EQ(ToVec(original), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ToVec(copy), (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(SharedAppendArrayTest, SecondCopyOfAPrefixMovesToItsOwnStorage) {
  SharedAppendArray<int> original;
  original.Reserve(8);
  original.Append(std::vector<int>{1, 2});
  SharedAppendArray<int> first = original;
  SharedAppendArray<int> second = original;
  first.Append(std::vector<int>{10, 11});
  // `first` has claimed the room past the shared prefix: `second` must not
  // write there.
  second.Append(std::vector<int>{20});
  EXPECT_NE(second.span().data(), original.span().data());
  EXPECT_EQ(ToVec(original), (std::vector<int>{1, 2}));
  EXPECT_EQ(ToVec(first), (std::vector<int>{1, 2, 10, 11}));
  EXPECT_EQ(ToVec(second), (std::vector<int>{1, 2, 20}));
  // The original itself can no longer extend in place either.
  original.push_back(30);
  EXPECT_EQ(ToVec(original), (std::vector<int>{1, 2, 30}));
  EXPECT_EQ(ToVec(first), (std::vector<int>{1, 2, 10, 11}));
}

TEST(SharedAppendArrayTest, ChainOfCopiesGrowsGeometrically) {
  // Each generation copies the last and appends one element: storage is
  // reallocated O(log n) times, and every generation keeps its prefix.
  std::vector<SharedAppendArray<int>> generations(1);
  const int* storage = nullptr;
  int moves = 0;
  for (int i = 0; i < 1000; ++i) {
    SharedAppendArray<int> next = generations.back();
    next.push_back(i);
    if (next.span().data() != storage) ++moves;
    storage = next.span().data();
    generations.push_back(std::move(next));
  }
  EXPECT_LE(moves, 12);
  for (size_t g = 0; g < generations.size(); ++g) {
    ASSERT_EQ(generations[g].size(), g);
    for (size_t i = 0; i < g; ++i) EXPECT_EQ(generations[g][i], int(i));
  }
}

// Readers of one generation run while a single writer extends copies of
// it: the writer only writes past every reader's end (run under tsan).
TEST(SharedAppendArrayTest, ReadersOfAGenerationRaceNoAppend) {
  SharedAppendArray<uint32_t> base;
  for (uint32_t i = 0; i < 1000; ++i) base.push_back(i);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&base, &done] {
      uint64_t sum = 0;
      while (!done.load(std::memory_order_relaxed)) {
        for (uint32_t value : base.span()) sum += value;
      }
      EXPECT_GT(sum, 0u);
    });
  }
  SharedAppendArray<uint32_t> writer = base;
  for (uint32_t i = 0; i < 20000; ++i) {
    SharedAppendArray<uint32_t> next = writer;
    next.push_back(1000 + i);
    writer = std::move(next);
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  ASSERT_EQ(base.size(), 1000u);
  ASSERT_EQ(writer.size(), 21000u);
  for (uint32_t i = 0; i < 21000; ++i) ASSERT_EQ(writer[i], i);
}

}  // namespace
}  // namespace culevo

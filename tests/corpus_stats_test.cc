#include "corpus/corpus_stats.h"

#include <gtest/gtest.h>

namespace culevo {
namespace {

TEST(CorpusStatsTest, PerCuisineStatistics) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {1, 2}).ok());
  ASSERT_TRUE(builder.Add(0, {1, 2, 3, 4}).ok());
  ASSERT_TRUE(builder.Add(3, {9, 10, 11}).ok());
  const RecipeCorpus corpus = builder.Build();

  const std::vector<CuisineStats> stats = ComputeCuisineStats(corpus);
  ASSERT_EQ(stats.size(), static_cast<size_t>(kNumCuisines));

  EXPECT_EQ(stats[0].num_recipes, 2u);
  EXPECT_EQ(stats[0].num_unique_ingredients, 4u);
  EXPECT_DOUBLE_EQ(stats[0].mean_recipe_size, 3.0);
  EXPECT_EQ(stats[0].min_recipe_size, 2);
  EXPECT_EQ(stats[0].max_recipe_size, 4);
  ASSERT_GE(stats[0].size_histogram.size(), 5u);
  EXPECT_EQ(stats[0].size_histogram[2], 1u);
  EXPECT_EQ(stats[0].size_histogram[4], 1u);
  EXPECT_EQ(stats[0].size_histogram[3], 0u);

  EXPECT_EQ(stats[3].num_recipes, 1u);
  EXPECT_EQ(stats[1].num_recipes, 0u);
  EXPECT_TRUE(stats[1].size_histogram.empty());
}

TEST(CorpusStatsTest, ExtendMatchesComputeOnTheLongerCorpus) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {1, 2}).ok());
  ASSERT_TRUE(builder.Add(3, {9, 10, 11}).ok());
  ASSERT_TRUE(builder.Add(0, {1, 2, 3, 4, 5, 6, 7}).ok());
  ASSERT_TRUE(builder.Add(5, {1}).ok());
  ASSERT_TRUE(builder.Add(0, {8}).ok());
  const RecipeCorpus corpus = builder.Build();
  RecipeCorpus::Builder prefix;
  ASSERT_TRUE(prefix.Add(0, {1, 2}).ok());
  ASSERT_TRUE(prefix.Add(3, {9, 10, 11}).ok());

  std::vector<CuisineStats> stats = ComputeCuisineStats(prefix.Build());
  ExtendCuisineStats(corpus.RunFrom(2), &stats);
  const std::vector<CuisineStats> want = ComputeCuisineStats(corpus);
  for (int c = 0; c < kNumCuisines; ++c) {
    const size_t ci = static_cast<size_t>(c);
    EXPECT_EQ(stats[ci].cuisine, want[ci].cuisine);
    EXPECT_EQ(stats[ci].num_recipes, want[ci].num_recipes) << c;
    EXPECT_EQ(stats[ci].mean_recipe_size, want[ci].mean_recipe_size) << c;
    EXPECT_EQ(stats[ci].min_recipe_size, want[ci].min_recipe_size) << c;
    EXPECT_EQ(stats[ci].max_recipe_size, want[ci].max_recipe_size) << c;
    EXPECT_EQ(stats[ci].size_histogram, want[ci].size_histogram) << c;
  }
  // Distinct ingredients are the caller's: cuisine 0's stay the prefix's.
  EXPECT_EQ(stats[0].num_unique_ingredients, 2u);
  EXPECT_EQ(want[0].num_unique_ingredients, 8u);
  EXPECT_EQ(stats[0].min_recipe_size, 1);
  EXPECT_EQ(stats[0].max_recipe_size, 7);
  EXPECT_DOUBLE_EQ(stats[0].mean_recipe_size, 10.0 / 3.0);
}

TEST(CorpusStatsTest, AggregateHistogram) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {1, 2}).ok());
  ASSERT_TRUE(builder.Add(5, {1, 2}).ok());
  ASSERT_TRUE(builder.Add(7, {1, 2, 3}).ok());
  const RecipeCorpus corpus = builder.Build();

  const std::vector<size_t> histogram = AggregateSizeHistogram(corpus);
  ASSERT_EQ(histogram.size(), 4u);
  EXPECT_EQ(histogram[2], 2u);
  EXPECT_EQ(histogram[3], 1u);
  EXPECT_EQ(histogram[0], 0u);
}

TEST(CorpusStatsTest, EmptyCorpus) {
  const RecipeCorpus corpus;
  EXPECT_TRUE(AggregateSizeHistogram(corpus).empty());
  const std::vector<CuisineStats> stats = ComputeCuisineStats(corpus);
  for (const CuisineStats& s : stats) EXPECT_EQ(s.num_recipes, 0u);
}

}  // namespace
}  // namespace culevo

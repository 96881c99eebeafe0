#include "corpus/recipe_corpus.h"

#include <gtest/gtest.h>

#include <utility>

namespace culevo {
namespace {

template <typename T>
std::vector<T> ToVec(std::span<const T> view) {
  return std::vector<T>(view.begin(), view.end());
}

RecipeCorpus SmallCorpus() {
  RecipeCorpus::Builder builder;
  EXPECT_TRUE(builder.Add(0, {3, 1, 2}).ok());
  EXPECT_TRUE(builder.Add(0, {2, 2, 5}).ok());  // Duplicate collapses.
  EXPECT_TRUE(builder.Add(1, {7}).ok());
  return builder.Build();
}

TEST(RecipeCorpusTest, BuilderSortsAndDeduplicates) {
  const RecipeCorpus corpus = SmallCorpus();
  ASSERT_EQ(corpus.num_recipes(), 3u);
  EXPECT_EQ(ToVec(corpus.ingredients_of(0)),
            (std::vector<IngredientId>{1, 2, 3}));
  EXPECT_EQ(ToVec(corpus.ingredients_of(1)),
            (std::vector<IngredientId>{2, 5}));
}

TEST(RecipeCorpusTest, SpanAddMatchesVectorAdd) {
  const std::vector<IngredientId> ingredients = {9, 4, 4, 6};
  RecipeCorpus::Builder builder;
  builder.Reserve(2, 8);
  ASSERT_TRUE(
      builder.Add(3, std::span<const IngredientId>(ingredients)).ok());
  ASSERT_TRUE(builder.Add(3, std::vector<IngredientId>{9, 4, 4, 6}).ok());
  const RecipeCorpus corpus = builder.Build();
  ASSERT_EQ(corpus.num_recipes(), 2u);
  EXPECT_EQ(ToVec(corpus.ingredients_of(0)), ToVec(corpus.ingredients_of(1)));
  EXPECT_EQ(ToVec(corpus.ingredients_of(0)),
            (std::vector<IngredientId>{4, 6, 9}));
}

TEST(RecipeCorpusTest, RejectsEmptyAndBadCuisine) {
  RecipeCorpus::Builder builder;
  EXPECT_FALSE(builder.Add(0, std::vector<IngredientId>{}).ok());
  EXPECT_FALSE(builder.Add(kNumCuisines, {1}).ok());
  EXPECT_FALSE(
      builder.Add(0, std::span<const IngredientId>()).ok());
  EXPECT_EQ(builder.size(), 0u);
}

TEST(RecipeCorpusTest, RecipeViewFields) {
  const RecipeCorpus corpus = SmallCorpus();
  const RecipeView view = corpus.recipe(2);
  EXPECT_EQ(view.index, 2u);
  EXPECT_EQ(view.cuisine, 1);
  EXPECT_EQ(view.size(), 1u);
  EXPECT_EQ(view.ingredients[0], 7);
}

TEST(RecipeCorpusTest, RecipesOfGroupsByCuisine) {
  const RecipeCorpus corpus = SmallCorpus();
  EXPECT_EQ(ToVec(corpus.recipes_of(0)), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(ToVec(corpus.recipes_of(1)), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(corpus.recipes_of(2).empty());
  EXPECT_EQ(corpus.num_recipes_in(0), 2u);
}

TEST(RecipeCorpusTest, UniqueIngredients) {
  const RecipeCorpus corpus = SmallCorpus();
  EXPECT_EQ(ToVec(corpus.UniqueIngredients(0)),
            (std::vector<IngredientId>{1, 2, 3, 5}));
  EXPECT_EQ(ToVec(corpus.UniqueIngredients()),
            (std::vector<IngredientId>{1, 2, 3, 5, 7}));
  EXPECT_TRUE(corpus.UniqueIngredients(2).empty());
}

TEST(RecipeCorpusTest, MeanRecipeSize) {
  const RecipeCorpus corpus = SmallCorpus();
  EXPECT_DOUBLE_EQ(corpus.MeanRecipeSize(0), 2.5);  // Sizes 3 and 2.
  EXPECT_DOUBLE_EQ(corpus.MeanRecipeSize(1), 1.0);
  EXPECT_DOUBLE_EQ(corpus.MeanRecipeSize(2), 0.0);
}

TEST(RecipeCorpusTest, TotalMentions) {
  EXPECT_EQ(SmallCorpus().total_mentions(), 6u);
}

TEST(RecipeCorpusTest, EmptyCorpus) {
  RecipeCorpus corpus;
  EXPECT_EQ(corpus.num_recipes(), 0u);
  EXPECT_TRUE(corpus.UniqueIngredients().empty());
  EXPECT_FALSE(corpus.borrowed());
}

TEST(RecipeCorpusTest, BuilderIsReusableAfterBuild) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {1}).ok());
  const RecipeCorpus first = builder.Build();
  EXPECT_EQ(first.num_recipes(), 1u);
  ASSERT_TRUE(builder.Add(1, {2, 3}).ok());
  const RecipeCorpus second = builder.Build();
  EXPECT_EQ(second.num_recipes(), 1u);
  EXPECT_EQ(second.cuisine_of(0), 1);
}

// The span accessors must survive copies and moves: the views have to be
// re-pointed at the destination's own storage, never at the source's.
TEST(RecipeCorpusTest, ConcatEqualsOneBuild) {
  const RecipeCorpus base = SmallCorpus();
  RecipeCorpus::Builder more;
  ASSERT_TRUE(more.Add(2, {9, 1}).ok());
  ASSERT_TRUE(more.Add(0, {4, 2}).ok());
  const RecipeCorpus added = more.Build();
  RecipeCorpus::Builder all;
  ASSERT_TRUE(all.Add(0, {3, 1, 2}).ok());
  ASSERT_TRUE(all.Add(0, {2, 2, 5}).ok());
  ASSERT_TRUE(all.Add(1, {7}).ok());
  ASSERT_TRUE(all.Add(2, {9, 1}).ok());
  ASSERT_TRUE(all.Add(0, {4, 2}).ok());
  const RecipeCorpus want = all.Build();

  // A run numbered from its own corpus's start, and one taken past the
  // first recipe: both are renumbered to continue the base.
  for (const auto& [run, from] :
       {std::pair{added.RunFrom(0), 0u}, std::pair{want.RunFrom(3), 3u}}) {
    const RecipeCorpus got = RecipeCorpus::Concat(base, run);
    EXPECT_FALSE(got.borrowed());
    EXPECT_EQ(ToVec(got.flat()), ToVec(want.flat())) << from;
    EXPECT_EQ(ToVec(got.offsets()), ToVec(want.offsets())) << from;
    EXPECT_EQ(ToVec(got.cuisines()), ToVec(want.cuisines())) << from;
    for (CuisineId c = 0; c < kNumCuisines; ++c) {
      EXPECT_EQ(ToVec(got.recipes_of(c)), ToVec(want.recipes_of(c))) << c;
      EXPECT_EQ(ToVec(got.UniqueIngredients(c)),
                ToVec(want.UniqueIngredients(c)))
          << c;
    }
    EXPECT_EQ(ToVec(got.UniqueIngredients()), ToVec(want.UniqueIngredients()));
  }
}

TEST(RecipeCorpusTest, CopyRebindsViews) {
  RecipeCorpus original = SmallCorpus();
  RecipeCorpus copy = original;
  original = RecipeCorpus();  // Destroy the source's storage.
  EXPECT_EQ(ToVec(copy.ingredients_of(0)),
            (std::vector<IngredientId>{1, 2, 3}));
  EXPECT_EQ(ToVec(copy.recipes_of(0)), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(ToVec(copy.UniqueIngredients()),
            (std::vector<IngredientId>{1, 2, 3, 5, 7}));
}

TEST(RecipeCorpusTest, MoveRebindsViews) {
  RecipeCorpus original = SmallCorpus();
  const RecipeCorpus moved = std::move(original);
  EXPECT_EQ(moved.num_recipes(), 3u);
  EXPECT_EQ(ToVec(moved.ingredients_of(1)), (std::vector<IngredientId>{2, 5}));
  EXPECT_EQ(ToVec(moved.UniqueIngredients(0)),
            (std::vector<IngredientId>{1, 2, 3, 5}));
}

// --- FromColumns: the borrowed-storage entry point must reject columns
// that are not a well-formed corpus (the loader relies on this as its last
// line of defense against crafted snapshots).

struct OwnedColumns {
  std::vector<IngredientId> flat;
  std::vector<uint32_t> offsets;
  std::vector<CuisineId> cuisines;
  std::array<std::vector<uint32_t>, kNumCuisines> shards;
  std::array<std::vector<IngredientId>, kNumCuisines + 1> unique;

  RecipeCorpus::ColumnViews Views() const {
    RecipeCorpus::ColumnViews views;
    views.flat = flat;
    views.offsets = offsets;
    views.cuisines = cuisines;
    for (int c = 0; c < kNumCuisines; ++c) {
      views.shards[static_cast<size_t>(c)] = shards[static_cast<size_t>(c)];
      views.unique[static_cast<size_t>(c)] = unique[static_cast<size_t>(c)];
    }
    views.unique[kNumCuisines] = unique[kNumCuisines];
    return views;
  }
};

OwnedColumns SmallColumns() {
  OwnedColumns columns;
  columns.flat = {1, 2, 3, 2, 5, 7};
  columns.offsets = {0, 3, 5, 6};
  columns.cuisines = {0, 0, 1};
  columns.shards[0] = {0, 1};
  columns.shards[1] = {2};
  columns.unique[0] = {1, 2, 3, 5};
  columns.unique[1] = {7};
  columns.unique[kNumCuisines] = {1, 2, 3, 5, 7};
  return columns;
}

TEST(RecipeCorpusFromColumnsTest, AcceptsWellFormedColumns) {
  const OwnedColumns columns = SmallColumns();
  Result<RecipeCorpus> corpus =
      RecipeCorpus::FromColumns(columns.Views(), nullptr);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_TRUE(corpus->borrowed() == false);  // Null backing: views only.
  EXPECT_EQ(corpus->num_recipes(), 3u);
  EXPECT_EQ(ToVec(corpus->ingredients_of(0)),
            (std::vector<IngredientId>{1, 2, 3}));
  EXPECT_EQ(ToVec(corpus->recipes_of(0)), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(ToVec(corpus->UniqueIngredients()),
            (std::vector<IngredientId>{1, 2, 3, 5, 7}));
}

TEST(RecipeCorpusFromColumnsTest, RejectsNonMonotonicOffsets) {
  OwnedColumns columns = SmallColumns();
  columns.offsets = {0, 5, 3, 6};
  EXPECT_FALSE(RecipeCorpus::FromColumns(columns.Views(), nullptr).ok());
}

TEST(RecipeCorpusFromColumnsTest, RejectsUnsortedRecipe) {
  OwnedColumns columns = SmallColumns();
  columns.flat = {3, 2, 1, 2, 5, 7};  // Recipe 0 descending.
  EXPECT_FALSE(RecipeCorpus::FromColumns(columns.Views(), nullptr).ok());
}

TEST(RecipeCorpusFromColumnsTest, RejectsWrongShard) {
  OwnedColumns columns = SmallColumns();
  columns.shards[0] = {0};  // Recipe 1 missing from its shard.
  columns.shards[2] = {1};  // ...and filed under the wrong cuisine.
  EXPECT_FALSE(RecipeCorpus::FromColumns(columns.Views(), nullptr).ok());
}

TEST(RecipeCorpusFromColumnsTest, RejectsIncompleteUniqueList) {
  OwnedColumns columns = SmallColumns();
  columns.unique[0] = {1, 2, 3};  // 5 missing: downstream code would index
                                  // out of bounds off this list.
  EXPECT_FALSE(RecipeCorpus::FromColumns(columns.Views(), nullptr).ok());
}

TEST(RecipeCorpusFromColumnsTest, RejectsOversizedUniqueList) {
  OwnedColumns columns = SmallColumns();
  columns.unique[kNumCuisines] = {1, 2, 3, 5, 7, 9};  // 9 never used.
  EXPECT_FALSE(RecipeCorpus::FromColumns(columns.Views(), nullptr).ok());
}

}  // namespace
}  // namespace culevo

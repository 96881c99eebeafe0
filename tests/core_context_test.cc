#include "core/evolution_model.h"

#include <bit>

#include <gtest/gtest.h>

#include "analysis/ingredient_counts.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"

namespace culevo {
namespace {

TEST(ContextFromCorpusTest, DerivesAlgorithmOneInputs) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {1, 2, 3}).ok());
  ASSERT_TRUE(builder.Add(0, {1, 4, 5}).ok());
  ASSERT_TRUE(builder.Add(0, {1, 2, 6, 7}).ok());
  ASSERT_TRUE(builder.Add(1, {9}).ok());
  const RecipeCorpus corpus = builder.Build();

  Result<CuisineContext> context = ContextFromCorpus(corpus, 0);
  ASSERT_TRUE(context.ok());
  EXPECT_EQ(context->cuisine, 0);
  EXPECT_EQ(context->ingredients,
            (std::vector<IngredientId>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(context->target_recipes, 3u);
  EXPECT_DOUBLE_EQ(context->phi, 7.0 / 3.0);
  EXPECT_EQ(context->mean_recipe_size, 3);  // round(10/3).

  // Popularity aligned with the ingredient list: ingredient 1 in 3/3.
  ASSERT_EQ(context->popularity.size(), 7u);
  EXPECT_DOUBLE_EQ(context->popularity[0], 1.0);
  EXPECT_DOUBLE_EQ(context->popularity[1], 2.0 / 3.0);  // Ingredient 2.
  EXPECT_DOUBLE_EQ(context->popularity[2], 1.0 / 3.0);  // Ingredient 3.
}

TEST(ContextFromCorpusTest, EmptyCuisineFails) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {1}).ok());
  const RecipeCorpus corpus = builder.Build();
  Result<CuisineContext> context = ContextFromCorpus(corpus, 3);
  EXPECT_FALSE(context.ok());
  EXPECT_EQ(context.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ContextFromCorpusTest, BadCuisineIdFails) {
  const RecipeCorpus corpus;
  EXPECT_FALSE(ContextFromCorpus(corpus, kNumCuisines).ok());
}

// The serving path derives a context from the counts alone; it must equal
// the corpus-derived one bit for bit on every cuisine of a world, including
// the refusal of an empty cuisine.
TEST(ContextFromCountsTest, EqualsContextFromCorpusForEveryCuisine) {
  SynthConfig config;
  config.scale = 0.05;
  config.seed = 7;
  Result<RecipeCorpus> world = SynthesizeWorldCorpus(WorldLexicon(), config);
  ASSERT_TRUE(world.ok()) << world.status();
  const IngredientCounts counts(*world);
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    SCOPED_TRACE(std::string(CuisineAt(cuisine).code));
    const Result<CuisineContext> want = ContextFromCorpus(*world, cuisine);
    const Result<CuisineContext> got = ContextFromCounts(counts, cuisine);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->cuisine, want->cuisine);
    EXPECT_EQ(got->ingredients, want->ingredients);
    EXPECT_EQ(got->target_recipes, want->target_recipes);
    EXPECT_EQ(got->mean_recipe_size, want->mean_recipe_size);
    EXPECT_EQ(std::bit_cast<uint64_t>(got->phi),
              std::bit_cast<uint64_t>(want->phi));
    ASSERT_EQ(got->popularity.size(), want->popularity.size());
    for (size_t i = 0; i < want->popularity.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got->popularity[i]),
                std::bit_cast<uint64_t>(want->popularity[i]))
          << i;
    }
  }

  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {1, 2}).ok());
  const RecipeCorpus one_cuisine = builder.Build();
  const IngredientCounts one_counts(one_cuisine);
  EXPECT_EQ(ContextFromCounts(one_counts, 3).status().code(),
            ContextFromCorpus(one_cuisine, 3).status().code());
  EXPECT_EQ(ContextFromCounts(one_counts, 3).status().message(),
            ContextFromCorpus(one_cuisine, 3).status().message());
  EXPECT_FALSE(ContextFromCounts(one_counts, kNumCuisines).ok());
}

TEST(RecipesToCorpusTest, PacksRecipes) {
  GeneratedRecipes recipes = {{1, 2}, {3, 4, 5}};
  Result<RecipeCorpus> corpus = RecipesToCorpus(recipes, 7);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->num_recipes(), 2u);
  EXPECT_EQ(corpus->num_recipes_in(7), 2u);
  EXPECT_EQ(corpus->cuisine_of(1), 7);
}

TEST(RecipesToCorpusTest, RejectsEmptyRecipe) {
  GeneratedRecipes recipes = {{1}, {}};
  EXPECT_FALSE(RecipesToCorpus(recipes, 0).ok());
}

}  // namespace
}  // namespace culevo

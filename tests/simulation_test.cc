#include "core/simulation.h"

#include <gtest/gtest.h>

#include "core/copy_mutate.h"
#include "core/null_model.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"

namespace culevo {
namespace {

CuisineContext SmallContext() {
  CuisineContext context;
  context.cuisine = 0;
  const Lexicon& lexicon = WorldLexicon();
  for (IngredientId id = 0; id < 120; ++id) {
    context.ingredients.push_back(id);
  }
  context.popularity.assign(120, 0.5);
  context.mean_recipe_size = 7;
  context.target_recipes = 240;
  context.phi = 0.5;
  (void)lexicon;
  return context;
}

TEST(RecipesToTransactionsTest, PreservesRecipes) {
  GeneratedRecipes recipes = {{1, 2, 3}, {2, 5}};
  const TransactionSet transactions = RecipesToTransactions(recipes);
  TransactionSet expected;
  expected.Add({1, 2, 3});
  expected.Add({2, 5});
  EXPECT_TRUE(transactions == expected);
}

TEST(RecipesToCategoryTransactionsTest, ProjectsViaLexicon) {
  const Lexicon& lexicon = WorldLexicon();
  const IngredientId basil = *lexicon.Find("Basil");    // Herb.
  const IngredientId mint = *lexicon.Find("Mint");      // Herb.
  const IngredientId salt = *lexicon.Find("Salt");      // Additive.
  GeneratedRecipes recipes = {{basil, mint, salt}};
  const TransactionSet transactions =
      RecipesToCategoryTransactions(recipes, lexicon);
  ASSERT_EQ(transactions.size(), 1u);
  EXPECT_EQ(transactions.transaction(0).size(), 2u);  // Herb + Additive.
}

TEST(RunSimulationTest, AggregatesReplicas) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  SimulationConfig config;
  config.replicas = 4;
  config.seed = 9;
  Result<SimulationResult> result =
      RunSimulation(model, SmallContext(), lexicon, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->replica_ingredient_curves.size(), 4u);
  EXPECT_FALSE(result->ingredient_curve.empty());
  EXPECT_FALSE(result->category_curve.empty());
}

TEST(RunSimulationTest, DeterministicAcrossRuns) {
  const Lexicon& lexicon = WorldLexicon();
  const auto model = MakeCmR(&lexicon);
  SimulationConfig config;
  config.replicas = 3;
  config.seed = 5;
  Result<SimulationResult> a =
      RunSimulation(*model, SmallContext(), lexicon, config);
  Result<SimulationResult> b =
      RunSimulation(*model, SmallContext(), lexicon, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ingredient_curve.values(), b->ingredient_curve.values());
}

TEST(RunSimulationTest, ParallelEqualsSerial) {
  const Lexicon& lexicon = WorldLexicon();
  const auto model = MakeCmM(&lexicon);
  SimulationConfig config;
  config.replicas = 6;
  config.seed = 11;
  Result<SimulationResult> serial =
      RunSimulation(*model, SmallContext(), lexicon, config, nullptr);
  ThreadPool pool(4);
  Result<SimulationResult> parallel =
      RunSimulation(*model, SmallContext(), lexicon, config, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->ingredient_curve.values(),
            parallel->ingredient_curve.values());
  EXPECT_EQ(serial->category_curve.values(),
            parallel->category_curve.values());
}

TEST(RunSimulationTest, ReplicasDiffer) {
  const Lexicon& lexicon = WorldLexicon();
  const auto model = MakeCmR(&lexicon);
  SimulationConfig config;
  config.replicas = 2;
  Result<SimulationResult> result =
      RunSimulation(*model, SmallContext(), lexicon, config);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->replica_ingredient_curves[0].values(),
            result->replica_ingredient_curves[1].values());
}

TEST(RunSimulationTest, InvalidConfigRejected) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  SimulationConfig config;
  config.replicas = 0;
  EXPECT_FALSE(
      RunSimulation(model, SmallContext(), lexicon, config).ok());
}

TEST(RunSimulationTest, PropagatesModelErrors) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  CuisineContext bad = SmallContext();
  bad.phi = 0.0;
  SimulationConfig config;
  config.replicas = 2;
  EXPECT_FALSE(RunSimulation(model, bad, lexicon, config).ok());
}

}  // namespace
}  // namespace culevo

// Reproduces Table I: per-cuisine recipe counts, unique-ingredient counts,
// and the top-5 overrepresented ingredients (Eq. 1), plus the dataset-level
// averages quoted in Section II (average recipes ~6338 and ingredients ~421
// per cuisine at scale 1.0).
//
// Paper-shape expectations: recipe counts match Table I times --scale;
// unique-ingredient counts are close to Table I; the computed top-5
// overrepresented ingredients recover the cuisine's calibrated preferences
// (e.g. Cumin/Cinnamon/Olive for AFR, Olive/Parmesan/Basil for ITA).

#include <cstdio>
#include <iostream>
#include <string>

#include "analysis/overrepresentation.h"
#include "bench/bench_common.h"
#include "corpus/corpus_stats.h"
#include "util/table_printer.h"

namespace {

using namespace culevo;

int Run(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseOptions(argc, argv);
  bench::BenchReporter reporter("table1_statistics", options);
  const Lexicon& lexicon = WorldLexicon();
  reporter.BeginPhase("world_synthesis");
  const RecipeCorpus corpus = bench::MakeWorld(options, &reporter);
  reporter.BeginPhase("statistics");

  std::printf("\n== Table I: cuisine statistics and overrepresented "
              "ingredients ==\n\n");
  TablePrinter table({"Region (Code)", "Recipes", "Ingredients",
                      "Top-5 overrepresented (computed)",
                      "Table-I top-5 (target)"});

  const std::vector<CuisineStats> stats = ComputeCuisineStats(corpus);
  const IngredientCounts counts(corpus);
  size_t total_recipes = 0;
  size_t total_ingredients = 0;
  int top5_hits = 0;
  int top5_total = 0;

  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    const CuisineInfo& info = CuisineAt(cuisine);
    const CuisineStats& s = stats[static_cast<size_t>(c)];
    total_recipes += s.num_recipes;
    total_ingredients += s.num_unique_ingredients;

    const std::vector<OverrepresentationScore> top =
        TopOverrepresented(counts, cuisine, 5);
    std::string computed;
    std::string target;
    for (size_t i = 0; i < top.size(); ++i) {
      if (i > 0) computed += ", ";
      computed += lexicon.name(top[i].ingredient);
    }
    for (size_t i = 0; i < info.top_ingredients.size(); ++i) {
      if (i > 0) target += ", ";
      target += info.top_ingredients[i];
      ++top5_total;
      for (const OverrepresentationScore& t : top) {
        if (lexicon.name(t.ingredient) == info.top_ingredients[i]) {
          ++top5_hits;
          break;
        }
      }
    }
    table.AddRow({std::string(info.name) + " (" + std::string(info.code) +
                      ")",
                  std::to_string(s.num_recipes),
                  std::to_string(s.num_unique_ingredients), computed,
                  target});
  }
  table.Print(std::cout);

  std::printf(
      "\nTotals: %zu recipes (paper: 158544 at scale 1.0; Table-I rows sum "
      "to %d), lexicon %zu entities (paper: 721)\n",
      total_recipes, TotalPaperRecipes(), lexicon.size());
  std::printf("Averages per cuisine: %.0f recipes (paper ~6338 at scale "
              "1.0), %.0f unique ingredients (paper ~421)\n",
              static_cast<double>(total_recipes) / kNumCuisines,
              static_cast<double>(total_ingredients) / kNumCuisines);
  std::printf("Top-5 overrepresentation recovery: %d/%d Table-I entries "
              "recovered in the computed top-5\n",
              top5_hits, top5_total);

  std::vector<double> recipes_series;
  std::vector<double> ingredients_series;
  for (const CuisineStats& s : stats) {
    recipes_series.push_back(static_cast<double>(s.num_recipes));
    ingredients_series.push_back(
        static_cast<double>(s.num_unique_ingredients));
  }
  reporter.AddSeries("recipes_per_cuisine", std::move(recipes_series));
  reporter.AddSeries("unique_ingredients_per_cuisine",
                     std::move(ingredients_series));
  reporter.AddResult("total_recipes", static_cast<double>(total_recipes));
  reporter.AddResult("top5_hits", top5_hits);
  reporter.AddResult("top5_total", top5_total);
  return reporter.Finish();
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }

#include "corpus/corpus_stats.h"

#include <algorithm>
#include <array>

namespace culevo {

std::vector<CuisineStats> ComputeCuisineStats(const RecipeCorpus& corpus) {
  std::vector<CuisineStats> out(kNumCuisines);
  for (int c = 0; c < kNumCuisines; ++c) {
    out[static_cast<size_t>(c)].cuisine = static_cast<CuisineId>(c);
  }
  ExtendCuisineStats(corpus.RunFrom(0), &out);
  for (CuisineStats& stats : out) {
    stats.num_unique_ingredients =
        corpus.UniqueIngredients(stats.cuisine).size();
  }
  return out;
}

void ExtendCuisineStats(RecipeRun added, std::vector<CuisineStats>* stats) {
  std::array<bool, kNumCuisines> touched{};
  for (size_t r = 0; r < added.size(); ++r) {
    CuisineStats& cuisine = (*stats)[added.cuisines[r]];
    touched[added.cuisines[r]] = true;
    const int size = static_cast<int>(added.offsets[r + 1] - added.offsets[r]);
    if (cuisine.num_recipes == 0) {
      cuisine.min_recipe_size = size;
      cuisine.max_recipe_size = size;
    } else {
      cuisine.min_recipe_size = std::min(cuisine.min_recipe_size, size);
      cuisine.max_recipe_size = std::max(cuisine.max_recipe_size, size);
    }
    ++cuisine.num_recipes;
    if (static_cast<size_t>(size) >= cuisine.size_histogram.size()) {
      cuisine.size_histogram.resize(static_cast<size_t>(size) + 1, 0);
    }
    ++cuisine.size_histogram[static_cast<size_t>(size)];
  }
  for (CuisineStats& cuisine : *stats) {
    if (!touched[cuisine.cuisine]) continue;
    // The exact mention total: every recipe of size s adds s mentions.
    size_t total = 0;
    for (size_t s = 0; s < cuisine.size_histogram.size(); ++s) {
      total += s * cuisine.size_histogram[s];
    }
    cuisine.mean_recipe_size = static_cast<double>(total) /
                               static_cast<double>(cuisine.num_recipes);
  }
}

std::vector<size_t> AggregateSizeHistogram(const RecipeCorpus& corpus) {
  std::vector<size_t> histogram;
  for (uint32_t i = 0; i < corpus.num_recipes(); ++i) {
    const size_t size = corpus.ingredients_of(i).size();
    if (size >= histogram.size()) histogram.resize(size + 1, 0);
    ++histogram[size];
  }
  return histogram;
}

}  // namespace culevo

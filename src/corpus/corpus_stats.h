#ifndef CULEVO_CORPUS_CORPUS_STATS_H_
#define CULEVO_CORPUS_CORPUS_STATS_H_

#include <vector>

#include "corpus/recipe_corpus.h"

namespace culevo {

/// Descriptive statistics for one cuisine inside a corpus (the quantities
/// reported in Table I and Fig. 1 of the paper).
struct CuisineStats {
  CuisineId cuisine = 0;
  size_t num_recipes = 0;
  size_t num_unique_ingredients = 0;
  double mean_recipe_size = 0.0;
  int min_recipe_size = 0;
  int max_recipe_size = 0;
  /// size_histogram[s] = number of recipes with exactly s ingredients.
  std::vector<size_t> size_histogram;
};

/// Computes per-cuisine statistics (one entry per cuisine id, including
/// empty cuisines with zero counts).
std::vector<CuisineStats> ComputeCuisineStats(const RecipeCorpus& corpus);

/// Advances `stats` (one entry per cuisine id, ComputeCuisineStats output
/// for some corpus) by the recipes of `added`, appended to that corpus:
/// recipe counts, min/max sizes, size histograms, and each touched
/// cuisine's mean, the histogram's mention total over its recipe count.
/// Distinct ingredients are not visible in `added` alone, so
/// num_unique_ingredients is left to the caller. ComputeCuisineStats is
/// this over all of a corpus's recipes, so the two stay bit-identical.
void ExtendCuisineStats(RecipeRun added, std::vector<CuisineStats>* stats);

/// Aggregate recipe-size histogram over the whole corpus.
std::vector<size_t> AggregateSizeHistogram(const RecipeCorpus& corpus);

}  // namespace culevo

#endif  // CULEVO_CORPUS_CORPUS_STATS_H_

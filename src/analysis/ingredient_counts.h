#ifndef CULEVO_ANALYSIS_INGREDIENT_COUNTS_H_
#define CULEVO_ANALYSIS_INGREDIENT_COUNTS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"

namespace culevo {

/// Recipe-presence counts of every ingredient, per cuisine and world-wide:
/// the n_i^c and sum_c n_i^c of Eq. 1, plus the recipe totals N^c and
/// sum_c N^c. One row per cuisine and a world row after them, each
/// universe() wide, stored row-major as counts[row * universe + id].
///
/// Built in a single pass over the recipes. The overrepresentation tables,
/// the usage profiles and the serving index's rank tables all derive from
/// it, so a corpus is counted once however many of them are needed.
///
/// A corpus that only grows at the end is counted incrementally:
/// AddRecipes counts just the recipes past the ones already counted,
/// widening the universe when one of them uses a higher id.
class IngredientCounts {
 public:
  /// No recipes, universe 0.
  IngredientCounts() = default;

  /// Counts every recipe of `corpus`.
  explicit IngredientCounts(const RecipeCorpus& corpus) { AddRecipes(corpus); }

  /// Counts recipes [num_recipes(), corpus.num_recipes()) of `corpus`.
  /// Precondition: the first num_recipes() recipes of `corpus` are the
  /// ones counted so far.
  void AddRecipes(const RecipeCorpus& corpus);

  /// Every counted id is below this: the highest counted id + 1, or 0.
  size_t universe() const { return universe_; }

  /// Recipes counted, in `cuisine` / in total.
  uint32_t recipes(CuisineId cuisine) const { return recipes_[cuisine]; }
  uint32_t num_recipes() const { return recipes_[kNumCuisines]; }

  /// row(c)[id] = recipes of cuisine c containing id; universe() entries.
  std::span<const uint32_t> row(CuisineId cuisine) const {
    return RowAt(cuisine);
  }
  /// world_row()[id] = recipes containing id; universe() entries.
  std::span<const uint32_t> world_row() const { return RowAt(kNumCuisines); }

  /// row(cuisine)[id], or 0 when id is outside the universe.
  uint32_t count(CuisineId cuisine, IngredientId id) const {
    return id < universe_ ? counts_[cuisine * universe_ + id] : 0;
  }

 private:
  std::span<const uint32_t> RowAt(size_t row) const {
    return std::span<const uint32_t>(counts_.data() + row * universe_,
                                     universe_);
  }

  size_t universe_ = 0;
  /// (kNumCuisines + 1) rows of universe_ counts; the last is the world.
  std::vector<uint32_t> counts_;
  /// recipes_[c] = N^c; recipes_[kNumCuisines] = sum_c N^c.
  std::array<uint32_t, kNumCuisines + 1> recipes_{};
};

}  // namespace culevo

#endif  // CULEVO_ANALYSIS_INGREDIENT_COUNTS_H_

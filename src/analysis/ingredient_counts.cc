#include "analysis/ingredient_counts.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace culevo {

void IngredientCounts::AddRecipes(const RecipeCorpus& corpus) {
  const uint32_t first = num_recipes();
  const size_t end = corpus.num_recipes();
  CULEVO_CHECK(end >= first);
  if (end == first) return;

  // The new recipes' mentions are the tail of the flat column; widen the
  // universe to cover them, keeping each row's existing counts.
  const std::span<const IngredientId> added =
      corpus.flat().subspan(corpus.offsets()[first]);
  const size_t universe =
      std::max(universe_, static_cast<size_t>(*std::max_element(
                              added.begin(), added.end())) +
                              1);
  if (universe > universe_) {
    std::vector<uint32_t> widened((kNumCuisines + 1) * universe, 0);
    for (size_t row = 0; row <= kNumCuisines; ++row) {
      const std::span<const uint32_t> old = RowAt(row);
      std::copy(old.begin(), old.end(), widened.begin() + row * universe);
    }
    counts_ = std::move(widened);
    universe_ = universe;
  }

  for (uint32_t r = first; r < end; ++r) {
    const CuisineId cuisine = corpus.cuisine_of(r);
    uint32_t* row = counts_.data() + cuisine * universe_;
    for (const IngredientId id : corpus.ingredients_of(r)) ++row[id];
    ++recipes_[cuisine];
  }
  recipes_[kNumCuisines] += static_cast<uint32_t>(end - first);

  // The world row is the column sum of the cuisine rows.
  uint32_t* world = counts_.data() + kNumCuisines * universe_;
  std::fill(world, world + universe_, 0);
  for (size_t c = 0; c < kNumCuisines; ++c) {
    const uint32_t* row = counts_.data() + c * universe_;
    for (size_t id = 0; id < universe_; ++id) world[id] += row[id];
  }
}

}  // namespace culevo

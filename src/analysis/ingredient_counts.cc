#include "analysis/ingredient_counts.h"

#include <algorithm>
#include <utility>

namespace culevo {

void IngredientCounts::AddRecipes(RecipeRun run) {
  if (run.size() == 0) return;

  // Widen the universe to cover the new mentions, keeping each row's
  // existing counts.
  const size_t universe =
      std::max(universe_, static_cast<size_t>(*std::max_element(
                              run.flat.begin(), run.flat.end())) +
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

  for (size_t r = 0; r < run.size(); ++r) {
    const CuisineId cuisine = run.cuisines[r];
    uint32_t* row = counts_.data() + cuisine * universe_;
    for (const IngredientId id : run.ingredients_of(r)) ++row[id];
    ++recipes_[cuisine];
  }
  recipes_[kNumCuisines] += static_cast<uint32_t>(run.size());

  // The world row is the column sum of the cuisine rows.
  uint32_t* world = counts_.data() + kNumCuisines * universe_;
  std::fill(world, world + universe_, 0);
  for (size_t c = 0; c < kNumCuisines; ++c) {
    const uint32_t* row = counts_.data() + c * universe_;
    for (size_t id = 0; id < universe_; ++id) world[id] += row[id];
  }
}

}  // namespace culevo

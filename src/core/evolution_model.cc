#include "core/evolution_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/hash.h"
#include "util/strings.h"

namespace culevo {

uint64_t EvolutionModel::ConfigFingerprint() const {
  uint64_t hash = 0xA0761D6478BD642Full;
  for (unsigned char c : name()) {
    hash = HashCombine(hash, static_cast<uint64_t>(c));
  }
  return hash;
}

namespace {

/// The context of a cuisine of `n` recipes whose `row[id]` recipes contain
/// ingredient `id`: the rule both entry points below share. Every recipe
/// lists an ingredient once, so the row sum is the cuisine's mention
/// total, the numerator of s̄.
Result<CuisineContext> ContextFromRow(CuisineId cuisine, size_t n,
                                      std::span<const uint32_t> row) {
  if (n == 0) {
    return Status::FailedPrecondition(
        StrFormat("cuisine %s has no recipes",
                  std::string(CuisineAt(cuisine).code).c_str()));
  }
  CuisineContext context;
  context.cuisine = cuisine;
  size_t mentions = 0;
  for (size_t id = 0; id < row.size(); ++id) {
    if (row[id] == 0) continue;
    context.ingredients.push_back(static_cast<IngredientId>(id));
    mentions += row[id];
  }
  context.target_recipes = n;
  context.phi = static_cast<double>(context.ingredients.size()) /
                static_cast<double>(n);
  context.mean_recipe_size = std::max(
      1, static_cast<int>(std::lround(static_cast<double>(mentions) /
                                      static_cast<double>(n))));
  if (static_cast<size_t>(context.mean_recipe_size) >
      context.ingredients.size()) {
    return Status::FailedPrecondition(
        "mean recipe size exceeds the cuisine's ingredient count");
  }
  context.popularity.resize(context.ingredients.size());
  for (size_t i = 0; i < context.ingredients.size(); ++i) {
    context.popularity[i] = static_cast<double>(row[context.ingredients[i]]) /
                            static_cast<double>(n);
  }
  return context;
}

}  // namespace

Result<CuisineContext> ContextFromCorpus(const RecipeCorpus& corpus,
                                         CuisineId cuisine) {
  if (cuisine >= kNumCuisines) {
    return Status::InvalidArgument("cuisine id out of range");
  }
  // Presence counts in a dense id-indexed row. The corpus guarantees every
  // id of the cuisine's recipes is in its unique list, so each lies at or
  // below the list's last (largest) id.
  const std::span<const IngredientId> unique =
      corpus.UniqueIngredients(cuisine);
  std::vector<uint32_t> row(unique.empty() ? 0 : size_t{unique.back()} + 1, 0);
  for (uint32_t index : corpus.recipes_of(cuisine)) {
    for (IngredientId id : corpus.ingredients_of(index)) ++row[id];
  }
  return ContextFromRow(cuisine, corpus.num_recipes_in(cuisine), row);
}

Result<CuisineContext> ContextFromCounts(const IngredientCounts& counts,
                                         CuisineId cuisine) {
  if (cuisine >= kNumCuisines) {
    return Status::InvalidArgument("cuisine id out of range");
  }
  return ContextFromRow(cuisine, counts.recipes(cuisine), counts.row(cuisine));
}

Status ValidateCuisineContext(const CuisineContext& context) {
  if (context.target_recipes == 0) {
    return Status::InvalidArgument("target_recipes must be positive");
  }
  if (context.ingredients.empty()) {
    return Status::InvalidArgument("cuisine has no ingredients");
  }
  if (context.ingredients.size() >
      static_cast<size_t>(std::numeric_limits<PoolPos>::max())) {
    return Status::InvalidArgument(
        "ingredient list exceeds the pool position width");
  }
  if (context.phi <= 0.0) {
    return Status::InvalidArgument("phi must be positive");
  }
  if (context.mean_recipe_size <= 0) {
    return Status::InvalidArgument("mean_recipe_size must be positive");
  }
  return Status::Ok();
}

Status EvolutionModel::GenerateInto(const CuisineContext& context,
                                    uint64_t seed, RecipeStore* store) const {
  GeneratedRecipes recipes;
  CULEVO_RETURN_IF_ERROR(Generate(context, seed, &recipes));
  return PackRecipes(recipes, context.ingredients, store);
}

void StoreToRecipes(const RecipeStore& store,
                    const std::vector<IngredientId>& ingredients,
                    GeneratedRecipes* out) {
  out->clear();
  out->reserve(store.num_recipes());
  for (size_t i = 0; i < store.num_recipes(); ++i) {
    const std::span<const PoolPos> positions = store.recipe(i);
    std::vector<IngredientId> ids;
    ids.reserve(positions.size());
    for (PoolPos pos : positions) ids.push_back(ingredients[pos]);
    std::sort(ids.begin(), ids.end());
    out->push_back(std::move(ids));
  }
}

Status PackRecipes(const GeneratedRecipes& recipes,
                   const std::vector<IngredientId>& ingredients,
                   RecipeStore* store) {
  size_t items = 0;
  for (const std::vector<IngredientId>& recipe : recipes) {
    items += recipe.size();
  }
  store->Reset(recipes.size(), items);
  for (const std::vector<IngredientId>& recipe : recipes) {
    store->BeginRecipe();
    for (IngredientId id : recipe) {
      const auto it =
          std::lower_bound(ingredients.begin(), ingredients.end(), id);
      if (it == ingredients.end() || *it != id) {
        return Status::InvalidArgument(
            "recipe ingredient not in the context's ingredient list");
      }
      store->AppendToOpen(
          static_cast<PoolPos>(it - ingredients.begin()));
    }
    store->Commit();
  }
  return Status::Ok();
}

Result<RecipeCorpus> RecipesToCorpus(const GeneratedRecipes& recipes,
                                     CuisineId cuisine) {
  RecipeCorpus::Builder builder;
  for (const std::vector<IngredientId>& recipe : recipes) {
    CULEVO_RETURN_IF_ERROR(builder.Add(cuisine, recipe));
  }
  return builder.Build();
}

}  // namespace culevo

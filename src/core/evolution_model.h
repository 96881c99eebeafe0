#ifndef CULEVO_CORE_EVOLUTION_MODEL_H_
#define CULEVO_CORE_EVOLUTION_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/ingredient_counts.h"
#include "corpus/recipe_corpus.h"
#include "core/fitness.h"
#include "core/recipe_store.h"
#include "lexicon/lexicon.h"
#include "util/status.h"

namespace culevo {

/// The per-cuisine quantities Algorithm 1 consumes: the cuisine's
/// ingredient list I, the average recipe size s̄, the target recipe count
/// N, and φ = |I| / N (ratio of total ingredients to total recipes).
struct CuisineContext {
  CuisineId cuisine = 0;
  /// All ingredients of the cuisine (the algorithm's I), sorted.
  std::vector<IngredientId> ingredients;
  /// Empirical presence fraction per ingredient, aligned with
  /// `ingredients` (used by the popularity-rank fitness hypothesis).
  std::vector<double> popularity;
  int mean_recipe_size = 9;  ///< s̄, rounded to an integer.
  size_t target_recipes = 0; ///< N.
  double phi = 0.0;          ///< φ = |I| / N.
};

/// Extracts a CuisineContext from an empirical corpus. Returns
/// FailedPrecondition if the cuisine is empty or s̄ exceeds |I|.
Result<CuisineContext> ContextFromCorpus(const RecipeCorpus& corpus,
                                         CuisineId cuisine);

/// The same context from the corpus's ingredient counts. Both entry points
/// apply one rule to the cuisine's presence-count row (ContextFromCorpus
/// counts it first), so they are bit-identical: the ingredients are the ids
/// with a non-zero count, each popularity is count / N, and s̄ is the row
/// sum over N. O(universe); the corpus itself is not read.
Result<CuisineContext> ContextFromCounts(const IngredientCounts& counts,
                                         CuisineId cuisine);

/// Checks the invariants every model needs of a context: positive target,
/// non-empty ingredient list that fits PoolPos, positive φ, and positive
/// s̄ (an s̄ of zero would ask the mutation loop to index into an empty
/// recipe — an out-of-bounds read in release builds).
Status ValidateCuisineContext(const CuisineContext& context);

/// A generated recipe pool: one sorted-unique ingredient set per recipe.
using GeneratedRecipes = std::vector<std::vector<IngredientId>>;

/// Interface of the culinary-evolution models (Section V). Generate() must
/// be deterministic in (context, seed) and safe to call concurrently.
class EvolutionModel {
 public:
  virtual ~EvolutionModel() = default;

  /// Short display name: "CM-R", "CM-C", "CM-M", "NM", ...
  virtual std::string name() const = 0;

  /// Hash of everything that changes what Generate() produces for a fixed
  /// (context, seed) — the model's identity in a checkpoint manifest
  /// (core/run_journal.h). Two models with equal fingerprints must be
  /// output-identical; models with tunable parameters override this to
  /// fold them in (name() alone cannot tell two CM-M mixture ratios
  /// apart). The base implementation hashes name() only, which is correct
  /// for parameter-free models.
  virtual uint64_t ConfigFingerprint() const;

  /// Evolves context.target_recipes recipes.
  virtual Status Generate(const CuisineContext& context, uint64_t seed,
                          GeneratedRecipes* out) const = 0;

  /// Flat-arena variant of Generate: evolves the same recipe pool for the
  /// same (context, seed) but into `store` as context-ingredient positions
  /// in draw order (unsorted), avoiding the per-recipe heap allocation of
  /// the GeneratedRecipes format. This is the simulation hot path. The
  /// base implementation falls back to Generate() + PackRecipes; the
  /// built-in models override it with allocation-free native loops.
  virtual Status GenerateInto(const CuisineContext& context, uint64_t seed,
                              RecipeStore* store) const;
};

/// Converts a position store back to the GeneratedRecipes compat format:
/// recipe i becomes `ingredients[pos]` for each position, sorted ascending
/// (the format's sorted-set contract).
void StoreToRecipes(const RecipeStore& store,
                    const std::vector<IngredientId>& ingredients,
                    GeneratedRecipes* out);

/// Inverse of StoreToRecipes: packs id recipes into position form against
/// `ingredients` (which must be sorted ascending, as CuisineContext
/// requires). Returns InvalidArgument if a recipe mentions an id that is
/// not in `ingredients`.
Status PackRecipes(const GeneratedRecipes& recipes,
                   const std::vector<IngredientId>& ingredients,
                   RecipeStore* store);

/// Packs generated recipes into a corpus (all under `cuisine`), e.g. to
/// reuse the corpus-level analyses on model output.
Result<RecipeCorpus> RecipesToCorpus(const GeneratedRecipes& recipes,
                                     CuisineId cuisine);

}  // namespace culevo

#endif  // CULEVO_CORE_EVOLUTION_MODEL_H_

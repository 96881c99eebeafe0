#ifndef CULEVO_SERVICE_QUERY_INDEX_H_
#define CULEVO_SERVICE_QUERY_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "analysis/ingredient_counts.h"
#include "analysis/overrepresentation.h"
#include "analysis/similarity.h"
#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"

namespace culevo {

/// Precomputed point-query indexes over one immutable RecipeCorpus.
///
/// Built once per corpus generation (startup, SIGHUP reload, delta reload)
/// so the serving path never rescans recipes: overrepresentation top-k is
/// a prefix slice of a per-cuisine table, nearest-cuisines a prefix of a
/// per-cuisine sorted neighbour list, recipe search intersects
/// ingredient→recipe postings, and frequency/rank lookups read the
/// per-cuisine count and rank tables directly.
///
/// Every table derives from one IngredientCounts matrix, which the index
/// keeps. Each answer is bit-identical to what the batch analysis entry
/// points (ComputeOverrepresentation, NearestCuisines, ...) return for
/// the same corpus, because the tables are built *by* those entry points
/// from the same counts.
///
/// Immutable after Build()/Extend(); safe to read concurrently.
class QueryIndex {
 public:
  /// Builds all tables: one counting pass, one postings pass, then the
  /// per-cuisine tables from the counts. Same as Extend(QueryIndex(),
  /// corpus).
  static QueryIndex Build(const RecipeCorpus& corpus);

  /// The index of `corpus`, grown from `base`, the index of its first
  /// base.num_recipes() recipes (the generation a delta extends). Counts
  /// and postings only the recipes past that prefix, then recomputes the
  /// per-cuisine tables from the summed counts. Bit-identical to
  /// Build(corpus).
  static QueryIndex Extend(const QueryIndex& base, const RecipeCorpus& corpus);

  QueryIndex() = default;

  /// Recipes indexed.
  size_t num_recipes() const { return cuisines_.size(); }

  /// The per-cuisine ingredient-presence counts every table derives from.
  const IngredientCounts& counts() const { return counts_; }

  /// Full descending-score overrepresentation table of one cuisine
  /// (ComputeOverrepresentation output; top-k = the first k entries).
  std::span<const OverrepresentationScore> Overrepresentation(
      CuisineId cuisine) const {
    return overrep_[cuisine];
  }

  const UsageProfileCache& profiles() const { return *profiles_; }

  /// The `k` nearest cuisines by ingredient-usage distance: a prefix of
  /// the cuisine's neighbour list, equal to NearestCuisines(profiles(),
  /// cuisine, k).
  std::span<const CuisineNeighbor> Nearest(CuisineId cuisine,
                                           size_t k) const {
    const std::span<const CuisineNeighbor> all = nearest_[cuisine];
    return all.first(std::min(k, all.size()));
  }

  /// Ascending recipe indices whose ingredient set contains `id`; empty
  /// for ids outside the corpus universe.
  std::span<const uint32_t> Postings(IngredientId id) const;

  /// Recipes containing *all* of `ids` (sorted unique required),
  /// optionally restricted to one cuisine, capped at `limit` results
  /// (ascending recipe index — deterministic).
  std::vector<uint32_t> SearchRecipes(std::span<const IngredientId> ids,
                                      std::optional<CuisineId> cuisine,
                                      size_t limit) const;

  /// Usage of one ingredient inside one cuisine.
  struct UsageRank {
    uint32_t count = 0;     ///< Recipes of the cuisine containing it.
    double fraction = 0.0;  ///< count / cuisine recipe count.
    uint32_t rank = 0;      ///< 1-based; ties broken by ascending id.
  };

  /// Frequency + rank of `id` within `cuisine`; nullopt when the cuisine
  /// never uses the ingredient.
  std::optional<UsageRank> Usage(CuisineId cuisine, IngredientId id) const;

  /// The cuisine's ingredient ids ordered by descending usage fraction
  /// (ties: ascending id) — the Zipf-style rank list of Singh & Bagler's
  /// culinary-pattern statistics.
  std::span<const IngredientId> RankedIngredients(CuisineId cuisine) const {
    return ranked_[cuisine];
  }

 private:
  IngredientCounts counts_;
  std::vector<std::vector<OverrepresentationScore>> overrep_;
  std::shared_ptr<const UsageProfileCache> profiles_;
  /// nearest_[c] = NearestCuisines(profiles, c, all): every other
  /// non-empty cuisine, closest first.
  std::vector<std::vector<CuisineNeighbor>> nearest_;
  /// Per-recipe cuisine column (copy; the index never dangles off the
  /// corpus it was built from).
  std::vector<CuisineId> cuisines_;
  /// Ingredient→recipe postings in CSR layout over the counts' universe:
  /// list `id` spans posting_offsets_[id]..posting_offsets_[id + 1].
  std::vector<uint32_t> posting_offsets_;
  std::vector<uint32_t> posting_recipes_;
  /// ranked_[c] = cuisine ingredients by descending count;
  /// rank_of_[c * universe + id] = 1-based rank of id in ranked_[c].
  std::vector<std::vector<IngredientId>> ranked_;
  std::vector<uint32_t> rank_of_;
};

}  // namespace culevo

#endif  // CULEVO_SERVICE_QUERY_INDEX_H_

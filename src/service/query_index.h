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
#include "util/shared_append_array.h"
#include "util/status.h"

namespace culevo {

/// Ingredient→recipe postings in CSR layout over an ingredient universe:
/// list `id` spans offsets[id]..offsets[id + 1] of `recipes`, ascending.
struct PostingLists {
  std::vector<uint32_t> offsets;  ///< universe + 1 entries, or none.
  std::vector<uint32_t> recipes;

  /// The postings of `corpus`. `lengths[id]` is the number of recipes
  /// containing `id`, and every id of the corpus is below lengths.size().
  static PostingLists Of(const RecipeCorpus& corpus,
                         std::span<const uint32_t> lengths);

  /// List `id`; empty for ids outside the universe.
  std::span<const uint32_t> List(IngredientId id) const;
};

/// The recipes appended after a base corpus: recipe `first() + i` of the
/// generation is recipe i of the tail. The columns continue the base's
/// numbering, so offsets()[0] is the base's mention count and the tail's
/// run() is exactly what RecipeCorpus::RunFrom would return for the same
/// recipes of the concatenated corpus.
///
/// The columns are SharedAppendArrays: a copy of a tail is O(1), and Add
/// on the copy writes past the end the original sees, so consecutive
/// generations share their common recipes and a generation that extends
/// its predecessor pays only for the recipes it adds (amortized). The
/// original stays readable throughout.
class RecipeTail {
 public:
  RecipeTail() : RecipeTail(0, 0) {}
  /// An empty tail after a base of `first` recipes and `first_mention`
  /// mentions.
  RecipeTail(uint32_t first, uint32_t first_mention) : first_(first) {
    offsets_.push_back(first_mention);
  }

  /// Appends one recipe in canonical form (AppendCanonicalRecipe, as
  /// RecipeCorpus::Builder::Add does); an empty recipe or an out-of-range
  /// cuisine is InvalidArgument. Adds to tails that share columns must not
  /// run concurrently.
  Status Add(CuisineId cuisine, std::span<const IngredientId> ingredients);

  /// Capacity for `recipes` more recipes of `mentions` mentions in total.
  void Reserve(size_t recipes, size_t mentions);

  uint32_t first() const { return first_; }
  size_t size() const { return cuisines_.size(); }

  /// Recipes [first() + from, first() + size()).
  RecipeRun run(size_t from = 0) const {
    const std::span<const uint32_t> offsets = offsets_.span();
    return RecipeRun{flat_.span().subspan(offsets[from] - offsets[0]),
                     offsets.subspan(from), cuisines_.span().subspan(from)};
  }

 private:
  uint32_t first_ = 0;
  SharedAppendArray<IngredientId> flat_;
  SharedAppendArray<uint32_t> offsets_;
  SharedAppendArray<CuisineId> cuisines_;
  std::vector<IngredientId> scratch_;  ///< Add's canonicalisation buffer.
};

/// One logical posting list of a base + tail generation: the base's
/// recipes, then the tail's. Every tail recipe is numbered above every base
/// recipe, so the concatenation is ascending.
struct PostingList {
  std::span<const uint32_t> base;
  std::span<const uint32_t> tail;

  size_t size() const { return base.size() + tail.size(); }
  bool empty() const { return size() == 0; }
  /// Whether recipe `r` is in the list (binary search in its half).
  bool Contains(uint32_t r) const;
};

/// The recipes of one serving generation and the point-query indexes over
/// them.
///
/// A generation is an immutable base plus a tail. The base is a loaded
/// corpus and its ingredient→recipe postings, held by a shared_ptr that
/// consecutive delta generations share; the tail holds the recipes
/// appended since the base was built, with a posting list per ingredient.
/// The tail's columns and lists are SharedAppendArrays, so a generation
/// shares its predecessor's tail too and Extend() writes only the added
/// recipes and postings: it costs O(delta) amortized plus the
/// per-cuisine tables, O(cuisines × universe), whatever the tail's size.
/// A tail that outgrows its base is folded into a new base (Extend), so
/// the tail never holds more recipes than the base.
///
/// Overrepresentation top-k is a prefix slice of a per-cuisine table,
/// nearest-cuisines a prefix of a per-cuisine sorted neighbour list,
/// recipe search intersects postings, and frequency/rank lookups read the
/// per-cuisine count and rank tables directly. Every table derives from
/// one IngredientCounts matrix over all recipes, which the index keeps.
/// Each answer is bit-identical to what the batch analysis entry points
/// (ComputeOverrepresentation, NearestCuisines, ...) return for the
/// concatenated corpus, because the tables are built *by* those entry
/// points from the same counts.
///
/// Immutable after Build()/Extend(); safe to read concurrently.
class QueryIndex {
 public:
  /// The index of `corpus` as a base with an empty tail: one counting
  /// pass, one postings pass, then the per-cuisine tables from the counts.
  /// The index keeps `corpus`; a borrowed corpus keeps sharing its mapping.
  static QueryIndex Build(RecipeCorpus corpus);

  /// The next generation from `tail`, which must be `current`'s tail
  /// followed by the recipes to add (a copy of it, then RecipeTail::Add).
  /// Counts only the added recipes, appends their postings to the shared
  /// tail lists, then recomputes the per-cuisine tables from the summed
  /// counts: O(added) amortized plus the tables. When `tail` holds more
  /// recipes than the base, the generation instead folds base and tail
  /// into a new base with an empty tail, copying the current posting
  /// lists rather than re-deriving them: O(corpus), once per base-sized
  /// run of appends. Either way bit-identical to Build() over the
  /// concatenated corpus. Extends of generations that share a tail must
  /// not run concurrently.
  static QueryIndex Extend(const QueryIndex& current, RecipeTail tail);

  QueryIndex() = default;

  /// Recipes indexed: the base's, then the tail's.
  size_t num_recipes() const { return tail_.first() + tail_.size(); }
  /// Ingredient mentions of all recipes.
  size_t total_mentions() const { return tail_.run().offsets.back(); }

  /// The shared base corpus (recipes [0, tail().first())) and the tail.
  const RecipeCorpus& base() const { return base_->corpus; }
  const RecipeTail& tail() const { return tail_; }

  /// Cuisine and sorted ingredient ids of recipe `r` < num_recipes(),
  /// from the base or the tail.
  CuisineId cuisine_of(uint32_t r) const {
    return r < tail_.first() ? base_->corpus.cuisine_of(r)
                             : tail_.run().cuisines[r - tail_.first()];
  }
  std::span<const IngredientId> ingredients_of(uint32_t r) const {
    return r < tail_.first() ? base_->corpus.ingredients_of(r)
                             : tail_.run().ingredients_of(r - tail_.first());
  }

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
  /// for ids outside the universe.
  PostingList Postings(IngredientId id) const {
    return PostingList{base_->postings.List(id),
                       id < tail_postings_.size() ? tail_postings_[id].span()
                                                  : std::span<const uint32_t>()};
  }

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
  /// The immutable half, shared by every generation extended from it.
  struct Base {
    RecipeCorpus corpus;
    PostingLists postings;
  };

  /// Builds every per-cuisine table from counts_.
  void BuildTables();

  std::shared_ptr<const Base> base_ = std::make_shared<const Base>();
  RecipeTail tail_;
  /// tail_postings_[id] = the tail recipes containing `id`, ascending;
  /// ids at or past the end have none.
  std::vector<SharedAppendArray<uint32_t>> tail_postings_;
  IngredientCounts counts_;
  std::vector<std::vector<OverrepresentationScore>> overrep_;
  std::shared_ptr<const UsageProfileCache> profiles_;
  /// nearest_[c] = NearestCuisines(profiles, c, all): every other
  /// non-empty cuisine, closest first.
  std::vector<std::vector<CuisineNeighbor>> nearest_;
  /// ranked_[c] = cuisine ingredients by descending count;
  /// rank_of_[c * universe + id] = 1-based rank of id in ranked_[c].
  std::vector<std::vector<IngredientId>> ranked_;
  std::vector<uint32_t> rank_of_;
};

}  // namespace culevo

#endif  // CULEVO_SERVICE_QUERY_INDEX_H_

#include "service/query_index.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/check.h"

namespace culevo {

QueryIndex QueryIndex::Build(const RecipeCorpus& corpus) {
  return Extend(QueryIndex(), corpus);
}

QueryIndex QueryIndex::Extend(const QueryIndex& base,
                              const RecipeCorpus& corpus) {
  static obs::Histogram* build_ms =
      obs::MetricsRegistry::Get().histogram("serve.index.build_ms");
  const obs::ScopedTimer timer(build_ms);
  const uint32_t first = static_cast<uint32_t>(base.num_recipes());
  CULEVO_CHECK(corpus.num_recipes() >= first);
  CULEVO_DCHECK(std::equal(base.cuisines_.begin(), base.cuisines_.end(),
                           corpus.cuisines().begin()));

  QueryIndex index;
  index.counts_ = base.counts_;
  index.counts_.AddRecipes(corpus);
  const IngredientCounts& counts = index.counts_;
  const size_t universe = counts.universe();

  // Cuisine column copy for the search filter (the index must stay valid
  // even if the corpus it was built from is destroyed first).
  index.cuisines_.assign(corpus.cuisines().begin(), corpus.cuisines().end());

  // Ingredient→recipe postings, CSR over the universe. List lengths are
  // the world counts. New recipes have higher indices than every base
  // recipe, so each list is the base list followed by the new recipes
  // that contain the id — both ascending.
  const std::span<const uint32_t> world = counts.world_row();
  index.posting_offsets_.assign(universe + 1, 0);
  std::partial_sum(world.begin(), world.end(),
                   index.posting_offsets_.begin() + 1);
  index.posting_recipes_.resize(index.posting_offsets_.back());
  std::vector<uint32_t> cursor(universe);
  for (size_t id = 0; id < universe; ++id) {
    const std::span<const uint32_t> old =
        base.Postings(static_cast<IngredientId>(id));
    cursor[id] = static_cast<uint32_t>(
        std::copy(old.begin(), old.end(),
                  index.posting_recipes_.begin() +
                      index.posting_offsets_[id]) -
        index.posting_recipes_.begin());
  }
  for (uint32_t r = first; r < corpus.num_recipes(); ++r) {
    for (IngredientId id : corpus.ingredients_of(r)) {
      index.posting_recipes_[cursor[id]++] = r;
    }
  }

  // The per-cuisine tables, all from the counts: overrepresentation
  // (exactly the batch ranking), usage profiles, neighbour lists, ranks.
  index.profiles_ = std::make_shared<const UsageProfileCache>(counts);
  index.overrep_.resize(kNumCuisines);
  index.nearest_.resize(kNumCuisines);
  index.ranked_.resize(kNumCuisines);
  index.rank_of_.assign(kNumCuisines * universe, 0);
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    const size_t ci = static_cast<size_t>(c);
    index.overrep_[ci] = ComputeOverrepresentation(counts, cuisine);
    index.nearest_[ci] =
        NearestCuisines(*index.profiles_, cuisine, kNumCuisines);

    // Descending count is descending fraction: every fraction of the
    // cuisine divides by the same recipe count.
    const std::span<const uint32_t> row = counts.row(cuisine);
    std::vector<IngredientId>& ranked = index.ranked_[ci];
    ranked = index.profiles_->profile(cuisine).ingredients;
    std::sort(ranked.begin(), ranked.end(),
              [&row](IngredientId a, IngredientId b) {
                if (row[a] != row[b]) return row[a] > row[b];
                return a < b;
              });
    uint32_t* rank_of = index.rank_of_.data() + ci * universe;
    for (size_t pos = 0; pos < ranked.size(); ++pos) {
      rank_of[ranked[pos]] = static_cast<uint32_t>(pos) + 1;
    }
  }
  return index;
}

std::optional<QueryIndex::UsageRank> QueryIndex::Usage(
    CuisineId cuisine, IngredientId id) const {
  const uint32_t count = counts_.count(cuisine, id);
  if (count == 0) return std::nullopt;
  UsageRank usage;
  usage.count = count;
  // The division BuildUsageProfile performs for the same entry.
  usage.fraction = static_cast<double>(count) /
                   static_cast<double>(counts_.recipes(cuisine));
  usage.rank = rank_of_[cuisine * counts_.universe() + id];
  return usage;
}

std::span<const uint32_t> QueryIndex::Postings(IngredientId id) const {
  if (static_cast<size_t>(id) + 1 >= posting_offsets_.size()) return {};
  return std::span<const uint32_t>(
      posting_recipes_.data() + posting_offsets_[id],
      posting_offsets_[id + 1] - posting_offsets_[id]);
}

std::vector<uint32_t> QueryIndex::SearchRecipes(
    std::span<const IngredientId> ids, std::optional<CuisineId> cuisine,
    size_t limit) const {
  std::vector<uint32_t> out;
  if (ids.empty() || limit == 0) return out;

  // Intersect postings starting from the rarest list; each candidate from
  // it is probed against the other lists by binary search.
  std::vector<std::span<const uint32_t>> lists;
  lists.reserve(ids.size());
  for (IngredientId id : ids) {
    std::span<const uint32_t> postings = Postings(id);
    if (postings.empty()) return out;
    lists.push_back(postings);
  }
  std::sort(lists.begin(), lists.end(),
            [](std::span<const uint32_t> a, std::span<const uint32_t> b) {
              return a.size() < b.size();
            });
  for (uint32_t candidate : lists[0]) {
    bool in_all = true;
    for (size_t i = 1; i < lists.size() && in_all; ++i) {
      in_all = std::binary_search(lists[i].begin(), lists[i].end(),
                                  candidate);
    }
    if (!in_all) continue;
    if (cuisine.has_value() && cuisines_[candidate] != *cuisine) continue;
    out.push_back(candidate);
    if (out.size() == limit) break;
  }
  return out;
}

}  // namespace culevo

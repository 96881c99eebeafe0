#include "service/query_index.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/check.h"

namespace culevo {

namespace {

/// Sizes `postings` for lists of `lengths` and returns a cursor at the
/// start of each list.
std::vector<uint32_t> AllocateLists(std::span<const uint32_t> lengths,
                                    PostingLists* postings) {
  postings->offsets.assign(lengths.size() + 1, 0);
  std::partial_sum(lengths.begin(), lengths.end(),
                   postings->offsets.begin() + 1);
  postings->recipes.resize(postings->offsets.back());
  return std::vector<uint32_t>(postings->offsets.begin(),
                               postings->offsets.end() - 1);
}

/// Writes recipe `first + r` of `run` into the list of each of its ids, at
/// that list's cursor.
void ScatterRun(RecipeRun run, uint32_t first, std::vector<uint32_t>* cursor,
                PostingLists* postings) {
  for (size_t r = 0; r < run.size(); ++r) {
    for (IngredientId id : run.ingredients_of(r)) {
      postings->recipes[(*cursor)[id]++] = first + static_cast<uint32_t>(r);
    }
  }
}

}  // namespace

PostingLists PostingLists::Of(const RecipeCorpus& corpus,
                              std::span<const uint32_t> lengths) {
  PostingLists postings;
  std::vector<uint32_t> cursor = AllocateLists(lengths, &postings);
  ScatterRun(corpus.RunFrom(0), 0, &cursor, &postings);
  return postings;
}

std::span<const uint32_t> PostingLists::List(IngredientId id) const {
  if (static_cast<size_t>(id) + 1 >= offsets.size()) return {};
  return std::span<const uint32_t>(recipes.data() + offsets[id],
                                   offsets[id + 1] - offsets[id]);
}

Status RecipeTail::Add(CuisineId cuisine,
                       std::span<const IngredientId> ingredients) {
  scratch_.clear();
  CULEVO_RETURN_IF_ERROR(
      AppendCanonicalRecipe(cuisine, ingredients, &scratch_));
  flat_.Append(scratch_);
  offsets_.push_back(offsets_.back() + static_cast<uint32_t>(scratch_.size()));
  cuisines_.push_back(cuisine);
  return Status::Ok();
}

void RecipeTail::Reserve(size_t recipes, size_t mentions) {
  flat_.Reserve(mentions);
  offsets_.Reserve(recipes);
  cuisines_.Reserve(recipes);
}

bool PostingList::Contains(uint32_t r) const {
  const std::span<const uint32_t> half =
      !tail.empty() && r >= tail.front() ? tail : base;
  return std::binary_search(half.begin(), half.end(), r);
}

QueryIndex QueryIndex::Build(RecipeCorpus corpus) {
  static obs::Histogram* build_ms =
      obs::MetricsRegistry::Get().histogram("serve.index.build_ms");
  const obs::ScopedTimer timer(build_ms);
  QueryIndex index;
  index.counts_ = IngredientCounts(corpus);
  auto base = std::make_shared<Base>();
  // The base's list lengths are the world counts.
  base->postings = PostingLists::Of(corpus, index.counts_.world_row());
  index.tail_ = RecipeTail(static_cast<uint32_t>(corpus.num_recipes()),
                           static_cast<uint32_t>(corpus.total_mentions()));
  base->corpus = std::move(corpus);
  index.base_ = std::move(base);
  index.BuildTables();
  return index;
}

QueryIndex QueryIndex::Extend(const QueryIndex& current, RecipeTail tail) {
  static obs::Histogram* build_ms =
      obs::MetricsRegistry::Get().histogram("serve.index.build_ms");
  const obs::ScopedTimer timer(build_ms);
  CULEVO_CHECK(tail.first() == current.tail_.first());
  CULEVO_CHECK(tail.size() >= current.tail_.size());
  QueryIndex index;
  index.counts_ = current.counts_;
  const RecipeRun added = tail.run(current.tail_.size());
  index.counts_.AddRecipes(added);
  const uint32_t first =
      tail.first() + static_cast<uint32_t>(current.tail_.size());

  if (tail.size() > tail.first()) {
    // Fold: a new base of every recipe. Each of its lists is the current
    // list (base half, then tail half) followed by the added recipes.
    auto base = std::make_shared<Base>();
    base->corpus = RecipeCorpus::Concat(current.base(), tail.run());
    const std::span<const uint32_t> lengths = index.counts_.world_row();
    std::vector<uint32_t> cursor = AllocateLists(lengths, &base->postings);
    for (size_t id = 0; id < lengths.size(); ++id) {
      const PostingList list = current.Postings(static_cast<IngredientId>(id));
      for (const std::span<const uint32_t> half : {list.base, list.tail}) {
        std::copy(half.begin(), half.end(),
                  base->postings.recipes.begin() + cursor[id]);
        cursor[id] += static_cast<uint32_t>(half.size());
      }
    }
    ScatterRun(added, first, &cursor, &base->postings);
    index.tail_ =
        RecipeTail(static_cast<uint32_t>(base->corpus.num_recipes()),
                   static_cast<uint32_t>(base->corpus.total_mentions()));
    index.base_ = std::move(base);
    index.BuildTables();
    return index;
  }

  // The added recipes' postings, appended to copies of the current tail
  // lists (which share their storage), each list reserved once.
  index.base_ = current.base_;
  index.tail_postings_ = current.tail_postings_;
  index.tail_postings_.resize(index.counts_.universe());
  std::vector<uint32_t> lengths(index.counts_.universe(), 0);
  for (IngredientId id : added.flat) ++lengths[id];
  for (size_t id = 0; id < lengths.size(); ++id) {
    if (lengths[id] > 0) index.tail_postings_[id].Reserve(lengths[id]);
  }
  for (size_t r = 0; r < added.size(); ++r) {
    for (IngredientId id : added.ingredients_of(r)) {
      index.tail_postings_[id].push_back(first + static_cast<uint32_t>(r));
    }
  }
  index.tail_ = std::move(tail);
  index.BuildTables();
  return index;
}

void QueryIndex::BuildTables() {
  // The per-cuisine tables, all from the counts: overrepresentation
  // (exactly the batch ranking), usage profiles, neighbour lists, ranks.
  const IngredientCounts& counts = counts_;
  const size_t universe = counts.universe();
  profiles_ = std::make_shared<const UsageProfileCache>(counts);
  overrep_.resize(kNumCuisines);
  nearest_.resize(kNumCuisines);
  ranked_.resize(kNumCuisines);
  rank_of_.assign(kNumCuisines * universe, 0);
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    const size_t ci = static_cast<size_t>(c);
    overrep_[ci] = ComputeOverrepresentation(counts, cuisine);
    nearest_[ci] = NearestCuisines(*profiles_, cuisine, kNumCuisines);

    // Descending count is descending fraction: every fraction of the
    // cuisine divides by the same recipe count.
    const std::span<const uint32_t> row = counts.row(cuisine);
    std::vector<IngredientId>& ranked = ranked_[ci];
    ranked = profiles_->profile(cuisine).ingredients;
    std::sort(ranked.begin(), ranked.end(),
              [&row](IngredientId a, IngredientId b) {
                if (row[a] != row[b]) return row[a] > row[b];
                return a < b;
              });
    uint32_t* rank_of = rank_of_.data() + ci * universe;
    for (size_t pos = 0; pos < ranked.size(); ++pos) {
      rank_of[ranked[pos]] = static_cast<uint32_t>(pos) + 1;
    }
  }
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

std::vector<uint32_t> QueryIndex::SearchRecipes(
    std::span<const IngredientId> ids, std::optional<CuisineId> cuisine,
    size_t limit) const {
  std::vector<uint32_t> out;
  if (ids.empty() || limit == 0) return out;

  // Intersect postings starting from the rarest list; each candidate from
  // it (its base half, then its tail half) is probed against the other
  // lists by binary search.
  std::vector<PostingList> lists;
  lists.reserve(ids.size());
  for (IngredientId id : ids) {
    const PostingList postings = Postings(id);
    if (postings.empty()) return out;
    lists.push_back(postings);
  }
  std::sort(lists.begin(), lists.end(),
            [](const PostingList& a, const PostingList& b) {
              return a.size() < b.size();
            });
  for (const std::span<const uint32_t> half : {lists[0].base, lists[0].tail}) {
    for (uint32_t candidate : half) {
      bool in_all = true;
      for (size_t i = 1; i < lists.size() && in_all; ++i) {
        in_all = lists[i].Contains(candidate);
      }
      if (!in_all) continue;
      if (cuisine.has_value() && cuisine_of(candidate) != *cuisine) continue;
      out.push_back(candidate);
      if (out.size() == limit) return out;
    }
  }
  return out;
}

}  // namespace culevo

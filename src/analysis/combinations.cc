#include "analysis/combinations.h"

#include <cmath>

#include "analysis/apriori.h"
#include "analysis/eclat.h"

namespace culevo {

size_t AbsoluteSupport(size_t num_transactions, double min_relative_support) {
  const double raw =
      std::ceil(min_relative_support * static_cast<double>(num_transactions));
  const size_t count = raw <= 1.0 ? 1 : static_cast<size_t>(raw);
  return count;
}

namespace {

EclatOptions EclatOptionsOf(const CombinationConfig& config) {
  EclatOptions options;
  options.cancel = config.cancel;
  return options;
}

}  // namespace

std::vector<Itemset> MineCombinations(const TransactionSet& transactions,
                                      const CombinationConfig& config) {
  const size_t support =
      AbsoluteSupport(transactions.size(), config.min_relative_support);
  switch (config.miner) {
    case MinerKind::kEclat:
      return MineEclat(transactions, support, EclatOptionsOf(config));
    case MinerKind::kApriori:
      return MineApriori(transactions, support);
  }
  return {};
}

RankFrequency CombinationCurve(const TransactionSet& transactions,
                               const CombinationConfig& config) {
  if (transactions.size() == 0) return RankFrequency();
  if (config.miner == MinerKind::kApriori) {
    const std::vector<Itemset> itemsets =
        MineCombinations(transactions, config);
    std::vector<size_t> counts;
    counts.reserve(itemsets.size());
    for (const Itemset& itemset : itemsets) counts.push_back(itemset.support);
    return RankFrequency::FromCounts(counts, transactions.size());
  }
  const size_t support =
      AbsoluteSupport(transactions.size(), config.min_relative_support);
  return RankFrequency::FromCounts(
      MineEclatSupports(transactions, support, EclatOptionsOf(config)),
      transactions.size());
}

RankFrequency CombinationCurve(const RowSource& rows,
                               const CombinationConfig& config) {
  if (rows.num_rows() == 0) return RankFrequency();
  if (config.miner == MinerKind::kApriori) {
    return CombinationCurve(TransactionSet::FromRows(rows), config);
  }
  const size_t support =
      AbsoluteSupport(rows.num_rows(), config.min_relative_support);
  return RankFrequency::FromCounts(
      MineEclatSupports(rows, support, EclatOptionsOf(config)),
      rows.num_rows());
}

RankFrequency IngredientCombinationCurve(const RecipeCorpus& corpus,
                                         CuisineId cuisine,
                                         const CombinationConfig& config) {
  return CombinationCurve(IngredientTransactions(corpus, cuisine), config);
}

RankFrequency CategoryCombinationCurve(const RecipeCorpus& corpus,
                                       CuisineId cuisine,
                                       const Lexicon& lexicon,
                                       const CombinationConfig& config) {
  return CombinationCurve(CategoryTransactions(corpus, cuisine, lexicon),
                          config);
}

}  // namespace culevo

#include "analysis/combinations.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "analysis/apriori.h"
#include "analysis/eclat.h"
#include "obs/metrics.h"
#include "lexicon/lexicon.h"
#include "random_transactions.h"
#include "util/rng.h"

namespace culevo {
namespace {

TEST(AbsoluteSupportTest, CeilingWithFloorOfOne) {
  EXPECT_EQ(AbsoluteSupport(100, 0.05), 5u);
  EXPECT_EQ(AbsoluteSupport(101, 0.05), 6u);   // ceil(5.05).
  EXPECT_EQ(AbsoluteSupport(10, 0.001), 1u);   // Floor of 1.
  EXPECT_EQ(AbsoluteSupport(0, 0.05), 1u);
  EXPECT_EQ(AbsoluteSupport(1000, 1.0), 1000u);
}

TransactionSet SkewedTransactions() {
  TransactionSet out;
  // Items 0 and 1 co-occur everywhere; item 2 is present in 40%.
  for (int i = 0; i < 10; ++i) {
    if (i < 4) {
      out.Add({0, 1, 2});
    } else {
      out.Add({0, 1});
    }
  }
  return out;
}

TEST(MineCombinationsTest, RespectsRelativeSupport) {
  CombinationConfig config;
  config.min_relative_support = 0.5;
  const std::vector<Itemset> itemsets =
      MineCombinations(SkewedTransactions(), config);
  // Frequent at 50%: {0}, {1}, {0,1} (support 10 each); {2} misses (4).
  ASSERT_EQ(itemsets.size(), 3u);
  for (const Itemset& itemset : itemsets) EXPECT_EQ(itemset.support, 10u);
}

TEST(MineCombinationsTest, MinersAgree) {
  CombinationConfig eclat;
  eclat.miner = MinerKind::kEclat;
  CombinationConfig apriori;
  apriori.miner = MinerKind::kApriori;
  const auto a = MineCombinations(SkewedTransactions(), eclat);
  const auto b = MineCombinations(SkewedTransactions(), apriori);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].items, b[i].items);
    EXPECT_EQ(a[i].support, b[i].support);
  }
}

TEST(CombinationCurveTest, NormalizedByTransactionCount) {
  CombinationConfig config;
  config.min_relative_support = 0.3;
  const RankFrequency curve =
      CombinationCurve(SkewedTransactions(), config);
  // Frequent: {0},{1},{0,1} at 1.0 and {2},{0,2},{1,2},{0,1,2} at 0.4.
  ASSERT_EQ(curve.size(), 7u);
  EXPECT_DOUBLE_EQ(curve.at_rank(1), 1.0);
  EXPECT_DOUBLE_EQ(curve.at_rank(3), 1.0);
  EXPECT_DOUBLE_EQ(curve.at_rank(4), 0.4);
  EXPECT_DOUBLE_EQ(curve.at_rank(7), 0.4);
}

TEST(CombinationCurveTest, EmptyTransactions) {
  TransactionSet empty;
  EXPECT_TRUE(CombinationCurve(empty).empty());
}

TEST(CuisineCurvesTest, IngredientAndCategoryProjections) {
  Lexicon lexicon;
  const IngredientId basil = lexicon.Add("Basil", Category::kHerb).value();
  const IngredientId mint = lexicon.Add("Mint", Category::kHerb).value();
  const IngredientId salt = lexicon.Add("Salt", Category::kAdditive).value();

  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {basil, salt}).ok());
  ASSERT_TRUE(builder.Add(0, {mint, salt}).ok());
  const RecipeCorpus corpus = builder.Build();

  CombinationConfig config;
  config.min_relative_support = 0.9;
  // Ingredient level: only {Salt} appears in both recipes.
  const RankFrequency ingredient =
      IngredientCombinationCurve(corpus, 0, config);
  ASSERT_EQ(ingredient.size(), 1u);
  EXPECT_DOUBLE_EQ(ingredient.at_rank(1), 1.0);

  // Category level: both recipes project to {Herb, Additive}, so all three
  // category combinations are universal.
  const RankFrequency category =
      CategoryCombinationCurve(corpus, 0, lexicon, config);
  ASSERT_EQ(category.size(), 3u);
  EXPECT_DOUBLE_EQ(category.at_rank(3), 1.0);
}

TEST(TransactionProjectionTest, CategoryTransactionsDeduplicate) {
  Lexicon lexicon;
  const IngredientId basil = lexicon.Add("Basil", Category::kHerb).value();
  const IngredientId mint = lexicon.Add("Mint", Category::kHerb).value();
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {basil, mint}).ok());
  const RecipeCorpus corpus = builder.Build();

  const TransactionSet transactions =
      CategoryTransactions(corpus, 0, lexicon);
  ASSERT_EQ(transactions.size(), 1u);
  // Two herbs project to a single category item.
  EXPECT_EQ(transactions.transaction(0).size(), 1u);
  EXPECT_EQ(transactions.transaction(0)[0],
            static_cast<Item>(Category::kHerb));
}

// ---------------------------------------------------------------------------
// Count-only mining: the supports MineEclatSupports returns are exactly the
// supports of the itemsets MineEclat and MineApriori return.

std::vector<size_t> SortedSupports(const std::vector<Itemset>& itemsets) {
  std::vector<size_t> supports;
  for (const Itemset& itemset : itemsets) supports.push_back(itemset.support);
  std::sort(supports.begin(), supports.end(), std::greater<size_t>());
  return supports;
}

TEST(CountOnlyMiningTest, SupportsMatchBothMinersOnDifferentialSet) {
  Rng rng(test_data::kDifferentialSeed);
  for (int round = 0; round < test_data::kDifferentialRounds; ++round) {
    const TransactionSet transactions = test_data::RandomTransactions(&rng);
    for (const size_t min_support :
         test_data::DifferentialSupports(transactions.size())) {
      const std::vector<size_t> eclat =
          SortedSupports(MineEclat(transactions, min_support));
      ASSERT_EQ(eclat, SortedSupports(MineApriori(transactions, min_support)))
          << "round " << round << ", support " << min_support;
      ASSERT_EQ(MineEclatSupports(transactions, min_support), eclat)
          << "round " << round << ", support " << min_support;
    }
  }
}

TEST(CountOnlyMiningTest, CountsItemsetsAndIntersections) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Counter* itemsets = registry.counter("mine.eclat.itemsets");
  const auto intersections = [&registry] {
    return registry.counter("mine.eclat.dense_intersections")->Value() +
           registry.counter("mine.eclat.sparse_intersections")->Value() +
           registry.counter("mine.eclat.mixed_intersections")->Value();
  };
  Rng rng(test_data::kDifferentialSeed);
  const TransactionSet transactions = test_data::RandomTransactions(&rng);

  int64_t before_itemsets = itemsets->Value();
  int64_t before_intersections = intersections();
  const size_t mined = MineEclat(transactions, 2).size();
  const int64_t full_itemsets = itemsets->Value() - before_itemsets;
  const int64_t full_intersections = intersections() - before_intersections;

  before_itemsets = itemsets->Value();
  before_intersections = intersections();
  EXPECT_EQ(MineEclatSupports(transactions, 2).size(), mined);
  EXPECT_EQ(itemsets->Value() - before_itemsets, full_itemsets);
  EXPECT_EQ(intersections() - before_intersections, full_intersections);
}

// ---------------------------------------------------------------------------
// Row sources: mining straight from CSR rows equals mining their
// materialized TransactionSet.

/// Rows whose entries map through `item_of` onto a few items, so most
/// rows repeat an item (two ingredients of one category).
struct MappedRows {
  std::vector<uint32_t> offsets = {0};
  std::vector<uint32_t> entries;
  std::vector<Item> item_of;
  size_t universe = 0;

  RowSource view() const { return {offsets, entries, item_of, universe}; }
};

MappedRows RepeatingRows(Rng* rng, size_t num_rows, size_t num_entries,
                         const std::vector<Item>& items) {
  MappedRows rows;
  for (size_t e = 0; e < num_entries; ++e) {
    rows.item_of.push_back(items[rng->NextBounded(items.size())]);
  }
  for (Item item : items) {
    rows.universe = std::max(rows.universe, static_cast<size_t>(item) + 1);
  }
  for (size_t r = 0; r < num_rows; ++r) {
    const size_t len = 1 + rng->NextBounded(12);
    for (size_t j = 0; j < len; ++j) {
      rows.entries.push_back(
          static_cast<uint32_t>(rng->NextBounded(num_entries)));
    }
    rows.offsets.push_back(static_cast<uint32_t>(rows.entries.size()));
  }
  return rows;
}

/// The deduplicated transactions of `rows`, built the slow obvious way.
TransactionSet DedupedTransactions(const MappedRows& rows) {
  TransactionSet out;
  for (size_t r = 0; r + 1 < rows.offsets.size(); ++r) {
    std::vector<Item> t;
    for (uint32_t e = rows.offsets[r]; e < rows.offsets[r + 1]; ++e) {
      t.push_back(rows.item_of[rows.entries[e]]);
    }
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    out.Add(t);
  }
  return out;
}

void ExpectRowsMineLikeDedupedSet(const MappedRows& rows) {
  const TransactionSet deduped = DedupedTransactions(rows);
  ASSERT_TRUE(TransactionSet::FromRows(rows.view()) == deduped);
  for (const size_t min_support : {size_t{1}, size_t{3}, size_t{12}}) {
    const std::vector<size_t> expected =
        SortedSupports(MineApriori(deduped, min_support));
    EXPECT_EQ(MineEclatSupports(rows.view(), min_support), expected)
        << "support " << min_support;
  }
}

TEST(RowSourceMiningTest, RepeatedItemCountsOncePerRowOnDirectGridPath) {
  // Six items in a universe of 21: universe x words stays far below the
  // direct-transposition grid cap.
  Rng rng(7);
  ExpectRowsMineLikeDedupedSet(
      RepeatingRows(&rng, 200, 40, {0, 3, 5, 11, 17, 20}));
}

TEST(RowSourceMiningTest, RepeatedItemCountsOncePerRowOnCountThenFillPath) {
  // An item_of universe of 65536 over 200 rows is a 65536 x 4-word grid,
  // past the direct-transposition cap, so the roots are counted and then
  // filled.
  Rng rng(8);
  ExpectRowsMineLikeDedupedSet(
      RepeatingRows(&rng, 200, 40, {2, 700, 9000, 40000, 65535}));
}

TEST(RowSourceMiningTest, IdentityRowsMineLikeTheirTransactionSet) {
  Rng rng(test_data::kDifferentialSeed);
  for (int round = 0; round < 20; ++round) {
    const TransactionSet transactions = test_data::RandomTransactions(&rng);
    const std::vector<uint32_t> entries(transactions.items().begin(),
                                        transactions.items().end());
    const RowSource rows{transactions.offsets(), entries, {},
                         transactions.item_universe()};
    ASSERT_TRUE(TransactionSet::FromRows(rows) == transactions);
    for (const size_t min_support :
         test_data::DifferentialSupports(transactions.size())) {
      ASSERT_EQ(MineEclatSupports(rows, min_support),
                MineEclatSupports(transactions, min_support));
    }
    for (const MinerKind miner : {MinerKind::kEclat, MinerKind::kApriori}) {
      CombinationConfig config;
      config.min_relative_support = 0.1;
      config.miner = miner;
      EXPECT_EQ(CombinationCurve(rows, config).values(),
                CombinationCurve(transactions, config).values());
    }
  }
}

TEST(TransactionSetTest, CsrLayoutAndEquality) {
  TransactionSet a;
  a.Add({1, 4});
  a.AddMask(0b1010);
  a.Add({});
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.item_universe(), 5u);
  EXPECT_EQ(std::vector<Item>(a.transaction(1).begin(),
                              a.transaction(1).end()),
            (std::vector<Item>{1, 3}));
  EXPECT_TRUE(a.transaction(2).empty());
  EXPECT_EQ(a.offsets().size(), 4u);
  EXPECT_EQ(a.items().size(), 4u);

  TransactionSet b;
  b.Add({1, 4});
  b.Add({1, 3});
  EXPECT_FALSE(a == b);
  b.Add({});
  EXPECT_TRUE(a == b);

  // A moved-from set is empty and can be refilled.
  const TransactionSet moved = std::move(b);
  EXPECT_TRUE(moved == a);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move)
  b.Add({2});
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.transaction(0)[0], 2u);
}

}  // namespace
}  // namespace culevo

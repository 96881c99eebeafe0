#include "analysis/transactions.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

#include "util/check.h"

namespace culevo {

static_assert(kNumCategories <= 32,
              "category projections are built as 32-bit masks");

bool ItemsetLess(const Itemset& a, const Itemset& b) {
  if (a.items.size() != b.items.size()) {
    return a.items.size() < b.items.size();
  }
  return a.items < b.items;
}

void TransactionSet::EndTransaction() {
  if (offsets_.empty()) offsets_.push_back(0);  // moved-from
  const size_t begin = offsets_.back();
  CULEVO_DCHECK(items_.size() <= UINT32_MAX);
  CULEVO_DCHECK(std::adjacent_find(items_.begin() + begin, items_.end(),
                                   std::greater_equal<Item>()) ==
                items_.end());
  if (items_.size() > begin) {
    universe_ = std::max(universe_, static_cast<size_t>(items_.back()) + 1);
  }
  offsets_.push_back(static_cast<uint32_t>(items_.size()));
}

void TransactionSet::Add(std::span<const Item> items) {
  items_.insert(items_.end(), items.begin(), items.end());
  EndTransaction();
}

void TransactionSet::AddMask(uint32_t mask) {
  for (; mask != 0; mask &= mask - 1) {
    items_.push_back(static_cast<Item>(std::countr_zero(mask)));
  }
  EndTransaction();
}

template <bool kMapped>
void TransactionSet::AppendSortedRows(const RowSource& rows) {
  // One bit per universe item: a row sets its bits, then reading them back
  // word by word yields the row sorted and deduplicated, and clears the
  // words it touched for the next row.
  std::vector<uint64_t> bitmap((rows.universe + 63) / 64, 0);
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    size_t lo = bitmap.size();
    size_t hi = 0;
    for (uint32_t e = rows.offsets[r]; e < rows.offsets[r + 1]; ++e) {
      const size_t item = kMapped ? rows.item_of[rows.entries[e]]
                                  : rows.entries[e];
      CULEVO_DCHECK(item < rows.universe);
      const size_t word = item >> 6;
      bitmap[word] |= uint64_t{1} << (item & 63);
      lo = std::min(lo, word);
      hi = std::max(hi, word + 1);
    }
    for (size_t w = lo; w < hi; ++w) {
      for (uint64_t bits = std::exchange(bitmap[w], 0); bits != 0;
           bits &= bits - 1) {
        items_.push_back(static_cast<Item>(w * 64 + std::countr_zero(bits)));
      }
    }
    EndTransaction();
  }
}

TransactionSet TransactionSet::FromRows(const RowSource& rows) {
  TransactionSet out;
  out.Reserve(rows.num_rows(), rows.entries.size());
  if (rows.item_of.empty()) {
    out.AppendSortedRows<false>(rows);
  } else {
    out.AppendSortedRows<true>(rows);
  }
  return out;
}

TransactionSet IngredientTransactions(const RecipeCorpus& corpus,
                                      CuisineId cuisine) {
  TransactionSet out;
  out.Reserve(corpus.recipes_of(cuisine).size());
  for (uint32_t index : corpus.recipes_of(cuisine)) {
    // IngredientId and Item are both uint16_t, and corpus recipes are
    // sorted and unique, which is TransactionSet's contract.
    out.Add(corpus.ingredients_of(index));
  }
  return out;
}

size_t AppendNewTransactions(IncrementalCorpus& corpus, CuisineId cuisine,
                             TransactionSet* set) {
  const std::span<const uint32_t> delta = corpus.DrainNewRecipes(cuisine);
  for (uint32_t index : delta) set->Add(corpus.ingredients_of(index));
  return delta.size();
}

TransactionSet CategoryTransactions(const RecipeCorpus& corpus,
                                    CuisineId cuisine,
                                    const Lexicon& lexicon) {
  TransactionSet out;
  out.Reserve(corpus.recipes_of(cuisine).size());
  for (uint32_t index : corpus.recipes_of(cuisine)) {
    uint32_t mask = 0;
    for (IngredientId id : corpus.ingredients_of(index)) {
      mask |= uint32_t{1} << static_cast<int>(lexicon.category(id));
    }
    out.AddMask(mask);
  }
  return out;
}

}  // namespace culevo

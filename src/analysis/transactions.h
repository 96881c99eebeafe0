#ifndef CULEVO_ANALYSIS_TRANSACTIONS_H_
#define CULEVO_ANALYSIS_TRANSACTIONS_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "corpus/ingestion.h"
#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"

namespace culevo {

/// Generic item for frequent-itemset mining. Wide enough for both
/// ingredient ids (0..720) and category indices (0..20).
using Item = uint16_t;

/// A frequent itemset and its absolute support (transaction count).
struct Itemset {
  std::vector<Item> items;  ///< Sorted ascending, unique.
  size_t support = 0;
};

/// Deterministic ordering for test comparison: by size, then
/// lexicographically by items.
bool ItemsetLess(const Itemset& a, const Itemset& b);

/// Rows of `entries` in CSR form, each entry mapped to an item: row r is
/// item_of[entries[offsets[r]]], ..., item_of[entries[offsets[r + 1] - 1]].
/// This is how the miner reads a generated recipe pool without
/// materializing its transactions (a RecipeStore's positions mapped to
/// ingredient ids or to categories).
///
/// With an empty `item_of` the entries are the items themselves (identity
/// map) and each row must be duplicate-free. With a map, a row may repeat
/// an item (two ingredients of one category); it still counts once.
/// Every item is < `universe`.
struct RowSource {
  std::span<const uint32_t> offsets;  ///< num_rows() + 1 entries.
  std::span<const uint32_t> entries;
  std::span<const Item> item_of;
  size_t universe = 0;

  size_t num_rows() const { return offsets.empty() ? 0 : offsets.size() - 1; }
};

/// A transaction database: each transaction is a sorted set of items,
/// stored in one CSR layout (a flat item buffer plus an offsets
/// directory). This is the input format of both miners.
class TransactionSet {
 public:
  TransactionSet() = default;

  /// Materializes `rows` with each row sorted and deduplicated, via a
  /// bitmap over the item universe instead of a comparison sort.
  static TransactionSet FromRows(const RowSource& rows);

  /// Appends one transaction. `items` must be sorted ascending and
  /// duplicate-free.
  void Add(std::span<const Item> items);
  void Add(std::initializer_list<Item> items) {
    Add(std::span<const Item>(items.begin(), items.size()));
  }
  /// Appends the transaction {i : bit i of `mask` is set}.
  void AddMask(uint32_t mask);

  /// Reserves capacity for `num_transactions` transactions holding
  /// `num_items` items in total.
  void Reserve(size_t num_transactions, size_t num_items = 0) {
    offsets_.reserve(num_transactions + 1);
    items_.reserve(num_items);
  }

  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::span<const Item> transaction(size_t i) const {
    return {items_.data() + offsets_[i], items_.data() + offsets_[i + 1]};
  }
  /// The CSR columns: transaction i is items()[offsets()[i] ..
  /// offsets()[i + 1]).
  std::span<const Item> items() const { return items_; }
  std::span<const uint32_t> offsets() const { return offsets_; }

  /// Largest item value + 1 (0 if empty).
  size_t item_universe() const { return universe_; }

  bool operator==(const TransactionSet& other) const = default;

 private:
  /// Seals the items appended since the last offset as one transaction.
  void EndTransaction();
  /// FromRows with the identity/mapped branch hoisted out of the row loop.
  template <bool kMapped>
  void AppendSortedRows(const RowSource& rows);

  std::vector<Item> items_;
  std::vector<uint32_t> offsets_ = {0};
  size_t universe_ = 0;
};

/// The ingredient transactions of one cuisine: one transaction per recipe,
/// items = ingredient ids.
TransactionSet IngredientTransactions(const RecipeCorpus& corpus,
                                      CuisineId cuisine);

/// Appends the recipes added to `cuisine` since the last drain (see
/// IncrementalCorpus::DrainNewRecipes) to `set`: a standing mining input
/// is extended by the ingestion delta instead of being rebuilt from the
/// whole corpus. Returns the number of transactions appended.
size_t AppendNewTransactions(IncrementalCorpus& corpus, CuisineId cuisine,
                             TransactionSet* set);

/// The category transactions of one cuisine: each recipe projected to the
/// set of distinct categories of its ingredients (the paper's "combinations
/// of ingredient categories").
TransactionSet CategoryTransactions(const RecipeCorpus& corpus,
                                    CuisineId cuisine,
                                    const Lexicon& lexicon);

}  // namespace culevo

#endif  // CULEVO_ANALYSIS_TRANSACTIONS_H_

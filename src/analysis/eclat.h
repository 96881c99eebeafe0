#ifndef CULEVO_ANALYSIS_ECLAT_H_
#define CULEVO_ANALYSIS_ECLAT_H_

#include <vector>

#include "analysis/transactions.h"

namespace culevo {

class CancelToken;

/// Tuning knobs for the Eclat engine. The defaults are what the pipeline
/// uses; tests pin `density_threshold` to force the pure-dense or
/// pure-sparse code paths.
struct EclatOptions {
  /// When non-null, the miner polls this token between root classes and
  /// stops taking on new classes once it trips. A class that already
  /// started always finishes, so the partial result is the complete
  /// classes of a prefix of the root order (roots ascending by support,
  /// then item), sorted like a full result — never torn, but not the full
  /// answer. Callers that pass a token are expected to detect the trip
  /// themselves (CancelToken::Check) and discard or label the partial
  /// result.
  const CancelToken* cancel = nullptr;

  /// A tid list with support >= ceil(density_threshold * num_transactions)
  /// is stored as a dense bitset, below that as a sorted sparse uint32
  /// vector. 1/32 is the memory break-even point (bitset = n/8 bytes vs
  /// 4 bytes per tid). <= 0 forces all-dense, > 1 forces all-sparse.
  double density_threshold = 1.0 / 32.0;
};

/// Eclat frequent-itemset mining (Zaki 2000) over vertical tid lists in a
/// hybrid dense-bitset / sparse-vector representation, with arena-backed
/// candidate storage. Mining is serial: callers that want parallelism run
/// independent mining calls side by side (one per replica). Produces
/// exactly the same itemsets as MineApriori (the test suite cross-checks
/// them) but runs orders of magnitude faster on the corpus-sized inputs
/// used by the benchmark harness.
///
/// Returns every itemset of size >= 1 with support >= `min_support_count`
/// (0 is treated as 1), sorted with ItemsetLess.
std::vector<Itemset> MineEclat(const TransactionSet& transactions,
                               size_t min_support_count,
                               const EclatOptions& options);
std::vector<Itemset> MineEclat(const TransactionSet& transactions,
                               size_t min_support_count);

/// Count-only Eclat: the supports of exactly the itemsets MineEclat
/// returns, sorted descending, without building a single Itemset. Same
/// options, cancellation semantics and mine.eclat.* counters (itemsets and
/// intersections are still counted). This is all a rank-frequency curve
/// needs.
std::vector<size_t> MineEclatSupports(const TransactionSet& transactions,
                                      size_t min_support_count,
                                      const EclatOptions& options = {});

/// Count-only Eclat read straight from a row source: the root tid lists
/// are scattered from `rows` without materializing any transaction. A row
/// that repeats an item (possible under an `item_of` map) counts it once,
/// so the supports equal those of TransactionSet::FromRows(rows).
std::vector<size_t> MineEclatSupports(const RowSource& rows,
                                      size_t min_support_count,
                                      const EclatOptions& options = {});

}  // namespace culevo

#endif  // CULEVO_ANALYSIS_ECLAT_H_

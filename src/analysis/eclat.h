#ifndef CULEVO_ANALYSIS_ECLAT_H_
#define CULEVO_ANALYSIS_ECLAT_H_

#include <vector>

#include "analysis/transactions.h"

namespace culevo {

class CancelToken;
class ThreadPool;

/// Tuning knobs for the Eclat engine. The defaults are what the pipeline
/// uses; tests pin `density_threshold` to force the pure-dense or
/// pure-sparse code paths.
struct EclatOptions {
  /// When non-null, mining runs on a work-stealing scheduler: the calling
  /// thread plus up to pool->num_threads() workers drain subtree-granular
  /// tasks from per-participant deques, with oversized equivalence classes
  /// split into independently stealable child tasks. Output is
  /// bit-identical to the serial path (the mined set of itemsets is
  /// schedule-independent and the final sort is a total order). Safe to
  /// pass the pool this call itself runs on: the calling thread can always
  /// finish all work alone, so nested use degrades to caller-only mining
  /// instead of deadlocking.
  ThreadPool* pool = nullptr;

  /// When non-null, the miner polls this token at task boundaries (between
  /// root classes when serial; at every steal/subtree boundary when
  /// parallel) and stops taking on new work once it trips. Subtrees that
  /// already started always finish, so the partial result is a
  /// well-formed SUBSET of complete subtrees — sorted, never torn, but not
  /// the full answer and (in the parallel case) not necessarily a prefix
  /// of the root classes. Callers that pass a token are expected to detect
  /// the trip themselves (CancelToken::Check) and discard or label the
  /// partial result.
  const CancelToken* cancel = nullptr;

  /// A tid list with support >= ceil(density_threshold * num_transactions)
  /// is stored as a dense bitset, below that as a sorted sparse uint32
  /// vector. 1/32 is the memory break-even point (bitset = n/8 bytes vs
  /// 4 bytes per tid). <= 0 forces all-dense, > 1 forces all-sparse.
  double density_threshold = 1.0 / 32.0;
};

/// Eclat frequent-itemset mining (Zaki 2000) over vertical tid lists in a
/// hybrid dense-bitset / sparse-vector representation, with arena-backed
/// candidate storage and optional parallel root-class mining. Produces
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

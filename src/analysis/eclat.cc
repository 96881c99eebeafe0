#include "analysis/eclat.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <type_traits>
#include <utility>

#include "analysis/tidlist.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/cancel.h"
#include "util/check.h"

namespace culevo {
namespace {

using mining::kAborted;
using mining::TidArena;
using mining::TidList;

/// Kernel-invocation counts accumulated locally during one mining call and
/// flushed to the obs registry at its end, so the hot loops never touch
/// the (sharded but still atomic) counters.
struct KernelStats {
  int64_t dense_intersections = 0;
  int64_t sparse_intersections = 0;
  int64_t mixed_intersections = 0;
  int64_t early_aborts = 0;
};

struct Node {
  Item item;
  TidList tids;
};

/// Grid-size cap (in words) below which the root tid lists are built by
/// direct transposition: one dense bitset row per *universe* item scattered
/// into in a single pass, with per-row popcounts replacing the counting
/// pass. 1<<15 words = 256 KiB keeps the grid cache-resident; wider
/// universes fall back to the count-then-fill build.
constexpr size_t kDirectGridMaxWords = size_t{1} << 15;

/// What one mining call fixes before the root build.
struct MineShape {
  size_t num_words = 0;          ///< Words per dense tid list.
  size_t min_support = 0;
  size_t dense_min_support = 0;  ///< Dense-vs-sparse cut (see EclatOptions).
};

bool NodeSupportLess(const Node& a, const Node& b) {
  if (a.tids.support != b.tids.support) {
    return a.tids.support < b.tids.support;
  }
  return a.item < b.item;
}

/// Output sink of MineEclat: every itemset, with its items sorted
/// (callers hand over mining-order prefixes). Finish() sorts the itemsets
/// canonically.
struct ItemsetSink {
  std::vector<Itemset> out;

  void Emit(const std::vector<Item>& items, uint32_t support) {
    std::vector<Item> sorted_items(items);
    std::sort(sorted_items.begin(), sorted_items.end());
    out.push_back(Itemset{std::move(sorted_items), support});
  }
  void Finish();
};

/// Output sink of the count-only entry points: the support alone, no
/// itemset. Finish() sorts descending, the curve's rank order, which does
/// not depend on the order the classes were mined in.
struct SupportSink {
  std::vector<size_t> out;

  void Emit(const std::vector<Item>& /*items*/, uint32_t support) {
    out.push_back(support);
  }
  void Finish() { std::sort(out.begin(), out.end(), std::greater<size_t>()); }
};

/// Mines the equivalence classes under the root nodes into a Sink
/// (ItemsetSink or SupportSink), one class per root in root order. Owns no
/// tid storage: candidate payloads live in the caller's arena, released
/// with stack discipline as the recursion unwinds. Sibling Node vectors
/// are pooled per recursion depth, so steady-state mining allocates only
/// for emitted output.
template <typename Sink>
class ClassMiner {
 public:
  ClassMiner(TidArena* arena, const MineShape& shape,
             const CancelToken* cancel, Sink* out)
      : arena_(arena),
        num_words_(shape.num_words),
        min_support_(shape.min_support),
        dense_min_support_(shape.dense_min_support),
        cancel_(cancel),
        out_(out) {}

  /// Mines the class of every root (sorted by NodeSupportLess), polling
  /// the cancel token before each one: a tripped token leaves the complete
  /// classes of a prefix of the roots.
  void MineRoots(const std::vector<Node>& roots) { MineSiblings(roots, 0); }

  const KernelStats& stats() const { return stats_; }

 private:
  std::vector<Node>& LevelBuffer(size_t depth) {
    while (levels_.size() <= depth) levels_.emplace_back();
    return levels_[depth];
  }

  void EmitPrefix(uint32_t support) { out_->Emit(prefix_, support); }

  void BuildChildren(const Node& node, const std::vector<Node>& siblings,
                     size_t from, std::vector<Node>* children) {
    children->clear();
    for (size_t j = from; j < siblings.size(); ++j) {
      TidList tids;
      if (Intersect(node.tids, siblings[j].tids, &tids)) {
        children->push_back(Node{siblings[j].item, tids});
      }
    }
    // Dynamic reordering: extend the smallest tid lists first so deeper
    // intersections shrink (and abort) as early as possible.
    std::sort(children->begin(), children->end(), NodeSupportLess);
  }

  void MineSiblings(const std::vector<Node>& siblings, size_t depth) {
    for (size_t i = 0; i < siblings.size(); ++i) {
      if (depth == 0 && CancelToken::ShouldStop(cancel_)) break;
      const Node& node = siblings[i];
      prefix_.push_back(node.item);
      EmitPrefix(node.tids.support);
      if (i + 1 < siblings.size()) {
        const TidArena::Mark mark = arena_->Position();
        std::vector<Node>& children = LevelBuffer(depth);
        BuildChildren(node, siblings, i + 1, &children);
        if (!children.empty()) MineSiblings(children, depth + 1);
        arena_->Rewind(mark);
      }
      prefix_.pop_back();
    }
  }

  /// Intersects two tid lists into arena storage. Returns false (with the
  /// arena rewound) when the result cannot reach min_support. Result
  /// representation follows the density threshold: dense x dense results
  /// that fall below it are demoted to sparse, and any result with a
  /// sparse input is at most as large as that input, hence stays sparse.
  ///
  /// early_aborts counts kernels that stopped before consuming all input
  /// (returned kAborted) — a completed scan that merely lands below
  /// min_support is an infrequent result, not an abort.
  bool Intersect(const TidList& a, const TidList& b, TidList* out) {
    if (a.dense() && b.dense()) {
      ++stats_.dense_intersections;
      uint64_t* words = arena_->AllocWords(num_words_);
      const size_t s = mining::IntersectDenseDense(
          a.words, b.words, num_words_, min_support_, words);
      if (s == kAborted || s < min_support_) {
        if (s == kAborted) ++stats_.early_aborts;
        arena_->TrimTo(words, 0);
        return false;
      }
      if (s >= dense_min_support_) {
        out->words = words;
        out->support = static_cast<uint32_t>(s);
        return true;
      }
      scratch_.resize(s);
      mining::DenseToSparse(words, num_words_, scratch_.data());
      arena_->TrimTo(words, 0);
      uint32_t* tids = arena_->AllocTids(s);
      std::copy_n(scratch_.data(), s, tids);
      out->tids = tids;
      out->support = static_cast<uint32_t>(s);
      return true;
    }

    size_t s = 0;
    uint32_t* tids = nullptr;
    if (!a.dense() && !b.dense()) {
      ++stats_.sparse_intersections;
      tids = arena_->AllocTids(std::min(a.support, b.support));
      s = mining::IntersectSparseSparse(a.tids, a.support, b.tids, b.support,
                                        min_support_, tids);
    } else {
      ++stats_.mixed_intersections;
      const TidList& sparse = a.dense() ? b : a;
      const TidList& dense = a.dense() ? a : b;
      tids = arena_->AllocTids(sparse.support);
      s = mining::IntersectSparseDense(sparse.tids, sparse.support,
                                       dense.words, min_support_, tids);
    }
    if (s == kAborted || s < min_support_) {
      if (s == kAborted) ++stats_.early_aborts;
      arena_->TrimToTids(tids, 0);
      return false;
    }
    arena_->TrimToTids(tids, s);
    out->tids = tids;
    out->support = static_cast<uint32_t>(s);
    return true;
  }

  TidArena* const arena_;
  const size_t num_words_;
  const size_t min_support_;
  const size_t dense_min_support_;
  const CancelToken* const cancel_;
  Sink* const out_;
  std::vector<Item> prefix_;
  std::deque<std::vector<Node>> levels_;  ///< Per-depth sibling freelist.
  std::vector<uint32_t> scratch_;         ///< Dense-to-sparse staging.
  KernelStats stats_;
};

/// Sorts `itemsets` with ItemsetLess — (size, lexicographic items) — via a
/// presort on a packed (size, leading item) key, so the cache-hostile
/// vector-vs-vector comparisons only run inside the tiny equal-key runs.
/// ItemsetLess is a total order over distinct itemsets, so the output has
/// one canonical arrangement whatever order the classes were mined in.
void SortItemsets(std::vector<Itemset>* itemsets) {
  std::vector<std::pair<uint64_t, uint32_t>> keys(itemsets->size());
  for (size_t i = 0; i < itemsets->size(); ++i) {
    const Itemset& set = (*itemsets)[i];
    keys[i] = {(uint64_t{set.items.size()} << 32) | set.items.front(),
               static_cast<uint32_t>(i)};
  }
  std::sort(keys.begin(), keys.end());
  std::vector<Itemset> sorted;
  sorted.reserve(itemsets->size());
  size_t i = 0;
  while (i < keys.size()) {
    size_t j = i + 1;
    while (j < keys.size() && keys[j].first == keys[i].first) ++j;
    if (j - i > 1) {
      std::sort(keys.begin() + static_cast<ptrdiff_t>(i),
                keys.begin() + static_cast<ptrdiff_t>(j),
                [&](const std::pair<uint64_t, uint32_t>& a,
                    const std::pair<uint64_t, uint32_t>& b) {
                  return ItemsetLess((*itemsets)[a.second],
                                     (*itemsets)[b.second]);
                });
    }
    for (; i < j; ++i) {
      sorted.push_back(std::move((*itemsets)[keys[i].second]));
    }
  }
  *itemsets = std::move(sorted);
}

void ItemsetSink::Finish() { SortItemsets(&out); }

struct EclatMetrics {
  obs::Counter* calls;
  obs::Counter* itemsets;
  obs::Counter* txns;
  obs::Counter* dense;
  obs::Counter* sparse;
  obs::Counter* mixed;
  obs::Counter* aborts;
  obs::Counter* arena_bytes;
  obs::Histogram* wall_ms;

  static const EclatMetrics& Get() {
    static const EclatMetrics m = {
        obs::MetricsRegistry::Get().counter("mine.eclat.calls"),
        obs::MetricsRegistry::Get().counter("mine.eclat.itemsets"),
        obs::MetricsRegistry::Get().counter("mine.eclat.transactions"),
        obs::MetricsRegistry::Get().counter(
            "mine.eclat.dense_intersections"),
        obs::MetricsRegistry::Get().counter(
            "mine.eclat.sparse_intersections"),
        obs::MetricsRegistry::Get().counter(
            "mine.eclat.mixed_intersections"),
        obs::MetricsRegistry::Get().counter("mine.eclat.early_aborts"),
        obs::MetricsRegistry::Get().counter("mine.eclat.arena_bytes"),
        obs::MetricsRegistry::Get().histogram("mine.eclat.ms"),
    };
    return m;
  }
};

struct IdentityItem {
  size_t operator()(size_t entry) const { return entry; }
};

struct LookupItem {
  const Item* table;
  size_t operator()(uint32_t entry) const { return table[entry]; }
};

/// A row source as the root build reads it: row `tid` holds the items
/// item_of(entries[e]) for e in [offsets[tid], offsets[tid + 1]). A
/// TransactionSet is the identity-mapped case; a RowSource either that or
/// a table lookup. Only a lookup can map two entries of a row to one item
/// (kMayRepeat), which the root build then counts once per row.
template <typename Entry, typename ItemOf>
struct Rows {
  static constexpr bool kMayRepeat = std::is_same_v<ItemOf, LookupItem>;

  const uint32_t* offsets;
  const Entry* entries;
  size_t num_rows;
  size_t universe;
  ItemOf item_of;
};

/// Frequent singletons -> root tid lists (the vertical representation),
/// unsorted. `rows.num_rows` must be > 0.
template <typename RowsT>
void BuildRoots(const RowsT& rows, const MineShape& shape,
                TidArena* root_arena, std::vector<Node>* roots) {
  const size_t n = rows.num_rows;
  const size_t num_words = shape.num_words;
  const size_t universe = rows.universe;
  const auto for_each_item = [&rows](size_t tid, auto&& fn) {
    for (uint32_t e = rows.offsets[tid]; e < rows.offsets[tid + 1]; ++e) {
      const size_t item = rows.item_of(rows.entries[e]);
      CULEVO_DCHECK(item < rows.universe);
      fn(item);
    }
  };
  const size_t grid_words = universe * num_words;
  if (grid_words > 0 && grid_words <= kDirectGridMaxWords) {
    // Direct transposition: scatter every occurrence into a dense
    // universe x num_words bit grid in one pass, then read supports off
    // per-row popcounts. Skips the counting pass and the per-item
    // frequent/representation branching in the scatter loop. Setting a
    // bit twice is harmless, so repeated items need no special case.
    uint64_t* grid = root_arena->AllocWords(grid_words);
    std::memset(grid, 0, grid_words * sizeof(uint64_t));
    for (size_t tid = 0; tid < n; ++tid) {
      const size_t word = tid >> 6;
      const uint64_t bit = uint64_t{1} << (tid & 63);
      for_each_item(tid, [&](size_t item) {
        grid[item * num_words + word] |= bit;
      });
    }
    for (size_t item = 0; item < universe; ++item) {
      const uint64_t* row = grid + item * num_words;
      const size_t support = mining::PopcountWords(row, num_words);
      if (support < shape.min_support) continue;
      TidList tids;
      tids.support = static_cast<uint32_t>(support);
      if (support >= shape.dense_min_support) {
        tids.words = row;
      } else {
        uint32_t* out = root_arena->AllocTids(support);
        mining::DenseToSparse(row, num_words, out);
        tids.tids = out;
      }
      roots->push_back(Node{static_cast<Item>(item), tids});
    }
    return;
  }

  // Count-then-fill. A mapped row can repeat an item; the last row that
  // counted each item is stamped so the repeat is skipped, in the counting
  // pass and again in the fill pass (where it would append a sparse tid
  // twice).
  constexpr bool kMayRepeat = RowsT::kMayRepeat;
  std::vector<uint32_t> stamp(kMayRepeat ? universe : 0);
  const auto first_in_row = [&stamp](size_t item, size_t tid) {
    if (!kMayRepeat) return true;
    if (stamp[item] == tid) return false;
    stamp[item] = static_cast<uint32_t>(tid);
    return true;
  };
  std::fill(stamp.begin(), stamp.end(), UINT32_MAX);
  std::vector<uint32_t> counts(universe, 0);
  for (size_t tid = 0; tid < n; ++tid) {
    for_each_item(tid, [&](size_t item) {
      if (first_in_row(item, tid)) ++counts[item];
    });
  }
  // Flat per-item destination tables keep the fill loop to one load and
  // one branch per occurrence of a frequent item.
  std::vector<uint64_t*> words_of_item(universe, nullptr);
  std::vector<uint32_t*> cursor_of_item(universe, nullptr);
  for (size_t item = 0; item < universe; ++item) {
    if (counts[item] < shape.min_support) continue;
    TidList tids;
    tids.support = counts[item];
    if (counts[item] >= shape.dense_min_support) {
      uint64_t* words = root_arena->AllocWords(num_words);
      std::memset(words, 0, num_words * sizeof(uint64_t));
      tids.words = words;
      words_of_item[item] = words;
    } else {
      uint32_t* out = root_arena->AllocTids(counts[item]);
      tids.tids = out;
      cursor_of_item[item] = out;
    }
    roots->push_back(Node{static_cast<Item>(item), tids});
  }
  std::fill(stamp.begin(), stamp.end(), UINT32_MAX);
  for (size_t tid = 0; tid < n; ++tid) {
    const size_t word = tid >> 6;
    const uint64_t bit = uint64_t{1} << (tid & 63);
    for_each_item(tid, [&](size_t item) {
      if (!first_in_row(item, tid)) return;
      if (uint64_t* words = words_of_item[item]) {
        words[word] |= bit;
      } else if (uint32_t*& cursor = cursor_of_item[item]) {
        *cursor++ = static_cast<uint32_t>(tid);
      }
    });
  }
}

/// One mining call: metrics, root build, class mining, canonical sort.
template <typename Sink, typename RowsT>
Sink Mine(const RowsT& rows, size_t min_support_count,
          const EclatOptions& options) {
  const EclatMetrics& metrics = EclatMetrics::Get();
  obs::ScopedTimer timer(metrics.wall_ms);
  metrics.calls->Increment();

  Sink sink;
  const size_t n = rows.num_rows;
  metrics.txns->Increment(static_cast<int64_t>(n));
  if (n == 0) return sink;
  CULEVO_DCHECK(n <= UINT32_MAX);
  MineShape shape;
  shape.num_words = (n + 63) / 64;
  shape.min_support = min_support_count == 0 ? 1 : min_support_count;
  const double threshold = options.density_threshold;
  shape.dense_min_support =
      threshold <= 0.0
          ? 0
          : static_cast<size_t>(
                std::ceil(threshold * static_cast<double>(n)));

  TidArena root_arena;
  std::vector<Node> roots;
  BuildRoots(rows, shape, &root_arena, &roots);
  std::sort(roots.begin(), roots.end(), NodeSupportLess);

  ClassMiner<Sink> miner(&root_arena, shape, options.cancel, &sink);
  miner.MineRoots(roots);
  sink.Finish();
  const KernelStats& stats = miner.stats();
  metrics.itemsets->Increment(static_cast<int64_t>(sink.out.size()));
  metrics.dense->Increment(stats.dense_intersections);
  metrics.sparse->Increment(stats.sparse_intersections);
  metrics.mixed->Increment(stats.mixed_intersections);
  metrics.aborts->Increment(stats.early_aborts);
  metrics.arena_bytes->Increment(
      static_cast<int64_t>(root_arena.allocated_bytes()));
  return sink;
}

Rows<Item, IdentityItem> RowsOf(const TransactionSet& transactions) {
  return {transactions.offsets().data(), transactions.items().data(),
          transactions.size(), transactions.item_universe(), {}};
}

}  // namespace

std::vector<Itemset> MineEclat(const TransactionSet& transactions,
                               size_t min_support_count,
                               const EclatOptions& options) {
  return Mine<ItemsetSink>(RowsOf(transactions), min_support_count, options)
      .out;
}

std::vector<Itemset> MineEclat(const TransactionSet& transactions,
                               size_t min_support_count) {
  return MineEclat(transactions, min_support_count, EclatOptions{});
}

std::vector<size_t> MineEclatSupports(const TransactionSet& transactions,
                                      size_t min_support_count,
                                      const EclatOptions& options) {
  return Mine<SupportSink>(RowsOf(transactions), min_support_count, options)
      .out;
}

std::vector<size_t> MineEclatSupports(const RowSource& rows,
                                      size_t min_support_count,
                                      const EclatOptions& options) {
  CULEVO_CHECK(rows.universe <= size_t{1} << (8 * sizeof(Item)));
  if (rows.item_of.empty()) {
    return Mine<SupportSink>(
               Rows<uint32_t, IdentityItem>{
                   rows.offsets.data(), rows.entries.data(), rows.num_rows(),
                   rows.universe, {}},
               min_support_count, options)
        .out;
  }
  return Mine<SupportSink>(
             Rows<uint32_t, LookupItem>{
                 rows.offsets.data(), rows.entries.data(), rows.num_rows(),
                 rows.universe, {rows.item_of.data()}},
             min_support_count, options)
      .out;
}

}  // namespace culevo

#ifndef CULEVO_CORPUS_INGESTION_H_
#define CULEVO_CORPUS_INGESTION_H_

#include <array>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "corpus/corpus_snapshot.h"
#include "corpus/corpus_stats.h"
#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"
#include "util/status.h"

namespace culevo {

/// The data-compilation stage of Section II: turning raw scraped recipes
/// (free-text ingredient lines) into standardized (recipe × ingredient-id
/// × cuisine) tuples via the parsing + aliasing protocol.

/// One raw recipe as a scraper would deliver it.
struct RawRecipe {
  std::string cuisine_code;             ///< e.g. "ITA".
  std::vector<std::string> ingredient_lines;  ///< Free-text lines.
};

/// Ingestion accounting, mirroring the curation statistics a data paper
/// reports.
struct IngestionReport {
  size_t recipes_in = 0;        ///< Raw recipes seen.
  size_t recipes_ingested = 0;  ///< Recipes that produced >= 1 entity.
  size_t recipes_dropped = 0;   ///< Empty after resolution / bad cuisine.
  size_t lines_in = 0;          ///< Ingredient lines seen.
  size_t lines_resolved = 0;    ///< Lines yielding >= 1 entity.
  /// Distinct unresolved mentions with occurrence counts, most frequent
  /// first (the manual-curation worklist).
  std::vector<std::pair<std::string, size_t>> unresolved_mentions;

  double line_resolution_rate() const {
    return lines_in == 0 ? 0.0
                         : static_cast<double>(lines_resolved) /
                               static_cast<double>(lines_in);
  }
};

/// Ingests raw recipes: each line goes through ParseIngredientLine (to
/// strip quantities, units and preparations) and the resulting mention
/// through Lexicon::ResolveMention. Recipes whose cuisine code is unknown
/// or that resolve to zero entities are dropped (counted in the report).
/// Never fails on content; returns InvalidArgument only if `report` or
/// the output pointer is needed but null.
Result<RecipeCorpus> IngestRawRecipes(const std::vector<RawRecipe>& raw,
                                      const Lexicon& lexicon,
                                      IngestionReport* report = nullptr);

/// Parses the on-disk raw format: blocks separated by blank lines, first
/// line of a block = cuisine code, following lines = ingredient lines.
/// '#' lines are comments.
std::vector<RawRecipe> ParseRawRecipeText(std::string_view text);

/// Append-friendly corpus for continuous million-recipe ingestion.
///
/// RecipeCorpus is immutable after Build(): absorbing one new batch means
/// re-running the builder, the shard construction, the unique-ingredient
/// scan, and ComputeCuisineStats over the whole store. IncrementalCorpus
/// instead maintains every derived structure under appends:
///
///   - the CSR columns (flat / offsets / cuisines) only ever grow,
///   - each cuisine's recipe-index shard and sorted unique-ingredient list
///     are updated in place per recipe,
///   - CuisineStats (count, mean, min/max, size histogram, unique count)
///     are maintained incrementally and stay bit-identical to what
///     ComputeCuisineStats would return on the materialized corpus,
///   - newly ingested recipes queue per cuisine as mining-transaction
///     deltas (DrainNewTransactions), so a miner's TransactionSet is
///     extended instead of rebuilt,
///   - snapshots go through a persistent SnapshotWriter with per-cuisine
///     dirty tracking: clean sections reuse their cached serialization and
///     checksum, append-only columns resume their checksum state.
///
/// Metrics: `corpus.ingest.recipes` (appended recipes),
/// `corpus.ingest.delta_rebuilds` (dirty-cuisine section groups
/// re-serialized across WriteSnapshot calls).
///
/// Not thread-safe; one writer at a time.
class IncrementalCorpus {
 public:
  IncrementalCorpus();

  /// Seeds from a finalized corpus (copies the columns and indexes).
  /// `stats` must be ComputeCuisineStats output for `corpus` when
  /// provided; when empty it is computed here.
  static IncrementalCorpus FromCorpus(const RecipeCorpus& corpus,
                                      std::span<const CuisineStats> stats = {});

  /// Appends one recipe; semantics match RecipeCorpus::Builder::Add
  /// (ingredients are copied, deduplicated and sorted; empty recipes and
  /// out-of-range cuisines are rejected).
  Status Add(CuisineId cuisine, std::span<const IngredientId> ingredients);

  size_t num_recipes() const { return cuisines_.size(); }
  size_t num_mentions() const { return flat_.size(); }

  /// Indices of all recipes in `cuisine`, ascending.
  std::span<const uint32_t> recipes_of(CuisineId cuisine) const {
    return shards_[cuisine];
  }
  /// Sorted distinct ingredient ids of `cuisine` / of the whole corpus.
  std::span<const IngredientId> UniqueIngredients(CuisineId cuisine) const {
    return unique_[cuisine];
  }
  std::span<const IngredientId> UniqueIngredients() const {
    return unique_[kNumCuisines];
  }

  /// Per-cuisine statistics, maintained incrementally. Bit-identical to
  /// ComputeCuisineStats(Materialize()).
  const std::vector<CuisineStats>& stats() const { return stats_; }
  const CuisineStats& stats_of(CuisineId cuisine) const {
    return stats_[cuisine];
  }

  /// Moves out the (sorted, unique) ingredient sets of every recipe
  /// appended to `cuisine` since the last drain — the delta to feed a
  /// standing TransactionSet (analysis/transactions.h has the wiring).
  std::vector<std::vector<IngredientId>> DrainNewTransactions(
      CuisineId cuisine);

  /// Builds an owned, finalized RecipeCorpus from the current contents.
  /// The maintained columns, shards and unique lists are handed over as
  /// they are (every recipe was validated by Add), not re-added through
  /// RecipeCorpus::Builder. The const overload copies them, O(corpus);
  /// the rvalue overload moves the columns and leaves this object empty.
  /// Snapshots and stats do not need this.
  Result<RecipeCorpus> Materialize() const&;
  Result<RecipeCorpus> Materialize() &&;

  /// Writes a `CULEVO-CORPUS 1` snapshot of the current contents.
  /// Sections untouched since this object's previous WriteSnapshot reuse
  /// their cached serialization (see SnapshotWriter); a first write — or a
  /// writer invalidation — serializes everything.
  Status WriteSnapshot(const std::string& path,
                       const SnapshotWriteOptions& options = {});

 private:
  void SeedSizeSums();
  /// A RecipeCorpus owning these columns plus flattened copies of
  /// shards_ and unique_.
  RecipeCorpus Adopt(std::vector<IngredientId> flat,
                     std::vector<uint32_t> offsets,
                     std::vector<CuisineId> cuisines) const;

  // CSR columns (append-only).
  std::vector<IngredientId> flat_;
  std::vector<uint32_t> offsets_ = {0};
  std::vector<CuisineId> cuisines_;
  // Derived per-cuisine indexes, updated per Add.
  std::array<std::vector<uint32_t>, kNumCuisines> shards_;
  std::array<std::vector<IngredientId>, kNumCuisines + 1> unique_;
  /// seen_[c][id] == id already in unique_[c] (membership bitmap so the
  /// sorted insert runs only on first sight of an id).
  std::array<std::vector<bool>, kNumCuisines + 1> seen_;
  std::vector<CuisineStats> stats_;
  /// Exact per-cuisine mention totals (mean_recipe_size = sum / count,
  /// the same division ComputeCuisineStats performs).
  std::array<uint64_t, kNumCuisines> size_sums_{};
  /// Undrained mining-transaction deltas per cuisine.
  std::array<std::vector<std::vector<IngredientId>>, kNumCuisines>
      pending_transactions_;
  std::vector<IngredientId> scratch_;

  SnapshotWriter writer_;
  /// Cuisines touched since the last successful WriteSnapshot. Columns
  /// only ever append here, so columns_appended_only stays true.
  SnapshotWriter::Dirty delta_;
};

/// `CULEVO-DELTA 1` — the incremental-reload delta container.
///
/// A delta file is a batch of appended recipes pinned to the exact corpus
/// generation it extends: `base_recipes` and `base_fingerprint` must match
/// the serving corpus or the consumer refuses the file. Applying a delta
/// is IncrementalCorpus::FromCorpus(base) + Add() per record, so the
/// result is bit-identical to re-ingesting the combined corpus from
/// scratch — a service can swap in the next generation without re-reading
/// its full snapshot (see ServiceCore::ReloadDelta).
///
/// Refusal contract (mirrors the snapshot container's):
///   - missing file                                -> NotFound
///   - not a delta (bad magic)                     -> InvalidArgument
///   - newer format version / wrong endianness     -> FailedPrecondition
///   - truncated file or payload checksum mismatch -> DataLoss
///   - base mismatch is the *caller's* refusal (the file itself is fine):
///     ServiceCore::ReloadDelta maps it to FailedPrecondition.

/// Delta format version this build reads and writes.
inline constexpr uint32_t kCorpusDeltaVersion = 1;

/// One appended recipe.
struct CorpusDeltaRecord {
  CuisineId cuisine = 0;
  std::vector<IngredientId> ingredients;
};

/// A batch of appends against one specific base corpus generation.
struct CorpusDelta {
  uint64_t base_recipes = 0;      ///< num_recipes() of the base corpus.
  uint64_t base_fingerprint = 0;  ///< CorpusContentFingerprint of the base.
  std::vector<CorpusDeltaRecord> records;
};

/// Content identity of a corpus: FNV-1a-64 over the CSR columns
/// (flat, offsets, cuisines). Two corpora with equal fingerprints hold
/// byte-identical recipe data regardless of how they were built (snapshot
/// load, synthesis, incremental materialization). This is what a delta's
/// `base_fingerprint` pins.
uint64_t CorpusContentFingerprint(const RecipeCorpus& corpus);

/// Serializes and atomically writes `delta` (WriteFileAtomic underneath,
/// like the snapshot writer).
Status WriteCorpusDelta(const std::string& path, const CorpusDelta& delta,
                        const SnapshotWriteOptions& options = {});

/// Reads and verifies a delta file. See the refusal contract above.
Result<CorpusDelta> LoadCorpusDelta(const std::string& path);

}  // namespace culevo

#endif  // CULEVO_CORPUS_INGESTION_H_

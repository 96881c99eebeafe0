#ifndef CULEVO_CORPUS_CORPUS_SNAPSHOT_H_
#define CULEVO_CORPUS_CORPUS_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "corpus/corpus_stats.h"
#include "corpus/recipe_corpus.h"
#include "util/status.h"

namespace culevo {

/// `CULEVO-CORPUS 1` — the binary corpus snapshot container.
///
/// A snapshot freezes a RecipeCorpus *and* its derived read indexes (the
/// per-cuisine recipe-index shards, the cached unique-ingredient lists,
/// and the precomputed CuisineStats) into one file of little-endian,
/// fixed-width, 8-byte-aligned sections, each guarded by an FNV-1a-64
/// checksum. Loading memory-maps the file and wires a RecipeCorpus
/// directly onto the mapped columns (near-zero-copy: only the stats
/// section and validation walk the data), with a buffered aligned read as
/// the fallback when mmap is unavailable. Writes go through
/// WriteFileAtomic, so a crash leaves the previous complete snapshot or
/// the new complete one, never a torn hybrid.
///
/// The full byte layout, checksum rules, and compatibility policy are
/// documented in docs/DATA_FORMATS.md.
///
/// Refusal contract:
///   - not a snapshot (bad magic)                  -> InvalidArgument
///   - newer format version / wrong endianness /
///     wrong compiled-in cuisine count             -> FailedPrecondition
///   - truncated file, checksum mismatch, section
///     table inconsistent with the header          -> DataLoss
///
/// Metrics: `corpus.snapshot.writes`, `corpus.snapshot.bytes_written`,
/// `corpus.snapshot.mmap_loads`, `corpus.snapshot.fallback_loads`,
/// `corpus.snapshot.load_ms`, `corpus.snapshot.sections_rewritten`,
/// `corpus.snapshot.sections_reused`.
/// Failpoints: `corpus.snapshot.read` (before the file is opened),
/// `corpus.snapshot.read.corrupt` (forces a section-checksum mismatch),
/// `corpus.snapshot.write` (before the atomic write).

/// Snapshot format version this build reads and writes.
inline constexpr uint32_t kCorpusSnapshotVersion = 1;

struct SnapshotWriteOptions {
  /// fsync through WriteFileAtomic (tests disable to keep tmpfs churn
  /// down).
  bool sync = true;
};

struct SnapshotLoadOptions {
  /// Memory-map the file (read-only) and borrow the columns in place.
  /// When false — or when mmap fails — the file is read into an owned
  /// 8-byte-aligned buffer instead; the loaded corpus behaves identically
  /// either way.
  bool allow_mmap = true;
};

/// Content identity of a corpus, one FNV-1a-64 state per CSR column
/// (`flat`, `offsets`, `cuisines`; raw little-endian bytes). Every column
/// is append-only under ingestion, so a state extends over appended
/// recipes without rehashing the prefix: Extend() after appending is
/// equal to Of() on the grown corpus. Each state is also byte-for-byte the
/// checksum of that column's CULEVO-CORPUS section, which is how a
/// snapshot load obtains it without hashing the columns a second time.
struct CorpusContentState {
  uint64_t flat = 0;
  uint64_t offsets = 0;
  uint64_t cuisines = 0;

  /// Hashes every column of `corpus`. O(corpus).
  static CorpusContentState Of(const RecipeCorpus& corpus);

  /// Resumes the states over the recipes `corpus` holds past its first
  /// `base_recipes`: `flat[offsets[base_recipes]..]`,
  /// `offsets[base_recipes + 1..]` and `cuisines[base_recipes..]`. `*this`
  /// must be the state of that `base_recipes`-recipe prefix. O(appended).
  void Extend(const RecipeCorpus& corpus, size_t base_recipes) {
    Extend(corpus.RunFrom(static_cast<uint32_t>(base_recipes)));
  }

  /// Resumes the states over `run`, the recipes appended to the corpus
  /// `*this` describes (its `offsets[0]` is already hashed). O(run).
  void Extend(RecipeRun run);

  /// The 64-bit content fingerprint: FNV-1a-64 over the three states
  /// (flat, offsets, cuisines; 8 little-endian bytes each).
  uint64_t Fingerprint() const;

  bool operator==(const CorpusContentState&) const = default;
};

/// CorpusContentState::Of(corpus).Fingerprint(). Two corpora with equal
/// fingerprints hold byte-identical recipe data regardless of how they
/// were built (snapshot load, synthesis, incremental materialization).
/// This is what a CULEVO-DELTA's `base_fingerprint` pins.
uint64_t CorpusContentFingerprint(const RecipeCorpus& corpus);

/// A corpus loaded from a snapshot, plus the precomputed per-cuisine
/// statistics stored alongside it.
struct LoadedCorpusSnapshot {
  RecipeCorpus corpus;
  std::vector<CuisineStats> stats;  ///< One entry per cuisine id.
  /// The corpus's content state, taken from the verified flat / offsets /
  /// cuisines section checksums (equal to CorpusContentState::Of(corpus)).
  CorpusContentState content;
  bool memory_mapped = false;       ///< mmap path vs buffered fallback.
  size_t file_bytes = 0;
};

/// Serializes `corpus` (computing its CuisineStats) and writes the
/// snapshot atomically. Convenience wrapper over SnapshotWriter.
Status WriteCorpusSnapshot(const std::string& path,
                           const RecipeCorpus& corpus,
                           const SnapshotWriteOptions& options = {});

/// As above with caller-precomputed stats (must be one entry per cuisine,
/// ordered by cuisine id — what ComputeCuisineStats returns).
Status WriteCorpusSnapshot(const std::string& path,
                           const RecipeCorpus& corpus,
                           std::span<const CuisineStats> stats,
                           const SnapshotWriteOptions& options = {});

/// Reads, verifies, and adopts a snapshot. See the refusal contract above;
/// NotFound when the file does not exist.
Result<LoadedCorpusSnapshot> LoadCorpusSnapshot(
    const std::string& path, const SnapshotLoadOptions& options = {});

/// Incremental snapshot writer: serializes the container while reusing the
/// cached bytes and checksums of every section that did not change since
/// this writer's previous Write — the append-only columns are extended in
/// place (their FNV-1a state is resumed rather than recomputed) and only
/// the shard/unique sections of dirty cuisines plus the stats section are
/// rebuilt. The file itself is still always written in full through
/// WriteFileAtomic; "dirty-section rewrite" is about the serialization
/// and checksum work, which is what dominates at corpus scale.
///
/// corpus/ingestion.h's IncrementalCorpus drives this with its delta
/// tracking; WriteCorpusSnapshot uses it single-shot with everything
/// dirty.
class SnapshotWriter {
 public:
  /// The columns of one snapshot. Spans must stay valid for the duration
  /// of Write().
  struct Input {
    std::span<const IngredientId> flat;
    std::span<const uint32_t> offsets;    ///< num_recipes + 1.
    std::span<const CuisineId> cuisines;  ///< num_recipes.
    std::array<std::span<const uint32_t>, kNumCuisines> shards;
    std::array<std::span<const IngredientId>, kNumCuisines + 1> unique;
    std::span<const CuisineStats> stats;  ///< kNumCuisines entries.

    /// Convenience: the columns of a finalized corpus.
    static Input FromCorpus(const RecipeCorpus& corpus,
                            std::span<const CuisineStats> stats);
  };

  /// Delta description for cache reuse. `Everything()` (the default) is
  /// always correct; precise deltas are an optimization.
  struct Dirty {
    /// Columns only grew at the tail since the previous Write (no
    /// rewrites of existing entries). Lets flat/offsets/cuisines reuse
    /// their serialized prefix and resume their checksum state.
    bool columns_appended_only = false;
    /// Per-cuisine shard/unique/stats dirtiness.
    std::array<bool, kNumCuisines> cuisine{};

    static Dirty Everything() {
      Dirty d;
      d.cuisine.fill(true);
      return d;
    }
    bool AnyCuisine() const {
      for (bool b : cuisine) {
        if (b) return true;
      }
      return false;
    }
  };

  /// Serializes and atomically writes the snapshot. The first Write on a
  /// writer serializes everything regardless of `dirty`.
  Status Write(const std::string& path, const Input& input,
               const Dirty& dirty, const SnapshotWriteOptions& options = {});

  /// Drops all cached section state (next Write serializes everything).
  void Invalidate() { sections_.clear(); }

 private:
  /// Cached serialized payload of one section.
  struct CachedSection {
    uint32_t id = 0;
    std::string bytes;
    uint64_t checksum = 0;
    /// Resumable FNV-1a state == checksum (FNV is a running hash), kept
    /// separate for clarity when extending append-only sections.
    size_t source_elems = 0;  ///< Element count bytes were built from.
  };

  CachedSection* Find(uint32_t id);

  std::vector<CachedSection> sections_;
  bool has_written_ = false;
};

}  // namespace culevo

#endif  // CULEVO_CORPUS_CORPUS_SNAPSHOT_H_

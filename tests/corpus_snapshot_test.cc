#include "corpus/corpus_snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "analysis/eclat.h"
#include "analysis/transactions.h"
#include "corpus/corpus_io.h"
#include "corpus/corpus_stats.h"
#include "lexicon/world_lexicon.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace culevo {
namespace {

std::string TempPath(const char* tag) {
  return testing::TempDir() + "culevo_snapshot_" + tag + ".bin";
}

/// A corpus with several cuisines, duplicate-heavy recipes, and an empty
/// cuisine, so every section kind is exercised.
RecipeCorpus TestCorpus(size_t num_recipes = 200) {
  Rng rng(7);
  RecipeCorpus::Builder builder;
  for (size_t i = 0; i < num_recipes; ++i) {
    const CuisineId cuisine = static_cast<CuisineId>(rng.NextBounded(6));
    std::vector<IngredientId> ids;
    const size_t size = 2 + rng.NextBounded(9);
    for (size_t k = 0; k < size; ++k) {
      ids.push_back(static_cast<IngredientId>(rng.NextBounded(300)));
    }
    EXPECT_TRUE(builder.Add(cuisine, std::move(ids)).ok());
  }
  return builder.Build();
}

bool SameStats(const std::vector<CuisineStats>& a,
               const std::vector<CuisineStats>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].cuisine != b[i].cuisine ||
        a[i].num_recipes != b[i].num_recipes ||
        a[i].num_unique_ingredients != b[i].num_unique_ingredients ||
        a[i].mean_recipe_size != b[i].mean_recipe_size ||
        a[i].min_recipe_size != b[i].min_recipe_size ||
        a[i].max_recipe_size != b[i].max_recipe_size ||
        a[i].size_histogram != b[i].size_histogram) {
      return false;
    }
  }
  return true;
}

void ExpectBitIdentical(const RecipeCorpus& expected,
                        const RecipeCorpus& actual) {
  ASSERT_EQ(expected.num_recipes(), actual.num_recipes());
  EXPECT_TRUE(SameStats(ComputeCuisineStats(expected),
                        ComputeCuisineStats(actual)));
  for (int c = 0; c < 6; ++c) {
    const TransactionSet lhs =
        IngredientTransactions(expected, static_cast<CuisineId>(c));
    const TransactionSet rhs =
        IngredientTransactions(actual, static_cast<CuisineId>(c));
    ASSERT_EQ(lhs.size(), rhs.size());
    if (lhs.size() == 0) continue;
    const std::vector<Itemset> lhs_sets = MineEclat(lhs, 2);
    const std::vector<Itemset> rhs_sets = MineEclat(rhs, 2);
    ASSERT_EQ(lhs_sets.size(), rhs_sets.size());
    for (size_t i = 0; i < lhs_sets.size(); ++i) {
      EXPECT_EQ(lhs_sets[i].items, rhs_sets[i].items);
      EXPECT_EQ(lhs_sets[i].support, rhs_sets[i].support);
    }
  }
}

class CorpusSnapshotTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Failpoints::Get().DisarmAll();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  std::string path_;
};

TEST_F(CorpusSnapshotTest, RoundTripMmap) {
  path_ = TempPath("roundtrip");
  const RecipeCorpus corpus = TestCorpus();
  SnapshotWriteOptions options;
  options.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, corpus, options).ok());

  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->memory_mapped);
  EXPECT_TRUE(loaded->corpus.borrowed());
  EXPECT_GT(loaded->file_bytes, 0u);
  EXPECT_TRUE(SameStats(loaded->stats, ComputeCuisineStats(corpus)));
  ExpectBitIdentical(corpus, loaded->corpus);
}

TEST_F(CorpusSnapshotTest, RoundTripBufferedFallback) {
  path_ = TempPath("fallback");
  const RecipeCorpus corpus = TestCorpus();
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, corpus, write).ok());

  SnapshotLoadOptions load;
  load.allow_mmap = false;
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_, load);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->memory_mapped);
  EXPECT_TRUE(loaded->corpus.borrowed());  // Views into the owned buffer.
  ExpectBitIdentical(corpus, loaded->corpus);
}

TEST_F(CorpusSnapshotTest, TsvAndSnapshotAgree) {
  path_ = TempPath("tsv_agree");
  const Lexicon& lexicon = WorldLexicon();
  Rng rng(11);
  RecipeCorpus::Builder builder;
  for (int i = 0; i < 150; ++i) {
    std::vector<IngredientId> ids;
    for (int k = 0; k < 5; ++k) {
      ids.push_back(static_cast<IngredientId>(rng.NextBounded(
          lexicon.size())));
    }
    ASSERT_TRUE(
        builder.Add(static_cast<CuisineId>(rng.NextBounded(kNumCuisines)),
                    std::move(ids))
            .ok());
  }
  const RecipeCorpus corpus = builder.Build();

  // TSV round trip (names resolve back to the same ids)...
  Result<RecipeCorpus> parsed =
      ParseCorpusTsv(FormatCorpusTsv(corpus, lexicon), lexicon);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectBitIdentical(corpus, parsed.value());

  // ...and snapshot round trip, against the same reference.
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, corpus, write).ok());
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectBitIdentical(corpus, loaded->corpus);
}

TEST_F(CorpusSnapshotTest, LoadedCorpusSurvivesCopies) {
  path_ = TempPath("copies");
  const RecipeCorpus corpus = TestCorpus(50);
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, corpus, write).ok());
  RecipeCorpus copy;
  {
    Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
    ASSERT_TRUE(loaded.ok());
    RecipeCorpus inner = loaded->corpus;  // Copy shares the mapping.
    copy = inner;
  }  // Original loaded snapshot destroyed; backing must stay alive.
  ExpectBitIdentical(corpus, copy);
}

TEST_F(CorpusSnapshotTest, MissingFileIsNotFound) {
  Result<LoadedCorpusSnapshot> loaded =
      LoadCorpusSnapshot(TempPath("never_written"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(CorpusSnapshotTest, RefusesForeignFile) {
  path_ = TempPath("foreign");
  ASSERT_TRUE(WriteStringToFile(
                  path_, std::string(4096, 'x'))
                  .ok());
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CorpusSnapshotTest, RefusesWrongVersion) {
  path_ = TempPath("version");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(20), write).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  std::string content = std::move(bytes).value();
  content[16] = 99;  // Version field (u32 little-endian at offset 16).
  ASSERT_TRUE(WriteStringToFile(path_, content).ok());
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CorpusSnapshotTest, RefusesForeignEndianness) {
  path_ = TempPath("endian");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(20), write).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  std::string content = std::move(bytes).value();
  std::swap(content[20], content[23]);  // Byte-swap the endian marker.
  std::swap(content[21], content[22]);
  ASSERT_TRUE(WriteStringToFile(path_, content).ok());
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CorpusSnapshotTest, RefusesTruncation) {
  path_ = TempPath("truncated");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(), write).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  const std::string content = std::move(bytes).value();
  // Cut at several depths: inside the header, inside the section table,
  // inside a payload.
  for (const size_t keep :
       {size_t{10}, size_t{100}, content.size() / 2, content.size() - 1}) {
    ASSERT_TRUE(WriteStringToFile(path_, content.substr(0, keep)).ok());
    Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
    EXPECT_FALSE(loaded.ok()) << "survived truncation to " << keep;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "truncation to " << keep << ": " << loaded.status();
  }
}

TEST_F(CorpusSnapshotTest, RefusesBitFlips) {
  path_ = TempPath("bitflip");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(), write).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  const std::string content = std::move(bytes).value();
  // Flip one bit at several positions beyond the magic: header fields,
  // section table, section payloads.
  for (const size_t at : {size_t{25}, size_t{70}, content.size() / 2,
                          content.size() - 3}) {
    std::string corrupted = content;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x10);
    ASSERT_TRUE(WriteStringToFile(path_, corrupted).ok());
    Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
    EXPECT_FALSE(loaded.ok()) << "survived a bit flip at byte " << at;
  }
}

TEST_F(CorpusSnapshotTest, ReadFailpointInjects) {
  path_ = TempPath("failpoint");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(20), write).ok());
  Failpoints::Get().Arm("corpus.snapshot.read");
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  Failpoints::Get().DisarmAll();
  EXPECT_TRUE(LoadCorpusSnapshot(path_).ok());
}

TEST_F(CorpusSnapshotTest, CorruptFailpointForcesChecksumPath) {
  path_ = TempPath("corrupt_fp");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(20), write).ok());
  Failpoints::Get().Arm("corpus.snapshot.read.corrupt");
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(CorpusSnapshotTest, WriteFailpointInjects) {
  path_ = TempPath("write_fp");
  Failpoints::Get().Arm("corpus.snapshot.write");
  EXPECT_FALSE(WriteCorpusSnapshot(path_, TestCorpus(20)).ok());
  Failpoints::Get().DisarmAll();
}

TEST_F(CorpusSnapshotTest, EmptyCorpusRoundTrips) {
  path_ = TempPath("empty");
  RecipeCorpus::Builder builder;
  const RecipeCorpus corpus = builder.Build();
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, corpus, write).ok());
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->corpus.num_recipes(), 0u);
}

TEST_F(CorpusSnapshotTest, LoadDerivesContentStateFromSectionChecksums) {
  // The loader takes the corpus's content state from the flat / offsets /
  // cuisines section checksums instead of hashing the columns again; it
  // must equal a full recompute on both load paths.
  path_ = TempPath("content_state");
  const RecipeCorpus corpus = TestCorpus();
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, corpus, write).ok());
  for (const bool allow_mmap : {true, false}) {
    SCOPED_TRACE(allow_mmap ? "mmap" : "buffered");
    SnapshotLoadOptions load;
    load.allow_mmap = allow_mmap;
    Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_, load);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->memory_mapped, allow_mmap);
    EXPECT_EQ(loaded->content, CorpusContentState::Of(loaded->corpus));
    EXPECT_EQ(loaded->content, CorpusContentState::Of(corpus));
    EXPECT_EQ(loaded->content.Fingerprint(),
              CorpusContentFingerprint(loaded->corpus));
  }
}

TEST(CorpusContentStateTest, ExtendEqualsRecomputeAtEveryPrefix) {
  // Resuming the per-column states from any prefix over the rest of the
  // corpus equals hashing the whole corpus; every column contributes.
  const RecipeCorpus corpus = TestCorpus(60);
  const CorpusContentState full = CorpusContentState::Of(corpus);
  for (size_t base = 0; base <= corpus.num_recipes(); ++base) {
    RecipeCorpus::Builder prefix;
    for (size_t i = 0; i < base; ++i) {
      const std::span<const IngredientId> ids =
          corpus.ingredients_of(static_cast<uint32_t>(i));
      ASSERT_TRUE(prefix
                      .Add(corpus.cuisines()[i],
                           std::vector<IngredientId>(ids.begin(), ids.end()))
                      .ok());
    }
    CorpusContentState state = CorpusContentState::Of(prefix.Build());
    state.Extend(corpus, base);
    ASSERT_EQ(state, full) << "base " << base;
  }
  EXPECT_EQ(full.Fingerprint(), CorpusContentFingerprint(corpus));
  for (uint64_t CorpusContentState::*column :
       {&CorpusContentState::flat, &CorpusContentState::offsets,
        &CorpusContentState::cuisines}) {
    CorpusContentState changed = full;
    changed.*column ^= 1;
    EXPECT_NE(changed.Fingerprint(), full.Fingerprint());
  }
}

}  // namespace
}  // namespace culevo

#include "service/service_core.h"

#include <atomic>
#include <bit>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/overrepresentation.h"
#include "analysis/similarity.h"
#include "core/null_model.h"
#include "core/simulation.h"
#include "corpus/corpus_snapshot.h"
#include "corpus/ingestion.h"
#include "lexicon/world_lexicon.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/strings.h"

namespace culevo {
namespace {

// Cuisine ids used throughout; codes resolved from the static table so
// the tests do not hard-code the cuisine order.
constexpr CuisineId kA = 0;
constexpr CuisineId kB = 1;

std::string Code(CuisineId c) { return std::string(CuisineAt(c).code); }

/// Two populated cuisines with overlap, ties, and a conjunction target.
RecipeCorpus SmallCorpus() {
  RecipeCorpus::Builder builder;
  EXPECT_TRUE(builder.Add(kA, {1, 2, 3}).ok());
  EXPECT_TRUE(builder.Add(kA, {1, 2, 4}).ok());
  EXPECT_TRUE(builder.Add(kA, {2, 5}).ok());
  EXPECT_TRUE(builder.Add(kB, {2, 3, 6}).ok());
  EXPECT_TRUE(builder.Add(kB, {6, 7}).ok());
  return builder.Build();
}

/// A second, distinguishable corpus for swap tests.
RecipeCorpus OtherCorpus() {
  RecipeCorpus::Builder builder;
  EXPECT_TRUE(builder.Add(kA, {10, 11}).ok());
  EXPECT_TRUE(builder.Add(kB, {11, 12}).ok());
  EXPECT_TRUE(builder.Add(kB, {12, 13}).ok());
  return builder.Build();
}

ServiceCore MakeCore(ServiceOptions options = {}) {
  return ServiceCore(&WorldLexicon(), options);
}

std::vector<std::string> Rows(const std::string& response) {
  std::vector<std::string> lines = Split(response, '\n');
  // Trailing '\n' produces one empty tail field; drop it plus the header.
  EXPECT_FALSE(lines.empty());
  lines.pop_back();
  EXPECT_FALSE(lines.empty());
  lines.erase(lines.begin());
  return lines;
}

TEST(ServiceCoreTest, PingAndErrors) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());
  EXPECT_EQ(core.Handle("ping"), "ok 1\npong\n");
  EXPECT_TRUE(StartsWith(core.Handle("bogus"), "error InvalidArgument"));
  EXPECT_TRUE(StartsWith(core.Handle(""), "error InvalidArgument"));
  EXPECT_TRUE(
      StartsWith(core.Handle("ping frobnicate=1"), "error InvalidArgument"));
  EXPECT_TRUE(StartsWith(core.Handle("overrep NOPE"), "error NotFound"));
  EXPECT_TRUE(StartsWith(core.Handle("recipe 999"), "error NotFound"));
}

TEST(ServiceCoreTest, NoSnapshotIsFailedPrecondition) {
  ServiceCore core = MakeCore();
  EXPECT_TRUE(StartsWith(core.Handle("ping"), "error FailedPrecondition"));
}

// The served answer must be bit-identical to the batch entry point: the
// rows are rendered with %.17g, so string equality is double equality.
TEST(ServiceCoreTest, OverrepMatchesBatchBitExactly) {
  const RecipeCorpus corpus = SmallCorpus();
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(corpus, "<test>").ok());

  const auto batch = TopOverrepresented(corpus, kA, 3);
  const std::vector<std::string> rows =
      Rows(core.Handle("overrep " + Code(kA) + " 3"));
  ASSERT_EQ(rows.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(rows[i],
              StrFormat("%s\t%.17g\t%.17g\t%.17g",
                        WorldLexicon().name(batch[i].ingredient).c_str(),
                        batch[i].score, batch[i].cuisine_fraction,
                        batch[i].world_fraction));
  }
}

TEST(ServiceCoreTest, NearestMatchesBatchBitExactly) {
  const RecipeCorpus corpus = SmallCorpus();
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(corpus, "<test>").ok());

  const std::vector<CuisineNeighbor> batch = NearestCuisines(corpus, kA, 5);
  const std::vector<std::string> rows =
      Rows(core.Handle("nearest " + Code(kA) + " 5"));
  ASSERT_EQ(rows.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(rows[i], StrFormat("%s\t%.17g", Code(batch[i].cuisine).c_str(),
                                 batch[i].distance));
  }
}

TEST(ServiceCoreTest, FreqReportsCountFractionRank) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());
  // Ingredient 2 is in all 3 recipes of cuisine A: count 3, fraction 1,
  // rank 1 (highest usage).
  EXPECT_EQ(core.Handle("freq " + Code(kA) + " #2"), "ok 1\n3\t1\t1\n");
  EXPECT_TRUE(StartsWith(core.Handle("freq " + Code(kA) + " #13"),
                         "error NotFound"));
}

TEST(ServiceCoreTest, SearchIntersectsAndFilters) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());
  // Recipes containing both #2 and #3: recipe 0 (cuisine A) and 3 (B).
  std::vector<std::string> rows = Rows(core.Handle("search #2,#3"));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(StartsWith(rows[0], "0\t" + Code(kA)));
  EXPECT_TRUE(StartsWith(rows[1], "3\t" + Code(kB)));

  rows = Rows(core.Handle("search #2,#3 cuisine=" + Code(kB)));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(StartsWith(rows[0], "3\t"));

  rows = Rows(core.Handle("search #2,#3 limit=1"));
  EXPECT_EQ(rows.size(), 1u);
}

TEST(ServiceCoreTest, SimulateMatchesDirectRunBitExactly) {
  const RecipeCorpus corpus = SmallCorpus();
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(corpus, "<test>").ok());

  Result<CuisineContext> context = ContextFromCorpus(corpus, kA);
  ASSERT_TRUE(context.ok()) << context.status();
  const NullModel nm;
  SimulationConfig config;
  config.replicas = 1;
  config.seed = 7;
  Result<SimulationResult> direct =
      RunSimulation(nm, *context, WorldLexicon(), config);
  ASSERT_TRUE(direct.ok()) << direct.status();

  const std::vector<std::string> rows = Rows(core.Handle(
      "simulate " + Code(kA) + " NM replicas=1 seed=7 deadline_ms=60000"));
  ASSERT_EQ(rows.size(), 1 + std::min<size_t>(
                                 direct->ingredient_curve.values().size(),
                                 core.options().max_results));
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i],
              StrFormat("%zu\t%.17g", i,
                        direct->ingredient_curve.values()[i - 1]));
  }
}

TEST(ServiceCoreTest, SimulateClampsReplicas) {
  ServiceOptions options;
  options.max_simulate_replicas = 2;
  ServiceCore core = MakeCore(options);
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());
  EXPECT_TRUE(StartsWith(core.Handle("simulate " + Code(kA) + " NM "
                                     "replicas=3"),
                         "error InvalidArgument"));
}

TEST(ServiceCoreTest, DeadlineRejection) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());
  // An explicitly non-positive deadline is already expired: the request
  // must be rejected at admission, before any query work runs.
  EXPECT_TRUE(
      StartsWith(core.Handle("ping deadline_ms=0"), "error DeadlineExceeded"));
  EXPECT_TRUE(StartsWith(core.Handle("overrep " + Code(kA) + " deadline_ms=-5"),
                         "error DeadlineExceeded"));
  // A generous deadline passes.
  EXPECT_EQ(core.Handle("ping deadline_ms=60000"), "ok 1\npong\n");
}

TEST(ServiceCoreTest, AdmissionControlRejectsOverCapacity) {
  ServiceOptions options;
  options.max_inflight = 0;  // Every request is over capacity.
  ServiceCore core = MakeCore(options);
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());
  EXPECT_TRUE(StartsWith(core.Handle("ping"), "error Unavailable"));
}

TEST(ServiceCoreTest, EpochAdvancesPerInstall) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "a").ok());
  EXPECT_EQ(core.Acquire()->epoch, 1u);
  ASSERT_TRUE(core.InstallCorpus(OtherCorpus(), "b").ok());
  EXPECT_EQ(core.Acquire()->epoch, 2u);
  EXPECT_EQ(core.Acquire()->source, "b");
}

TEST(ServiceCoreTest, SnapshotFileAnswersMatchInMemory) {
  const std::string path =
      testing::TempDir() + "culevo_service_snapshot.bin";
  const RecipeCorpus corpus = SmallCorpus();
  ASSERT_TRUE(WriteCorpusSnapshot(path, corpus, {.sync = false}).ok());

  ServiceCore from_memory = MakeCore();
  ASSERT_TRUE(from_memory.InstallCorpus(corpus, "<test>").ok());
  ServiceCore from_file = MakeCore();
  ASSERT_TRUE(from_file.LoadFromFile(path).ok());

  const std::vector<std::string> requests = {
      "overrep " + Code(kA) + " 5", "nearest " + Code(kB),
      "stats " + Code(kA), "freq " + Code(kA) + " #1",
      std::string("search #2,#3")};
  for (const std::string& request : requests) {
    EXPECT_EQ(from_file.Handle(request), from_memory.Handle(request))
        << request;
  }
  std::remove(path.c_str());
}

TEST(ServiceCoreTest, FailedReloadKeepsPreviousGenerationServing) {
  const std::string path =
      testing::TempDir() + "culevo_service_reload.bin";
  ASSERT_TRUE(
      WriteCorpusSnapshot(path, SmallCorpus(), {.sync = false}).ok());

  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.LoadFromFile(path).ok());
  const std::string before = core.Handle("overrep " + Code(kA) + " 3");
  const uint64_t epoch = core.Acquire()->epoch;

  Failpoints::Get().Arm("serve.reload",
                        {.status = Status::IOError("injected reload fault")});
  const Status reload = core.LoadFromFile(path);
  Failpoints::Get().DisarmAll();
  EXPECT_EQ(reload.code(), StatusCode::kIOError);

  // The failed reload must leave the previous generation installed and
  // still answering identically.
  EXPECT_EQ(core.Acquire()->epoch, epoch);
  EXPECT_EQ(core.Handle("overrep " + Code(kA) + " 3"), before);
  std::remove(path.c_str());
}

// RCU swap under concurrency: readers hammer point queries while a writer
// repeatedly installs new generations. Every response must succeed — an
// in-flight request keeps its acquired generation alive, so a swap can
// never fail or tear it. Run under TSan via the tsan preset.
TEST(ServiceCoreTest, ConcurrentReadersAcrossSnapshotSwaps) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "gen0").ok());

  constexpr int kReaders = 4;
  constexpr int kSwaps = 25;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&core, &done, &failures, t] {
      const std::string request = (t % 2 == 0)
                                      ? "overrep " + Code(kA) + " 3"
                                      : "info";
      while (!done.load(std::memory_order_relaxed)) {
        if (!StartsWith(core.Handle(request), "ok ")) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < kSwaps; ++i) {
    const Status installed =
        (i % 2 == 0) ? core.InstallCorpus(OtherCorpus(), "odd")
                     : core.InstallCorpus(SmallCorpus(), "even");
    ASSERT_TRUE(installed.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(core.Acquire()->epoch, static_cast<uint64_t>(kSwaps + 1));
}

// ---------------------------------------------------------------------------
// Brownout (graceful degradation under overload).

TEST(ServiceCoreTest, ShouldShedExpensivePredicate) {
  ServiceOptions options;
  options.max_inflight = 100;
  options.brownout_inflight_fraction = 0.75;
  options.brownout_latency_ms = 0;  // latency trigger off

  // The inflight trigger fires strictly above fraction * max_inflight.
  EXPECT_FALSE(ShouldShedExpensive(options, 75, 0.0));
  EXPECT_TRUE(ShouldShedExpensive(options, 76, 0.0));

  // Latency trigger: only above the threshold, and only when enabled.
  options.brownout_inflight_fraction = 0;  // inflight trigger off
  options.brownout_latency_ms = 10;
  EXPECT_FALSE(ShouldShedExpensive(options, 1000, 9.0));
  EXPECT_TRUE(ShouldShedExpensive(options, 0, 10.5));
  options.brownout_latency_ms = 0;
  EXPECT_FALSE(ShouldShedExpensive(options, 1000, 1e9));

  // Either trigger alone is sufficient.
  options.brownout_inflight_fraction = 0.5;
  options.brownout_latency_ms = 10;
  EXPECT_TRUE(ShouldShedExpensive(options, 51, 0.0));
  EXPECT_TRUE(ShouldShedExpensive(options, 0, 11.0));
  EXPECT_FALSE(ShouldShedExpensive(options, 50, 10.0));
}

TEST(ServiceCoreTest, BrownoutShedsExpensiveKeepsCheapAndAdmin) {
  ServiceOptions options;
  // A latency SLO so tiny that the very first completed request trips the
  // overload detector — a deterministic brownout without real load.
  options.brownout_latency_ms = 1e-9;
  ServiceCore core = MakeCore(options);
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());

  // Seed the latency EMA with one cheap request.
  EXPECT_EQ(core.Handle("ping"), "ok 1\npong\n");
  ASSERT_GT(core.latency_ema_ms(), 0.0);

  // Expensive classes are shed with a machine-readable retry hint...
  const std::string shed = core.Handle("simulate " + Code(kA) + " NM");
  EXPECT_TRUE(StartsWith(shed, "error Unavailable")) << shed;
  EXPECT_NE(shed.find("\nretry-after-ms\t50\n"), std::string::npos) << shed;
  EXPECT_TRUE(StartsWith(core.Handle("search #2,#3"), "error Unavailable"));

  // ...while cheap point lookups and admin requests keep being served.
  EXPECT_TRUE(StartsWith(core.Handle("overrep " + Code(kA) + " 3"), "ok "));
  EXPECT_TRUE(StartsWith(core.Handle("stats " + Code(kA)), "ok "));
  EXPECT_TRUE(StartsWith(core.Handle("metrics"), "ok "));
}

TEST(ServiceCoreTest, BrownoutDisabledByDefaultLatencyTrigger) {
  ServiceCore core = MakeCore();  // brownout_latency_ms defaults to 0
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());
  EXPECT_EQ(core.Handle("ping"), "ok 1\npong\n");
  EXPECT_TRUE(StartsWith(
      core.Handle("simulate " + Code(kA) + " NM replicas=1 seed=7"
                  " deadline_ms=60000"),
      "ok "));
}

TEST(ServiceCoreTest, MetricsWorksWithoutSnapshot) {
  ServiceCore core = MakeCore();
  const std::string response = core.Handle("metrics");
  EXPECT_TRUE(StartsWith(response, "ok ")) << response;
  EXPECT_NE(response.find("counter\tserve.requests\t"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CULEVO-DELTA files and the hot incremental reload.

/// The delta applied on top of SmallCorpus() throughout: two new recipes.
std::vector<CorpusDeltaRecord> DeltaRecords() {
  return {{kA, {7, 8}}, {kB, {1, 5}}};
}

/// SmallCorpus() + DeltaRecords(), built monolithically — the ground
/// truth a delta reload must match bit-for-bit.
RecipeCorpus CombinedCorpus() {
  RecipeCorpus::Builder builder;
  EXPECT_TRUE(builder.Add(kA, {1, 2, 3}).ok());
  EXPECT_TRUE(builder.Add(kA, {1, 2, 4}).ok());
  EXPECT_TRUE(builder.Add(kA, {2, 5}).ok());
  EXPECT_TRUE(builder.Add(kB, {2, 3, 6}).ok());
  EXPECT_TRUE(builder.Add(kB, {6, 7}).ok());
  EXPECT_TRUE(builder.Add(kA, {7, 8}).ok());
  EXPECT_TRUE(builder.Add(kB, {1, 5}).ok());
  return builder.Build();
}

std::string WriteDeltaFor(const RecipeCorpus& base, const std::string& tag) {
  const std::string path =
      testing::TempDir() + "culevo_delta_" + tag + ".bin";
  CorpusDelta delta;
  delta.base_recipes = base.num_recipes();
  delta.base_fingerprint = CorpusContentFingerprint(base);
  delta.records = DeltaRecords();
  EXPECT_TRUE(WriteCorpusDelta(path, delta, {.sync = false}).ok());
  return path;
}

TEST(CorpusDeltaTest, FingerprintTracksContentNotConstruction) {
  // Identical content through different construction paths fingerprints
  // identically; any content change perturbs it.
  EXPECT_EQ(CorpusContentFingerprint(SmallCorpus()),
            CorpusContentFingerprint(SmallCorpus()));
  EXPECT_NE(CorpusContentFingerprint(SmallCorpus()),
            CorpusContentFingerprint(OtherCorpus()));
  EXPECT_NE(CorpusContentFingerprint(SmallCorpus()),
            CorpusContentFingerprint(CombinedCorpus()));
}

TEST(CorpusDeltaTest, WriteLoadRoundTrip) {
  const RecipeCorpus base = SmallCorpus();
  const std::string path = WriteDeltaFor(base, "roundtrip");

  Result<CorpusDelta> loaded = LoadCorpusDelta(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->base_recipes, base.num_recipes());
  EXPECT_EQ(loaded->base_fingerprint, CorpusContentFingerprint(base));
  const std::vector<CorpusDeltaRecord> expected = DeltaRecords();
  ASSERT_EQ(loaded->records.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(loaded->records[i].cuisine, expected[i].cuisine);
    EXPECT_EQ(loaded->records[i].ingredients, expected[i].ingredients);
  }
  std::remove(path.c_str());
}

TEST(CorpusDeltaTest, WriteRefusesInvalidRecords) {
  CorpusDelta delta;
  delta.records.push_back({kA, {}});  // empty recipe
  EXPECT_EQ(WriteCorpusDelta(testing::TempDir() + "culevo_delta_bad.bin",
                             delta, {.sync = false})
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CorpusDeltaTest, LoadRefusalMatrix) {
  const std::string path = WriteDeltaFor(SmallCorpus(), "refusal");
  Result<std::string> pristine = ReadFileToString(path);
  ASSERT_TRUE(pristine.ok()) << pristine.status();
  const std::string bytes = *pristine;

  const auto write_bytes = [&](const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };

  // Missing file: NotFound (distinct from a present-but-corrupt file).
  EXPECT_EQ(LoadCorpusDelta(path + ".absent").status().code(),
            StatusCode::kNotFound);

  // Corrupt magic: not a delta file at all.
  std::string corrupt = bytes;
  corrupt[0] = 'X';
  write_bytes(corrupt);
  EXPECT_EQ(LoadCorpusDelta(path).status().code(),
            StatusCode::kInvalidArgument);

  // Unsupported version: a delta file, but not one we can apply.
  corrupt = bytes;
  corrupt[8] = 99;  // u32 version at offset 8
  write_bytes(corrupt);
  EXPECT_EQ(LoadCorpusDelta(path).status().code(),
            StatusCode::kFailedPrecondition);

  // Truncation: torn write.
  write_bytes(bytes.substr(0, bytes.size() - 1));
  EXPECT_EQ(LoadCorpusDelta(path).status().code(), StatusCode::kDataLoss);

  // Payload corruption caught by the checksum.
  corrupt = bytes;
  corrupt[bytes.size() - 1] ^= 0x5A;
  write_bytes(corrupt);
  EXPECT_EQ(LoadCorpusDelta(path).status().code(), StatusCode::kDataLoss);

  // The pristine bytes still load after all that.
  write_bytes(bytes);
  EXPECT_TRUE(LoadCorpusDelta(path).ok());
  std::remove(path.c_str());
}

TEST(ServiceCoreTest, ReloadDeltaMatchesMonolithicBuildBitExactly) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "base").ok());
  const std::string path = WriteDeltaFor(SmallCorpus(), "reload");

  ASSERT_TRUE(core.ReloadDelta(path).ok());
  const std::shared_ptr<const ServiceSnapshot> swapped = core.Acquire();
  EXPECT_EQ(swapped->epoch, 2u);
  EXPECT_EQ(swapped->source, "base+" + path);
  EXPECT_EQ(swapped->corpus.num_recipes(), 7u);
  EXPECT_EQ(swapped->content_fingerprint,
            CorpusContentFingerprint(CombinedCorpus()));

  // Every query class must answer bit-identically to a core built on the
  // monolithic combined corpus.
  ServiceCore reference = MakeCore();
  ASSERT_TRUE(reference.InstallCorpus(CombinedCorpus(), "base").ok());
  const std::vector<std::string> requests = {
      "overrep " + Code(kA) + " 5", "overrep " + Code(kB) + " 5",
      "nearest " + Code(kA),        "stats " + Code(kA),
      "stats " + Code(kB),          "freq " + Code(kA) + " #7",
      "search #1,#5",               "recipe 5",
      "recipe 6"};
  for (const std::string& request : requests) {
    EXPECT_EQ(core.Handle(request), reference.Handle(request)) << request;
  }
  std::remove(path.c_str());
}

TEST(ServiceCoreTest, ReloadDeltaRefusesMismatchedBase) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "base").ok());
  // A delta built against a *different* base corpus: both the recipe
  // count and the fingerprint disagree with the serving generation.
  const std::string path = WriteDeltaFor(OtherCorpus(), "mismatch");
  const std::string before = core.Handle("overrep " + Code(kA) + " 3");

  const Status refused = core.ReloadDelta(path);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;

  // Refusal is non-destructive: same epoch, same answers.
  EXPECT_EQ(core.Acquire()->epoch, 1u);
  EXPECT_EQ(core.Handle("overrep " + Code(kA) + " 3"), before);
  std::remove(path.c_str());
}

TEST(ServiceCoreTest, ReloadDeltaWithoutGenerationIsFailedPrecondition) {
  ServiceCore core = MakeCore();
  const std::string path = WriteDeltaFor(SmallCorpus(), "nogen");
  EXPECT_EQ(core.ReloadDelta(path).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// Crash-safety of the swap itself: a fault injected at *every* stage of
// the delta reload must leave the old generation serving unchanged, and
// the swap must still succeed once the fault clears.
TEST(ServiceCoreTest, ReloadDeltaFailpointAtEveryStageKeepsOldGeneration) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "base").ok());
  const std::string path = WriteDeltaFor(SmallCorpus(), "stages");
  const std::string before = core.Handle("overrep " + Code(kA) + " 3");

  const std::vector<std::string> stages = {
      "serve.reload",       "serve.reload.delta.read",
      "corpus.delta.read",  "serve.reload.delta.apply",
      "serve.reload.index", "serve.reload.install"};
  for (const std::string& stage : stages) {
    Failpoints::Get().Arm(
        stage, {.status = Status::IOError("injected at " + stage)});
    const Status failed = core.ReloadDelta(path);
    Failpoints::Get().DisarmAll();
    EXPECT_EQ(failed.code(), StatusCode::kIOError) << stage;
    EXPECT_EQ(core.Acquire()->epoch, 1u) << stage;
    EXPECT_EQ(core.Handle("overrep " + Code(kA) + " 3"), before) << stage;
  }

  // Fault cleared: the identical request now swaps cleanly.
  ASSERT_TRUE(core.ReloadDelta(path).ok());
  EXPECT_EQ(core.Acquire()->epoch, 2u);
  std::remove(path.c_str());
}

TEST(ServiceCoreTest, ReloadDeltaThroughRequestGrammar) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "base").ok());
  const std::string path = WriteDeltaFor(SmallCorpus(), "grammar");

  EXPECT_TRUE(StartsWith(core.Handle("reload-delta"),
                         "error InvalidArgument"));
  const std::string response = core.Handle("reload-delta " + path);
  EXPECT_EQ(response, "ok 2\nepoch\t2\nrecipes\t7\n") << response;

  // A second apply of the same delta is now a base mismatch (the serving
  // generation moved past it) — refused, still epoch 2.
  EXPECT_TRUE(StartsWith(core.Handle("reload-delta " + path),
                         "error FailedPrecondition"));
  EXPECT_EQ(core.Acquire()->epoch, 2u);
  std::remove(path.c_str());
}


// A hot reload extends the serving index instead of rebuilding it. Over a
// chain of deltas — one growing the ingredient universe, one populating a
// cuisine the base left empty — every table of the extended index must
// equal a fresh build over the materialized corpus, bit for bit, and every
// request class must answer identically.

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void ExpectSameIndex(const QueryIndex& got, const QueryIndex& want) {
  ASSERT_EQ(got.num_recipes(), want.num_recipes());
  const IngredientCounts& got_counts = got.counts();
  const IngredientCounts& want_counts = want.counts();
  ASSERT_EQ(got_counts.universe(), want_counts.universe());
  EXPECT_EQ(got_counts.num_recipes(), want_counts.num_recipes());
  EXPECT_TRUE(std::ranges::equal(got_counts.world_row(),
                                 want_counts.world_row()));
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    EXPECT_EQ(got_counts.recipes(cuisine), want_counts.recipes(cuisine));
    EXPECT_TRUE(std::ranges::equal(got_counts.row(cuisine),
                                   want_counts.row(cuisine)))
        << c;

    const auto got_overrep = got.Overrepresentation(cuisine);
    const auto want_overrep = want.Overrepresentation(cuisine);
    ASSERT_EQ(got_overrep.size(), want_overrep.size()) << c;
    for (size_t i = 0; i < want_overrep.size(); ++i) {
      EXPECT_EQ(got_overrep[i].ingredient, want_overrep[i].ingredient);
      EXPECT_EQ(Bits(got_overrep[i].score), Bits(want_overrep[i].score));
      EXPECT_EQ(Bits(got_overrep[i].cuisine_fraction),
                Bits(want_overrep[i].cuisine_fraction));
      EXPECT_EQ(Bits(got_overrep[i].world_fraction),
                Bits(want_overrep[i].world_fraction));
    }

    const CuisineUsageProfile& got_profile = got.profiles().profile(cuisine);
    const CuisineUsageProfile& want_profile =
        want.profiles().profile(cuisine);
    EXPECT_EQ(got_profile.ingredients, want_profile.ingredients) << c;
    ASSERT_EQ(got_profile.fractions.size(), want_profile.fractions.size());
    for (size_t i = 0; i < want_profile.fractions.size(); ++i) {
      EXPECT_EQ(Bits(got_profile.fractions[i]),
                Bits(want_profile.fractions[i]));
    }
    EXPECT_EQ(Bits(got_profile.norm), Bits(want_profile.norm)) << c;

    const auto got_nearest = got.Nearest(cuisine, kNumCuisines);
    const auto want_nearest = want.Nearest(cuisine, kNumCuisines);
    ASSERT_EQ(got_nearest.size(), want_nearest.size()) << c;
    for (size_t i = 0; i < want_nearest.size(); ++i) {
      EXPECT_EQ(got_nearest[i].cuisine, want_nearest[i].cuisine);
      EXPECT_EQ(Bits(got_nearest[i].distance),
                Bits(want_nearest[i].distance));
    }

    EXPECT_TRUE(std::ranges::equal(got.RankedIngredients(cuisine),
                                   want.RankedIngredients(cuisine)))
        << c;
    for (size_t id = 0; id <= want_counts.universe(); ++id) {
      const auto got_usage = got.Usage(cuisine, static_cast<IngredientId>(id));
      const auto want_usage =
          want.Usage(cuisine, static_cast<IngredientId>(id));
      ASSERT_EQ(got_usage.has_value(), want_usage.has_value()) << c << "/" << id;
      if (!want_usage.has_value()) continue;
      EXPECT_EQ(got_usage->count, want_usage->count);
      EXPECT_EQ(Bits(got_usage->fraction), Bits(want_usage->fraction));
      EXPECT_EQ(got_usage->rank, want_usage->rank);
    }
  }
  for (size_t id = 0; id <= want_counts.universe(); ++id) {
    EXPECT_TRUE(std::ranges::equal(got.Postings(static_cast<IngredientId>(id)),
                                   want.Postings(static_cast<IngredientId>(id))))
        << id;
  }
}

TEST(ServiceCoreTest, ReloadDeltaChainExtendsIndexBitExactly) {
  // Ids [0, base_universe) in the base; the second delta adds the ids
  // above it. The last cuisine stays empty until the third delta.
  const size_t lexicon_size = WorldLexicon().size();
  ASSERT_GT(lexicon_size, 64u);
  const IngredientId base_universe =
      static_cast<IngredientId>(std::min<size_t>(lexicon_size - 16, 400));
  const CuisineId late = kNumCuisines - 1;
  Rng rng(20190408);
  const auto recipe = [&rng](IngredientId lo, IngredientId hi) {
    std::vector<IngredientId> ids(2 + rng.NextBounded(10));
    for (IngredientId& id : ids) {
      id = static_cast<IngredientId>(lo + rng.NextBounded(hi - lo));
    }
    return ids;
  };

  IncrementalCorpus chain;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(chain
                    .Add(static_cast<CuisineId>(rng.NextBounded(late)),
                         recipe(0, base_universe))
                    .ok());
  }
  Result<RecipeCorpus> base = chain.Materialize();
  ASSERT_TRUE(base.ok()) << base.status();
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(*base, "base").ok());
  ASSERT_EQ(core.Acquire()->index.counts().universe(), base_universe);
  ASSERT_EQ(core.Acquire()->index.counts().recipes(late), 0u);

  const IngredientId top = static_cast<IngredientId>(lexicon_size);
  const std::vector<std::vector<CorpusDeltaRecord>> deltas = [&] {
    std::vector<std::vector<CorpusDeltaRecord>> out(3);
    for (int i = 0; i < 200; ++i) {
      out[0].push_back({static_cast<CuisineId>(rng.NextBounded(late)),
                        recipe(0, base_universe)});
    }
    for (int i = 0; i < 200; ++i) {
      out[1].push_back({static_cast<CuisineId>(rng.NextBounded(late)),
                        i % 4 == 0 ? recipe(base_universe, top)
                                   : recipe(0, top)});
    }
    for (int i = 0; i < 200; ++i) {
      out[2].push_back({i % 2 == 0 ? late
                                   : static_cast<CuisineId>(
                                         rng.NextBounded(kNumCuisines)),
                        recipe(0, top)});
    }
    return out;
  }();

  for (size_t d = 0; d < deltas.size(); ++d) {
    SCOPED_TRACE("delta " + std::to_string(d));
    Result<RecipeCorpus> before = chain.Materialize();
    ASSERT_TRUE(before.ok());
    CorpusDelta delta;
    delta.base_recipes = before->num_recipes();
    delta.base_fingerprint = CorpusContentFingerprint(*before);
    delta.records = deltas[d];
    for (const CorpusDeltaRecord& r : delta.records) {
      ASSERT_TRUE(chain.Add(r.cuisine, r.ingredients).ok());
    }
    const std::string path = testing::TempDir() + "culevo_delta_chain_" +
                             std::to_string(d) + ".bin";
    ASSERT_TRUE(WriteCorpusDelta(path, delta, {.sync = false}).ok());
    ASSERT_TRUE(core.ReloadDelta(path).ok());
    std::remove(path.c_str());

    Result<RecipeCorpus> after = chain.Materialize();
    ASSERT_TRUE(after.ok());
    const std::shared_ptr<const ServiceSnapshot> served = core.Acquire();
    EXPECT_EQ(served->content_fingerprint, CorpusContentFingerprint(*after));
    ExpectSameIndex(served->index, QueryIndex::Build(*after));

    ServiceCore reference = MakeCore();
    ASSERT_TRUE(reference.InstallCorpus(*after, "base").ok());
    std::vector<std::string> requests = {
        "recipe 0", StrFormat("recipe %zu", after->num_recipes() - 1),
        StrFormat("search #%u,#%u", top - 1, top - 2),
        StrFormat("search #3 cuisine=%s limit=50", Code(late).c_str())};
    for (int c = 0; c < kNumCuisines; ++c) {
      const std::string code = Code(static_cast<CuisineId>(c));
      requests.push_back("overrep " + code + " 20");
      requests.push_back("nearest " + code + " 30");
      requests.push_back("nearest " + code + " 3");
      requests.push_back("stats " + code);
      for (const IngredientId id : {IngredientId{0}, IngredientId{7},
                                    IngredientId(base_universe - 1),
                                    base_universe,
                                    IngredientId(top - 1)}) {
        requests.push_back(StrFormat("freq %s #%u", code.c_str(), id));
      }
    }
    for (const std::string& request : requests) {
      EXPECT_EQ(core.Handle(request), reference.Handle(request)) << request;
    }
  }
  // The chain really grew the universe and filled the empty cuisine.
  EXPECT_EQ(core.Acquire()->index.counts().universe(), lexicon_size);
  EXPECT_GT(core.Acquire()->index.counts().recipes(late), 0u);
}

}  // namespace
}  // namespace culevo

#include "fig4_stage.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/combinations.h"
#include "analysis/distance.h"
#include "analysis/rank_frequency.h"
#include "client.h"
#include "core/copy_mutate.h"
#include "core/evaluator.h"
#include "core/null_model.h"
#include "core/recipe_store.h"
#include "core/simulation.h"
#include "host.h"
#include "lexicon/world_lexicon.h"
#include "obs/metrics.h"
#include "stats.h"
#include "synth/generator.h"
#include "trace.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace culevo;

namespace {

struct Models {
  std::unique_ptr<CopyMutateModel> cm_r = MakeCmR(&WorldLexicon());
  std::unique_ptr<CopyMutateModel> cm_c = MakeCmC(&WorldLexicon());
  std::unique_ptr<CopyMutateModel> cm_m = MakeCmM(&WorldLexicon());
  NullModel nm;

  std::vector<const EvolutionModel*> all() const {
    return {cm_r.get(), cm_c.get(), cm_m.get(), &nm};
  }
};

uint64_t HashCurve(const RankFrequency& curve, uint64_t hash) {
  const std::vector<double>& values = curve.values();
  const uint64_t n = values.size();
  hash = Fnv64(&n, sizeof(n), hash);
  return Fnv64(values.data(), values.size() * sizeof(double), hash);
}

uint64_t HashDouble(double value, uint64_t hash) {
  return Fnv64(&value, sizeof(value), hash);
}

/// One model's aggregated outcome on one cuisine, in the fields both the
/// library path and the replay produce.
uint64_t HashScore(const RankFrequency& ingredient, const RankFrequency& category,
                   double mae_ingredient, double mae_category, double eq2,
                   uint64_t hash) {
  hash = HashCurve(ingredient, hash);
  hash = HashCurve(category, hash);
  hash = HashDouble(mae_ingredient, hash);
  hash = HashDouble(mae_category, hash);
  return HashDouble(eq2, hash);
}

struct Fig4Run {
  double seconds = 0.0;
  uint64_t digest = 0xcbf29ce484222325ull;
  std::string error;          ///< Non-empty when a call failed.
  std::string nm_not_beaten;  ///< Cuisines where NM matched or beat every CM.
  double sum_best_cm = 0.0;   ///< Best copy-mutate MAE, summed over cuisines.
  double sum_nm = 0.0;        ///< NM MAE, summed over cuisines.

  void Score(CuisineId cuisine, double best_cm, double nm) {
    sum_best_cm += best_cm;
    sum_nm += nm;
    if (!(best_cm < nm)) {
      nm_not_beaten += std::string(CuisineAt(cuisine).code) + " ";
    }
  }
};

/// The shipped path: EvaluateCuisine per cuisine, serial or on `pool`.
Fig4Run RunFig4(const RecipeCorpus& corpus, const Models& models,
                const SimulationConfig& config, ThreadPool* pool) {
  Fig4Run run;
  const std::vector<const EvolutionModel*> all = models.all();
  const int64_t start = NowNs();
  for (int c = 0; c < kNumCuisines; ++c) {
    Result<CuisineEvaluation> ev =
        EvaluateCuisine(corpus, static_cast<CuisineId>(c), WorldLexicon(), all,
                        config, pool);
    if (!ev.ok()) {
      run.error = ev.status().ToString();
      return run;
    }
    run.digest = HashCurve(ev->empirical_ingredient, run.digest);
    run.digest = HashCurve(ev->empirical_category, run.digest);
    double best_cm = ev->scores[0].mae_ingredient;
    for (size_t m = 0; m < ev->scores.size(); ++m) {
      const ModelScore& score = ev->scores[m];
      run.digest = HashScore(score.ingredient_curve, score.category_curve,
                             score.mae_ingredient, score.mae_category,
                             score.paper_eq2_ingredient, run.digest);
      // scores follow Models::all(): three copy-mutate models, then NM.
      if (m + 1 < ev->scores.size()) {
        best_cm = std::min(best_cm, score.mae_ingredient);
      }
    }
    run.Score(static_cast<CuisineId>(c), best_cm, ev->scores.back().mae_ingredient);
  }
  run.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return run;
}

struct MineCounters {
  int64_t itemsets = 0;
  int64_t intersections = 0;

  static MineCounters Read() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
    MineCounters c;
    c.itemsets = registry.counter("mine.eclat.itemsets")->Value();
    c.intersections =
        registry.counter("mine.eclat.dense_intersections")->Value() +
        registry.counter("mine.eclat.sparse_intersections")->Value() +
        registry.counter("mine.eclat.mixed_intersections")->Value();
    return c;
  }
};

struct ReplayCounts {
  int64_t recipes_generated = 0;
  int64_t transactions_built = 0;
  int64_t mine_calls = 0;
};

/// The same replica loop EvaluateCuisine + RunSimulation run, made of the
/// public calls one layer at a time, with a span around each call.
/// Replica k uses DeriveSeed(config.seed, k), so the curves are
/// bit-identical to the library path.
Fig4Run ReplayFig4(const RecipeCorpus& corpus, const Models& models,
                   const SimulationConfig& config, Tracer* tracer,
                   ReplayCounts* counts) {
  Fig4Run run;
  const Lexicon& lexicon = WorldLexicon();
  const CombinationConfig& mining = config.mining;
  const int64_t start = NowNs();
  ScopedSpan root(tracer, "fig4");
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    ScopedSpan cuisine_span(tracer, "cuisine");
    Result<CuisineContext> context = [&] {
      ScopedSpan span(tracer, "core.context");
      return ContextFromCorpus(corpus, cuisine);
    }();
    if (!context.ok()) {
      run.error = context.status().ToString();
      return run;
    }
    RankFrequency empirical_ingredient;
    RankFrequency empirical_category;
    {
      ScopedSpan span(tracer, "analysis.empirical");
      empirical_ingredient =
          IngredientCombinationCurve(corpus, cuisine, mining);
      empirical_category =
          CategoryCombinationCurve(corpus, cuisine, lexicon, mining);
    }
    run.digest = HashCurve(empirical_ingredient, run.digest);
    run.digest = HashCurve(empirical_category, run.digest);
    double best_cm = 0.0;
    double nm_mae = 0.0;
    for (const EvolutionModel* model : models.all()) {
      ScopedSpan model_span(tracer, "model");
      std::vector<RankFrequency> ingredient_curves(
          static_cast<size_t>(config.replicas));
      std::vector<RankFrequency> category_curves(
          static_cast<size_t>(config.replicas));
      for (int k = 0; k < config.replicas; ++k) {
        ScopedSpan replica_span(tracer, "replica");
        RecipeStore store;
        {
          ScopedSpan span(tracer, "core.generate");
          Status s = model->GenerateInto(
              *context, DeriveSeed(config.seed, static_cast<uint64_t>(k)),
              &store);
          if (!s.ok()) {
            run.error = s.ToString();
            return run;
          }
        }
        counts->recipes_generated += static_cast<int64_t>(store.num_recipes());
        for (int pass = 0; pass < 2; ++pass) {
          TransactionSet transactions;
          {
            ScopedSpan span(tracer, "analysis.transactions");
            transactions =
                pass == 0 ? StoreTransactions(store, context->ingredients)
                          : StoreCategoryTransactions(
                                store, context->ingredients, lexicon);
          }
          counts->transactions_built +=
              static_cast<int64_t>(transactions.size());
          RankFrequency curve;
          {
            ScopedSpan span(tracer, "analysis.mine");
            curve = CombinationCurve(transactions, mining);
          }
          ++counts->mine_calls;
          {
            // Freeing the per-transaction vectors is part of what the
            // transaction layout costs.
            ScopedSpan span(tracer, "analysis.transactions");
            transactions = TransactionSet();
          }
          (pass == 0 ? ingredient_curves : category_curves)
              [static_cast<size_t>(k)] = std::move(curve);
        }
      }
      ScopedSpan span(tracer, "analysis.curve");
      const RankFrequency ingredient = AverageRankFrequencies(ingredient_curves);
      const RankFrequency category = AverageRankFrequencies(category_curves);
      const double mae_ingredient =
          MeanAbsoluteError(empirical_ingredient, ingredient);
      const double mae_category =
          MeanAbsoluteError(empirical_category, category);
      const double eq2 = PaperEq2Distance(empirical_ingredient, ingredient);
      run.digest = HashScore(ingredient, category, mae_ingredient,
                             mae_category, eq2, run.digest);
      if (model == &models.nm) {
        nm_mae = mae_ingredient;
      } else if (model == models.cm_r.get() || mae_ingredient < best_cm) {
        best_cm = mae_ingredient;
      }
    }
    run.Score(cuisine, best_cm, nm_mae);
  }
  run.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return run;
}

/// Fails the run on a digest mismatch or when copy-mutate loses to the
/// null model. The paper's claim is per cuisine at full scale; smaller
/// worlds leave the smallest cuisines a few dozen recipes, where a single
/// cuisine can go either way, so they are held to the mean.
void CheckRun(const Fig4Run& run, const char* what, uint64_t expected_digest,
              bool per_cuisine, Report* report) {
  if (!run.error.empty()) {
    report->Mismatch(StrFormat("fig4 %s failed: %s", what, run.error.c_str()));
    return;
  }
  if (run.digest != expected_digest) {
    report->Mismatch(StrFormat("fig4 %s curve digest %016llx != %016llx", what,
                               static_cast<unsigned long long>(run.digest),
                               static_cast<unsigned long long>(expected_digest)));
  }
  if (per_cuisine && !run.nm_not_beaten.empty()) {
    report->Mismatch(StrFormat("fig4 %s: copy-mutate does not beat NM in %s",
                               what, run.nm_not_beaten.c_str()));
  }
  if (!(run.sum_best_cm < run.sum_nm)) {
    report->Mismatch(StrFormat("fig4 %s: mean copy-mutate MAE %g >= NM %g",
                               what, run.sum_best_cm / kNumCuisines,
                               run.sum_nm / kNumCuisines));
  }
}

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

void RunFig4Stage(const Fig4Params& params, uint64_t seed, bool trace,
                  const std::string& trace_path, Report* report) {
  const Lexicon& lexicon = WorldLexicon();
  Tracer tracer(trace);
  SynthConfig synth;
  synth.scale = params.scale;
  synth.seed = seed;

  // Set-up: world synthesis, repeated so setup_s is a median.
  std::vector<Timed> setup_s;
  Result<RecipeCorpus> corpus = Status::Internal("not synthesized");
  const int setup_reps = trace ? 1 : std::max(1, params.setup_reps);
  for (int i = 0; i < setup_reps; ++i) {
    corpus = Status::Internal("not synthesized");  // free the previous world
    const long long steal = ReadStealTicks();
    const int64_t start = NowNs();
    ScopedSpan span(&tracer, "synth.world");
    corpus = SynthesizeWorldCorpus(lexicon, synth);
    setup_s.push_back(Timed{static_cast<double>(NowNs() - start) / 1e9,
                            ReadStealTicks() - steal});
  }
  if (!corpus.ok()) {
    report->Mismatch("world synthesis failed: " + corpus.status().ToString());
    return;
  }
  report->Info("fig4.recipes", std::to_string(corpus->num_recipes()));
  report->Info("fig4.replicas", std::to_string(params.replicas));

  const bool per_cuisine = params.scale >= 1.0;
  const Models models;
  SimulationConfig config;
  config.replicas = params.replicas;
  config.seed = seed;

  if (!trace) {
    const size_t workers = std::max(1u, std::thread::hardware_concurrency());
    ThreadPool pool(workers);
    // The pool run goes first: it warms the allocator and the lexicon's
    // lazy tables, and its digest is the reference for every later run.
    const Fig4Run warm = RunFig4(*corpus, models, config, &pool);
    CheckRun(warm, "pool", warm.digest, per_cuisine, report);
    std::vector<Timed> serial_s;
    std::vector<Timed> pool_s;
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(params.seconds * 1e9);
    while (serial_s.size() < 3 || NowNs() < deadline) {
      long long steal = ReadStealTicks();
      const Fig4Run serial = RunFig4(*corpus, models, config, nullptr);
      CheckRun(serial, "serial", warm.digest, per_cuisine, report);
      serial_s.push_back(Timed{serial.seconds, ReadStealTicks() - steal});
      steal = ReadStealTicks();
      const Fig4Run pooled = RunFig4(*corpus, models, config, &pool);
      CheckRun(pooled, "pool", warm.digest, per_cuisine, report);
      pool_s.push_back(Timed{pooled.seconds, ReadStealTicks() - steal});
      if (!report->mismatches.empty()) break;
    }
    report->attempted += static_cast<int64_t>(serial_s.size() + pool_s.size() + 1) *
                         kNumCuisines;
    report->EndToEnd("fig4_s", QuietMedian(serial_s), "s");
    // Printed, not gated: a parallel run needs every vCPU at once, so on a
    // shared virtual machine it follows the host's steal (ten serve_point
    // runs on a 4-vCPU VM: IQR 64% of the median).
    report->Ungated("fig4_pool_s", QuietMedian(pool_s), "s");
    const auto runs = [](const std::vector<Timed>& samples) {
      std::string out;
      for (const Timed& t : samples) {
        out += StrFormat("%.4f(steal %lld) ", t.value, t.steal);
      }
      return out;
    };
    report->Info("fig4.serial_s", runs(serial_s));
    report->Info("fig4.pool_s", runs(pool_s));
    report->Info("fig4.pool_workers", std::to_string(workers));
    report->Info("fig4.digest", StrFormat("%016llx", static_cast<unsigned long long>(warm.digest)));
    if (params.focus) {
      report->EndToEnd("setup_s", QuietMedian(setup_s), "s");
      report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
    }
    return;
  }

  // Traced: one untraced library run, then the traced replay of it.
  const Fig4Run untraced = RunFig4(*corpus, models, config, nullptr);
  CheckRun(untraced, "untraced", untraced.digest, per_cuisine, report);
  const MineCounters before = MineCounters::Read();
  ReplayCounts counts;
  const Fig4Run traced = ReplayFig4(*corpus, models, config, &tracer, &counts);
  const MineCounters after = MineCounters::Read();
  CheckRun(traced, "traced replay", untraced.digest, per_cuisine, report);
  report->attempted += 2 * kNumCuisines;

  const std::map<std::string, SpanTotals> totals = tracer.Totals();
  const auto self_ms = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_ms;
  };
  static const char* const kLayers[] = {
      "core.context",  "analysis.empirical", "core.generate",
      "analysis.transactions", "analysis.mine", "analysis.curve"};
  double layers_ms = 0.0;
  for (const char* layer : kLayers) layers_ms += self_ms(layer);
  const double traced_ms = traced.seconds * 1e3;
  report->Layer("synth.world_ms", self_ms("synth.world"), "ms");
  report->Layer("core.context_ms", self_ms("core.context"), "ms");
  report->Layer("analysis.empirical_ms", self_ms("analysis.empirical"), "ms");
  report->Layer("core.generate_ms", self_ms("core.generate"), "ms");
  report->Layer("core.recipes_generated",
                static_cast<double>(counts.recipes_generated), "count");
  report->Layer("analysis.transactions_ms", self_ms("analysis.transactions"),
                "ms");
  report->Layer("analysis.transactions_built",
                static_cast<double>(counts.transactions_built), "count");
  report->Layer("analysis.mine_ms", self_ms("analysis.mine"), "ms");
  report->Layer("analysis.mine_calls", static_cast<double>(counts.mine_calls),
                "count");
  const int64_t intersections = after.intersections - before.intersections;
  report->Layer("analysis.itemsets_per_intersection",
                intersections > 0
                    ? static_cast<double>(after.itemsets - before.itemsets) /
                          static_cast<double>(intersections)
                    : 0.0,
                "ratio");
  report->Layer("analysis.curve_ms", self_ms("analysis.curve"), "ms");
  report->Layer("trace.fig4_traced_ms", traced_ms, "ms");
  report->Layer("trace.fig4_untraced_ms", untraced.seconds * 1e3, "ms");
  report->Layer("trace.fig4_overhead_ms", traced_ms - untraced.seconds * 1e3,
                "ms");
  report->Layer("trace.fig4_uncovered_ms", traced_ms - layers_ms, "ms");
  report->Info("fig4.digest", StrFormat("%016llx", static_cast<unsigned long long>(untraced.digest)));
  report->Info("trace.fig4_spans", std::to_string(tracer.spans().size()));
  if (!trace_path.empty() && !tracer.WriteTsv(trace_path)) {
    report->Info("trace.fig4_file", "unwritable: " + trace_path);
  } else {
    report->Info("trace.fig4_file", trace_path);
  }
}

}  // namespace perfbench

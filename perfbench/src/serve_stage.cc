#include "serve_stage.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <thread>

#include "client.h"
#include "corpus/corpus_snapshot.h"
#include "corpus/cuisine.h"
#include "corpus/ingestion.h"
#include "host.h"
#include "lexicon/world_lexicon.h"
#include "service/query_index.h"
#include "service/service_core.h"
#include "stats.h"
#include "trace.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace perfbench {

using namespace culevo;

namespace {

// Request classes. The first six are the point queries.
enum Class { kOverrep, kNearest, kFreq, kRecipe, kStats, kSearch, kSimulate,
             kReload, kInfo, kNumClasses };
constexpr int kNumPointClasses = 6;
const char* const kClassNames[kNumClasses] = {
    "overrep", "nearest", "freq", "recipe", "stats",
    "search",  "simulate", "reload", "info"};
const char* const kHandleSpans[kNumClasses] = {
    "service.handle.overrep", "service.handle.nearest",
    "service.handle.freq",    "service.handle.recipe",
    "service.handle.stats",   "service.handle.search",
    "service.handle.simulate", "service.handle.reload",
    "service.handle.info"};
constexpr int kPointTextsPerClass = 64;
// The capacity ladder's latency limit, on each window's point-query p50.
// Not p99: on a shared virtual machine p99 at any rate, even with the
// least-stolen windows, is set by vCPU wake-ups and preemption (measured
// 0.3 to 7 ms at 4000 qps from run to run), so a p99 limit would gate on
// the host. The median climbs steeply once requests queue at the knee.
constexpr double kPointSloMs = 1.0;
// Gated latency figures are taken per window of due time, over the
// least-stolen half of a phase's windows (see Quietest): on a shared
// virtual machine a window in which the host preempts the daemon or the
// client shows multi-millisecond stalls at any rate.
constexpr double kWindowSeconds = 0.25;
// A failed or refused request misses every latency limit.
constexpr double kMissMs = std::numeric_limits<double>::infinity();

/// The perf_serve population: recipes of 2..12 uniform ingredients, with
/// cuisine min(a, b) of two uniform draws so cuisine sizes are skewed.
void AddPopulation(size_t count, size_t universe, uint64_t seed,
                   std::vector<CorpusDeltaRecord>* out) {
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t a = rng.NextBounded(kNumCuisines);
    const uint64_t b = rng.NextBounded(kNumCuisines);
    CorpusDeltaRecord record;
    record.cuisine = static_cast<CuisineId>(std::min(a, b));
    const size_t size = 2 + rng.NextBounded(11);
    for (size_t k = 0; k < size; ++k) {
      record.ingredients.push_back(
          static_cast<IngredientId>(rng.NextBounded(universe)));
    }
    out->push_back(std::move(record));
  }
}

RecipeCorpus BuildPopulation(size_t count, size_t universe, uint64_t seed) {
  std::vector<CorpusDeltaRecord> records;
  records.reserve(count);
  AddPopulation(count, universe, seed, &records);
  RecipeCorpus::Builder builder;
  builder.Reserve(count, count * 7);
  for (const CorpusDeltaRecord& r : records) {
    CULEVO_CHECK(builder.Add(r.cuisine, r.ingredients).ok());
  }
  return builder.Build();
}

/// Inputs of one serve stage, all derived from the seed.
struct Inputs {
  std::string snapshot;
  size_t snapshot_bytes = 0;
  std::vector<std::string> deltas;
  std::vector<uint64_t> fingerprints;  ///< [g] = generation g's content.
  std::vector<std::string> texts;
  std::vector<int> text_class;
  std::vector<int> point_texts;  ///< Seeded rotation of the point texts.
  std::vector<int> simulate_texts;
  std::vector<int> reload_texts;  ///< [j] = reload of delta j.
  int info_text = -1;
};

int AddText(Inputs* in, std::string text, int cls) {
  in->texts.push_back(std::move(text));
  in->text_class.push_back(cls);
  return static_cast<int>(in->texts.size()) - 1;
}

Status PrepareInputs(const ServeParams& params, int num_deltas, uint64_t seed,
                     const std::string& workdir, Inputs* in) {
  const size_t universe = WorldLexicon().size();
  const RecipeCorpus base =
      BuildPopulation(params.recipes, universe, DeriveSeed(seed, 1));
  in->snapshot = workdir + "/base.snapshot";
  SnapshotWriteOptions write;
  write.sync = false;
  CULEVO_RETURN_IF_ERROR(WriteCorpusSnapshot(in->snapshot, base, write));
  {
    std::ifstream file(in->snapshot, std::ios::binary | std::ios::ate);
    in->snapshot_bytes = static_cast<size_t>(file.tellg());
  }

  // A chain of ~1% deltas: delta j extends generation j.
  in->fingerprints.push_back(CorpusContentFingerprint(base));
  IncrementalCorpus chain = IncrementalCorpus::FromCorpus(base);
  for (int j = 0; j < num_deltas; ++j) {
    CorpusDelta delta;
    delta.base_recipes = chain.num_recipes();
    delta.base_fingerprint = in->fingerprints.back();
    AddPopulation(std::max<size_t>(1, params.recipes / 100), universe,
                  DeriveSeed(seed, 100 + static_cast<uint64_t>(j)),
                  &delta.records);
    const std::string path = StrFormat("%s/d%d.delta", workdir.c_str(), j);
    CULEVO_RETURN_IF_ERROR(WriteCorpusDelta(path, delta, write));
    for (const CorpusDeltaRecord& r : delta.records) {
      CULEVO_RETURN_IF_ERROR(chain.Add(r.cuisine, r.ingredients));
    }
    Result<RecipeCorpus> materialized = chain.Materialize();
    if (!materialized.ok()) return materialized.status();
    in->fingerprints.push_back(CorpusContentFingerprint(*materialized));
    in->deltas.push_back(path);
  }

  // Point queries over ingredients that occur in the cuisine they name,
  // so every one is answered `ok`.
  Rng rng(DeriveSeed(seed, 3));
  const auto code = [](uint64_t c) {
    return std::string(CuisineAt(static_cast<CuisineId>(c)).code);
  };
  const auto some_recipe = [&](CuisineId c) {
    const std::span<const uint32_t> recipes = base.recipes_of(c);
    return base.ingredients_of(recipes[rng.NextBounded(recipes.size())]);
  };
  for (int i = 0; i < kPointTextsPerClass * kNumPointClasses; ++i) {
    const int cls = i % kNumPointClasses;
    const uint64_t c = rng.NextBounded(kNumCuisines);
    std::string text;
    switch (cls) {
      case kOverrep:
        text = StrFormat("overrep %s %llu", code(c).c_str(),
                         static_cast<unsigned long long>(1 + rng.NextBounded(10)));
        break;
      case kNearest:
        text = StrFormat("nearest %s %llu", code(c).c_str(),
                         static_cast<unsigned long long>(1 + rng.NextBounded(5)));
        break;
      case kFreq: {
        const auto recipe = some_recipe(static_cast<CuisineId>(c));
        text = StrFormat("freq %s #%u", code(c).c_str(),
                         recipe[rng.NextBounded(recipe.size())]);
        break;
      }
      case kRecipe:
        text = StrFormat("recipe %llu", static_cast<unsigned long long>(
                                            rng.NextBounded(base.num_recipes())));
        break;
      case kStats:
        text = "stats " + code(c);
        break;
      default: {
        const auto recipe = some_recipe(static_cast<CuisineId>(c));
        text = StrFormat("search #%u", recipe[0]);
        if (recipe.size() > 1) text += StrFormat(",#%u", recipe[recipe.size() - 1]);
        text += " limit=5";
        break;
      }
    }
    in->point_texts.push_back(AddText(in, std::move(text), cls));
  }
  for (size_t i = in->point_texts.size(); i > 1; --i) {
    std::swap(in->point_texts[i - 1], in->point_texts[rng.NextBounded(i)]);
  }

  // `simulate` on the smallest populated cuisine, cycling the four models.
  CuisineId smallest = 0;
  for (int c = 0; c < kNumCuisines; ++c) {
    const size_t n = base.num_recipes_in(static_cast<CuisineId>(c));
    if (n > 0 && (base.num_recipes_in(smallest) == 0 ||
                  n < base.num_recipes_in(smallest))) {
      smallest = static_cast<CuisineId>(c);
    }
  }
  const char* const models[] = {"CM-R", "CM-C", "CM-M", "NM"};
  for (int m = 0; m < 4; ++m) {
    in->simulate_texts.push_back(AddText(
        in,
        StrFormat("simulate %s %s replicas=4 seed=%llu", code(smallest).c_str(),
                  models[m],
                  static_cast<unsigned long long>(rng.NextBounded(1000000))),
        kSimulate));
  }
  for (const std::string& delta : in->deltas) {
    in->reload_texts.push_back(AddText(in, "reload-delta " + delta, kReload));
  }
  in->info_text = AddText(in, "info", kInfo);
  return Status::Ok();
}

/// Requests of a constant-rate stream of point queries.
void AppendPoints(const Inputs& in, double rate, double seconds, int conns,
                  int conn_offset, size_t* rotation,
                  std::vector<Scheduled>* out) {
  const size_t n = static_cast<size_t>(rate * seconds);
  for (size_t i = 0; i < n; ++i) {
    Scheduled s;
    s.due_ns = static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
    s.conn = conn_offset + static_cast<int>(i % static_cast<size_t>(conns));
    s.text = in.point_texts[(*rotation)++ % in.point_texts.size()];
    out->push_back(s);
  }
}

/// The mixed phase: point queries on connection 0; on connection 1, a
/// reload-delta (plus an `info` right behind it) at the start of every
/// cycle and `simulate` requests spread over the cycle's second half, so
/// they queue behind a reload only when the reload overruns.
std::vector<Scheduled> MixedSchedule(const ServeParams& params,
                                     const Inputs& in, int cycles,
                                     size_t* rotation) {
  std::vector<Scheduled> schedule;
  AppendPoints(in, params.ref_rate, params.mixed_seconds, 1, 0, rotation,
               &schedule);
  const double cycle_ns = params.reload_every_s * 1e9;
  int sim = 0;
  for (int j = 0; j < cycles; ++j) {
    const int64_t start = static_cast<int64_t>(j * cycle_ns);
    schedule.push_back(Scheduled{start, 1, in.reload_texts[static_cast<size_t>(j)]});
    schedule.push_back(Scheduled{start, 1, in.info_text});
    for (int s = 0; s < params.simulates_per_cycle; ++s) {
      const double at = 0.55 + 0.4 * s / std::max(1, params.simulates_per_cycle);
      schedule.push_back(Scheduled{start + static_cast<int64_t>(at * cycle_ns), 1,
                                   in.simulate_texts[static_cast<size_t>(sim++) %
                                                     in.simulate_texts.size()]});
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Scheduled& a, const Scheduled& b) {
                     return a.due_ns < b.due_ns;
                   });
  return schedule;
}

/// The culevod child process.
class Daemon {
 public:
  Daemon(std::string binary, std::string socket, std::string snapshot)
      : binary_(std::move(binary)),
        socket_(std::move(socket)),
        snapshot_(std::move(snapshot)) {}

  /// Spawns the daemon and returns the seconds until its first `ok` ping.
  Result<double> Start() {
    ::unlink(socket_.c_str());
    const int64_t start = NowNs();
    CULEVO_RETURN_IF_ERROR(proc_.Spawn({binary_, "--socket", socket_,
                                        "--threads", "2", "--load-snapshot",
                                        snapshot_}));
    const int64_t give_up = start + 120ll * 1000000000;
    while (NowNs() < give_up) {
      ExitState state;
      if (proc_.TryWait(&state)) {
        return Status::Internal("culevod exited during start-up: " +
                                state.ToStatus("culevod").ToString());
      }
      Client probe;
      if (probe.Connect(socket_, 1).ok()) {
        Result<std::string> pong = probe.Call("ping");
        if (pong.ok() && Classify(*pong) == Answer::kOk) {
          return static_cast<double>(NowNs() - start) / 1e9;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return Status::DeadlineExceeded("culevod did not answer a ping in 120 s");
  }

  /// Peak resident set of the daemon so far (VmHWM), in MB.
  double PeakRssMb() const {
    std::ifstream status(StrFormat("/proc/%lld/status",
                                   static_cast<long long>(proc_.pid())));
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB
      }
    }
    return 0.0;
  }

  /// SIGTERM, then waits for the drain; a nonzero exit is an error.
  Status Stop() {
    if (!proc_.running()) return Status::Ok();
    return proc_.Terminate(30000).ToStatus("culevod");
  }

 private:
  std::string binary_;
  std::string socket_;
  std::string snapshot_;
  Subprocess proc_;
};

/// One window of a phase, by due time.
struct Window {
  double p50_ms = 0.0;  ///< Point-query p50; misses count as +inf.
  double p99_ms = 0.0;  ///< Point-query p99; misses count as +inf.
  int64_t missed = 0;   ///< Requests failed or refused.
  size_t backlog = 0;   ///< Due by the window's end but not yet answered.
  long long steal = 0;  ///< Steal ticks while the window's requests ran.
  std::vector<double> simulate_ms;
};

/// The least-stolen half of `windows` (at least one), in time order; see
/// host.h.
std::vector<Window> Quietest(const std::vector<Window>& windows) {
  std::vector<Window> quiet;
  for (size_t i : QuietHalf(windows.size(),
                            [&](size_t k) { return windows[k].steal; })) {
    quiet.push_back(windows[i]);
  }
  return quiet;
}

struct ClassCount {
  int64_t sent = 0, ok = 0, failed = 0, refused = 0;
};

/// Outcomes of one phase with per-class accounting.
struct Phase {
  std::string name;
  std::vector<Scheduled> schedule;
  std::vector<Outcome> outcomes;
  ClassCount counts[kNumClasses];

  void Account(const Inputs& in) {
    for (size_t i = 0; i < outcomes.size(); ++i) {
      ClassCount& c = counts[in.text_class[static_cast<size_t>(schedule[i].text)]];
      ++c.sent;
      c.ok += outcomes[i].answer == Answer::kOk;
      c.failed += outcomes[i].answer == Answer::kFailed;
      c.refused += outcomes[i].answer == Answer::kRefused;
    }
  }

  /// Latencies of one class group from due time; misses are +inf.
  std::vector<double> Latencies(const Inputs& in, int first, int last) const {
    std::vector<double> ms;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const int cls = in.text_class[static_cast<size_t>(schedule[i].text)];
      if (cls < first || cls > last) continue;
      ms.push_back(outcomes[i].answer == Answer::kOk ? outcomes[i].latency_ms()
                                                     : kMissMs);
    }
    return ms;
  }

  std::vector<double> PointLatencies(const Inputs& in) const {
    return Latencies(in, 0, kNumPointClasses - 1);
  }

  /// The phase cut into kWindowSeconds windows of due time. A window's
  /// steal spans from its start to the last answer of its requests.
  std::vector<Window> Windows(const Inputs& in, const StealClock& steal) const {
    std::vector<Window> windows;
    if (outcomes.empty()) return windows;
    const int64_t origin = outcomes.front().due_ns;
    const int64_t width = static_cast<int64_t>(kWindowSeconds * 1e9);
    std::vector<std::vector<double>> ms;
    std::vector<int64_t> last_recv;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& o = outcomes[i];
      const size_t w = static_cast<size_t>((o.due_ns - origin) / width);
      if (w >= windows.size()) {
        ms.resize(w + 1);
        windows.resize(w + 1);
        last_recv.resize(w + 1, 0);
      }
      last_recv[w] = std::max(last_recv[w], o.recv_ns);
      const double latency = o.answer == Answer::kOk ? o.latency_ms() : kMissMs;
      const int cls = in.text_class[static_cast<size_t>(schedule[i].text)];
      if (cls == kSimulate) windows[w].simulate_ms.push_back(latency);
      if (cls >= kNumPointClasses) continue;
      ms[w].push_back(latency);
      windows[w].missed += o.answer != Answer::kOk;
    }
    for (size_t w = 0; w < windows.size(); ++w) {
      const int64_t start = origin + static_cast<int64_t>(w) * width;
      const int64_t end = start + width;
      windows[w].p50_ms = Quantile(ms[w], 0.5);
      windows[w].p99_ms = Quantile(ms[w], 0.99);
      windows[w].steal = steal.TicksBetween(start, std::max(end, last_recv[w]));
      for (const Outcome& o : outcomes) {
        windows[w].backlog +=
            o.due_ns <= end && (o.recv_ns == 0 || o.recv_ns > end);
      }
    }
    return windows;
  }
};

/// Runs one phase on `client`, reconnecting when answers went missing so
/// the next phase does not read stale frames.
Status RunPhase(Client* client, const std::string& socket, int conns,
                const Inputs& in, Phase* phase) {
  CULEVO_RETURN_IF_ERROR(
      client->Run(phase->schedule, in.texts, 10000, &phase->outcomes));
  phase->Account(in);
  for (const Outcome& o : phase->outcomes) {
    if (o.recv_ns == 0) return client->Connect(socket, conns);
  }
  return Status::Ok();
}

std::string PhaseTable(const Phase& phase) {
  std::string out;
  for (int c = 0; c < kNumClasses; ++c) {
    const ClassCount& n = phase.counts[c];
    if (n.sent == 0) continue;
    out += StrFormat("%s:%lld/%lld/%lld/%lld ", kClassNames[c],
                     static_cast<long long>(n.sent), static_cast<long long>(n.ok),
                     static_cast<long long>(n.failed),
                     static_cast<long long>(n.refused));
  }
  return out;
}

/// Reference answers of an in-process ServiceCore, per generation.
class Reference {
 public:
  explicit Reference(const Inputs& in) : in_(in), core_(&WorldLexicon(), ServiceOptions{}) {}

  Status Load() {
    CULEVO_RETURN_IF_ERROR(core_.LoadFromFile(in_.snapshot));
    Snap();
    return Status::Ok();
  }
  /// Applies delta `j` and records the next generation's answers.
  Status Advance(size_t j) {
    CULEVO_RETURN_IF_ERROR(core_.ReloadDelta(in_.deltas[j]));
    Snap();
    return Status::Ok();
  }
  const std::string& Expected(size_t gen, int text) const {
    return answers_[gen][static_cast<size_t>(text)];
  }
  size_t generations() const { return answers_.size(); }
  ServiceCore& core() { return core_; }

 private:
  void Snap() {
    std::vector<std::string> answers(in_.texts.size());
    for (size_t t = 0; t < in_.texts.size(); ++t) {
      const int cls = in_.text_class[t];
      if (cls == kReload) continue;
      answers[t] = core_.Handle(in_.texts[t]);
    }
    answers_.push_back(std::move(answers));
  }

  const Inputs& in_;
  ServiceCore core_;
  std::vector<std::vector<std::string>> answers_;
};

/// Checks every answered request of `phase` against the reference at a
/// generation that could have served it. `reloads` are the (sent, recv)
/// times of the reloads that succeeded so far, in order.
void Verify(const Phase& phase, const Inputs& in, const Reference& ref,
            const std::vector<std::pair<int64_t, int64_t>>& reloads,
            const Client& client, Report* report) {
  int64_t mismatches = 0;
  std::string first;
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    const int text = phase.schedule[i].text;
    const int cls = in.text_class[static_cast<size_t>(text)];
    if (o.answer != Answer::kOk || cls == kReload) continue;
    size_t lo = 0;
    size_t hi = 0;
    for (const auto& [sent, recv] : reloads) {
      lo += recv <= o.sent_ns;
      hi += sent < o.recv_ns;
    }
    hi = std::min(hi, ref.generations() - 1);
    const std::string& body = client.bodies().at(o.body);
    bool matched = false;
    for (size_t g = lo; g <= hi && !matched; ++g) {
      matched = body == ref.Expected(g, text);
    }
    if (!matched) {
      if (mismatches++ == 0) {
        first = StrFormat("'%s' (generations %zu..%zu)",
                          in.texts[static_cast<size_t>(text)].c_str(), lo, hi);
      }
    }
  }
  if (mismatches > 0) {
    report->Mismatch(StrFormat("%s: %lld socket answers differ from in-process "
                               "Handle(), first %s",
                               phase.name.c_str(),
                               static_cast<long long>(mismatches), first.c_str()));
  }
}

double Clamp(double ms) { return std::min(ms, 1e6); }

void AddCounts(const Phase& phase, Report* report) {
  for (const ClassCount& c : phase.counts) {
    report->attempted += c.sent;
    report->failed += c.failed + c.refused;
  }
}

std::string Percentiles(const std::vector<double>& ms) {
  return StrFormat("n=%zu p50=%.4f %s=%.4f", ms.size(), Clamp(Median(ms)),
                   HighestResolvedPercentile(ms.size()).c_str(),
                   Clamp(HighestResolvedQuantile(ms)));
}

}  // namespace

void RunServeStage(const ServeParams& params, uint64_t seed, bool trace,
                   const std::string& culevod, const std::string& workdir,
                   const std::string& trace_path, Report* report) {
  const int cycles = std::max(
      1, static_cast<int>(params.mixed_seconds / params.reload_every_s));
  Inputs in;
  if (Status s = PrepareInputs(params, cycles, seed, workdir, &in); !s.ok()) {
    report->Mismatch("serve inputs: " + s.ToString());
    return;
  }
  report->Info("serve.recipes", std::to_string(params.recipes));
  report->Info("serve.snapshot_bytes", std::to_string(in.snapshot_bytes));
  const std::string socket = workdir + "/culevod.sock";
  size_t rotation = 0;

  if (!trace) {
    // Cold starts: spawn to first `ok` ping; the last daemon keeps serving.
    std::vector<Timed> setup_s;
    std::unique_ptr<Daemon> daemon;
    for (int i = 0; i < std::max(1, params.setup_reps); ++i) {
      if (daemon != nullptr) {
        if (Status s = daemon->Stop(); !s.ok()) {
          report->Mismatch("culevod shutdown: " + s.ToString());
        }
      }
      daemon = std::make_unique<Daemon>(culevod, socket, in.snapshot);
      const long long steal_before = ReadStealTicks();
      Result<double> up = daemon->Start();
      if (!up.ok()) {
        report->Mismatch("culevod start: " + up.status().ToString());
        return;
      }
      setup_s.push_back(Timed{*up, ReadStealTicks() - steal_before});
    }

    StealClock steal;
    Client client;
    std::vector<Phase> phases;
    Status status = client.Connect(socket, 2);
    // Reference phase: point queries only, over both connections.
    Phase ref_phase;
    ref_phase.name = "reference";
    AppendPoints(in, params.ref_rate, params.ref_seconds, 2, 0, &rotation,
                 &ref_phase.schedule);
    if (status.ok()) status = RunPhase(&client, socket, 2, in, &ref_phase);
    phases.push_back(std::move(ref_phase));

    // Capacity ladder: a step passes when most of its quiet windows answer
    // everything, keep p50 within kPointSloMs, and end with no more than
    // kPointSloMs of requests queued; the ladder stops after two failed
    // steps in a row.
    double max_qps = 0.0;
    int failed_steps = 0;
    std::string ladder;
    for (double rate : params.ladder) {
      if (!status.ok() || failed_steps == 2) break;
      Phase step;
      step.name = StrFormat("ladder@%.0f", rate);
      AppendPoints(in, rate, params.step_seconds, 2, 0, &rotation,
                   &step.schedule);
      status = RunPhase(&client, socket, 2, in, &step);
      const std::vector<Window> windows = Quietest(step.Windows(in, steal));
      int passed = 0;
      std::vector<double> p99;
      for (const Window& w : windows) {
        p99.push_back(w.p99_ms);
        passed += w.p50_ms <= kPointSloMs && w.missed == 0 &&
                  static_cast<double>(w.backlog) <=
                      std::max(8.0, rate * kPointSloMs / 1e3);
      }
      const bool pass = status.ok() && 2 * passed > static_cast<int>(windows.size());
      ladder += StrFormat("%.0f:%s:%d/%zu:p99=%.3f ", rate,
                          pass ? "pass" : "fail", passed, windows.size(),
                          Clamp(Median(p99)));
      phases.push_back(std::move(step));
      failed_steps = pass ? 0 : failed_steps + 1;
      if (pass) max_qps = rate;
    }

    // Mixed phase: reads on connection 0, writes on connection 1.
    Phase mixed;
    mixed.name = "mixed";
    mixed.schedule = MixedSchedule(params, in, cycles, &rotation);
    if (status.ok()) status = RunPhase(&client, socket, 2, in, &mixed);
    const double daemon_rss_mb = daemon->PeakRssMb();
    client.Close();
    steal.Stop();
    if (Status s = daemon->Stop(); !s.ok()) {
      report->Mismatch("culevod shutdown: " + s.ToString());
    }
    if (!status.ok()) report->Mismatch("serve client: " + status.ToString());

    // Reloads that succeeded, and the `info` answer right behind each.
    std::vector<std::pair<int64_t, int64_t>> reloads;
    std::vector<Timed> reload_ms;
    std::vector<std::string> infos;
    for (size_t i = 0; i < mixed.outcomes.size(); ++i) {
      const int cls = in.text_class[static_cast<size_t>(mixed.schedule[i].text)];
      const Outcome& o = mixed.outcomes[i];
      if (cls == kReload) {
        reload_ms.push_back(
            Timed{o.answer == Answer::kOk ? o.latency_ms() : kMissMs,
                  steal.TicksBetween(o.due_ns, o.recv_ns)});
        if (o.answer == Answer::kOk) reloads.emplace_back(o.sent_ns, o.recv_ns);
      } else if (cls == kInfo && o.answer == Answer::kOk) {
        infos.push_back(client.bodies().at(o.body));
      }
    }
    if (static_cast<int>(reloads.size()) != cycles) {
      report->Mismatch(StrFormat("%zu of %d reload-delta requests succeeded",
                                 reloads.size(), cycles));
    }

    // Byte-for-byte check against in-process Handle() per generation.
    Reference ref(in);
    if (Status s = ref.Load(); !s.ok()) {
      report->Mismatch("in-process reference: " + s.ToString());
      return;
    }
    for (size_t j = 0; j < reloads.size(); ++j) {
      if (Status s = ref.Advance(j); !s.ok()) {
        report->Mismatch("in-process reference reload: " + s.ToString());
        return;
      }
    }
    for (const Phase& phase : phases) {
      Verify(phase, in, ref, {}, client, report);
    }
    Verify(mixed, in, ref, reloads, client, report);
    for (size_t j = 0; j < infos.size(); ++j) {
      const std::string want =
          StrFormat("fingerprint\t%016llx",
                    static_cast<unsigned long long>(in.fingerprints[j + 1]));
      if (infos[j].find(want) == std::string::npos ||
          j + 1 >= ref.generations() || infos[j] != ref.Expected(j + 1, in.info_text)) {
        report->Mismatch(StrFormat(
            "info after reload %zu does not carry the base+delta "
            "Materialize() fingerprint",
            j));
      }
    }

    phases.push_back(std::move(mixed));
    for (const Phase& phase : phases) {
      AddCounts(phase, report);
      report->Info("serve.phase." + phase.name, PhaseTable(phase));
    }
    const Phase& reference_phase = phases.front();
    const Phase& mixed_phase = phases.back();
    const std::vector<double> points = params.points_from_mixed
                                           ? mixed_phase.PointLatencies(in)
                                           : reference_phase.PointLatencies(in);
    const std::vector<double> simulate_ms =
        mixed_phase.Latencies(in, kSimulate, kSimulate);
    // Gated figures: medians over the least-stolen windows.
    const Phase& point_phase =
        params.points_from_mixed ? mixed_phase : reference_phase;
    std::vector<double> window_p50;
    std::vector<double> window_p99;
    for (const Window& w : Quietest(point_phase.Windows(in, steal))) {
      window_p50.push_back(w.p50_ms);
      window_p99.push_back(w.p99_ms);
    }
    std::vector<double> quiet_simulate_ms;
    for (const Window& w : Quietest(mixed_phase.Windows(in, steal))) {
      quiet_simulate_ms.insert(quiet_simulate_ms.end(), w.simulate_ms.begin(),
                               w.simulate_ms.end());
    }
    if (quiet_simulate_ms.empty()) quiet_simulate_ms = simulate_ms;
    int64_t sent = 0;
    int64_t missed = 0;
    for (const Phase& phase : phases) {
      for (const ClassCount& c : phase.counts) {
        sent += c.sent;
        missed += c.failed + c.refused;
      }
    }
    // Latencies of milliseconds and below, and the ladder's capacity, are
    // printed, not gated: on a shared virtual machine they follow the
    // hypervisor's steal from run to run even over the quiet windows (ten
    // serve_point runs on a 4-vCPU VM: IQR of point_p50_ms 59% and of
    // simulate_p50_ms 38% of the median; five runs: p99 0.23 to 1.87 ms,
    // capacity 32k to 52k/s). reload_p50_ms, a CPU-bound second and more,
    // stays gated.
    report->Ungated("point_p50_ms", Clamp(Median(window_p50)), "ms");
    report->Ungated("point_p99_ms", Clamp(Median(window_p99)), "ms");
    if (!params.ladder.empty()) {
      report->Ungated("point_max_qps", max_qps, "1/s");
    }
    report->EndToEnd("reload_p50_ms", Clamp(QuietMedian(reload_ms)), "ms");
    report->Ungated("simulate_p50_ms", Clamp(Median(quiet_simulate_ms)), "ms");
    if (params.focus) {
      report->EndToEnd("setup_s", QuietMedian(setup_s), "s");
      report->EndToEnd("peak_rss_mb", daemon_rss_mb, "MB");
    }
    // 0 on a healthy run, so not a gated metric; the result line carries
    // the same counts as `attempted` and `failed`.
    report->Ungated("error_rate",
                    sent > 0 ? static_cast<double>(missed) / sent : 0.0, "ratio");
    report->Info("serve.requests_missed",
                 StrFormat("%lld of %lld failed or refused",
                           static_cast<long long>(missed),
                           static_cast<long long>(sent)));
    report->Info("serve.points", Percentiles(points));
    std::vector<double> raw_reload_ms;
    for (const Timed& t : reload_ms) raw_reload_ms.push_back(t.value);
    report->Info("serve.reloads", Percentiles(raw_reload_ms));
    report->Info("serve.simulates", Percentiles(simulate_ms));
    report->Info("serve.ladder", ladder);
    report->Info("serve.daemon_peak_rss_mb", StrFormat("%.1f", daemon_rss_mb));
    std::string cold_starts;
    for (const Timed& t : setup_s) {
      cold_starts += StrFormat("%.4f(steal %lld) ", t.value, t.steal);
    }
    report->Info("serve.cold_starts_s", cold_starts);
    std::vector<double> lateness;
    for (const Phase& phase : phases) {
      for (const Outcome& o : phase.outcomes) lateness.push_back(o.lateness_ms());
    }
    report->Info("serve.client_lateness_ms_p99",
                 StrFormat("%.4f", Quantile(lateness, 0.99)));
    return;
  }

  // ---- Traced run ----------------------------------------------------------
  Tracer tracer(true);
  {
    // The cold-start layers, called one at a time.
    Result<LoadedCorpusSnapshot> loaded = [&] {
      ScopedSpan span(&tracer, "corpus.snapshot_load");
      return LoadCorpusSnapshot(in.snapshot);
    }();
    if (!loaded.ok()) {
      report->Mismatch("snapshot load: " + loaded.status().ToString());
      return;
    }
    ScopedSpan span(&tracer, "service.index_build");
    const QueryIndex index = QueryIndex::Build(loaded->corpus);
  }
  Reference ref(in);
  if (Status s = ref.Load(); !s.ok()) {
    report->Mismatch("in-process reference: " + s.ToString());
    return;
  }
  ServiceCore& core = ref.core();

  // Replay of the reference phase's requests, untraced then traced.
  std::vector<Scheduled> points;
  AppendPoints(in, params.ref_rate, params.ref_seconds, 2, 0, &rotation, &points);
  // A first, untimed pass warms the caches for both timed ones.
  for (const Scheduled& s : points) core.Handle(in.texts[static_cast<size_t>(s.text)]);
  int64_t start = NowNs();
  for (const Scheduled& s : points) core.Handle(in.texts[static_cast<size_t>(s.text)]);
  const double untraced_ms = static_cast<double>(NowNs() - start) / 1e6;
  start = NowNs();
  int mismatched = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    const int text = points[i].text;
    std::string answer;
    {
      ScopedSpan span(&tracer,
                      kHandleSpans[in.text_class[static_cast<size_t>(text)]],
                      i + 1);
      answer = core.Handle(in.texts[static_cast<size_t>(text)]);
    }
    mismatched += answer != ref.Expected(0, text);
  }
  const double traced_ms = static_cast<double>(NowNs() - start) / 1e6;
  if (mismatched > 0) {
    report->Mismatch(StrFormat("%d in-process replay answers changed", mismatched));
  }

  // On the socket: transport time per class at a low rate, then a short
  // run at the reference rate for the generator's lateness, then the
  // daemon's own counters.
  std::vector<double> transport_rtt_us[kNumPointClasses];
  std::vector<double> lateness;
  int64_t sent = 0;
  int64_t missed = 0;
  std::map<std::string, double> daemon_counters;
  {
    Daemon daemon(culevod, socket, in.snapshot);
    Result<double> up = daemon.Start();
    if (!up.ok()) {
      report->Mismatch("culevod start: " + up.status().ToString());
      return;
    }
    Client client;
    Status status = client.Connect(socket, 1);
    Phase probe;
    probe.name = "transport";
    // Spaced 2 ms apart: each request finds an idle server.
    for (size_t i = 0; i < in.point_texts.size(); ++i) {
      probe.schedule.push_back(
          Scheduled{static_cast<int64_t>(i) * 2000000, 0, in.point_texts[i]});
    }
    if (status.ok()) status = RunPhase(&client, socket, 1, in, &probe);
    for (size_t i = 0; i < probe.outcomes.size(); ++i) {
      const Outcome& o = probe.outcomes[i];
      const int cls = in.text_class[static_cast<size_t>(probe.schedule[i].text)];
      if (o.answer == Answer::kOk) {
        transport_rtt_us[cls].push_back(static_cast<double>(o.recv_ns - o.sent_ns) / 1e3);
      }
    }
    Phase loaded_phase;
    loaded_phase.name = "reference";
    AppendPoints(in, params.ref_rate, std::min(1.0, params.ref_seconds), 2, 0,
                 &rotation, &loaded_phase.schedule);
    if (status.ok()) status = client.Connect(socket, 2);
    if (status.ok()) status = RunPhase(&client, socket, 2, in, &loaded_phase);
    for (const Outcome& o : loaded_phase.outcomes) lateness.push_back(o.lateness_ms());
    Verify(probe, in, ref, {}, client, report);
    Verify(loaded_phase, in, ref, {}, client, report);
    for (const Phase* phase : {&probe, &loaded_phase}) {
      AddCounts(*phase, report);
      for (const ClassCount& c : phase->counts) {
        sent += c.sent;
        missed += c.failed + c.refused;
      }
    }
    if (status.ok()) {
      Result<std::string> metrics = client.Call("metrics");
      if (metrics.ok()) {
        for (const std::string& row : Split(*metrics, '\n')) {
          const std::vector<std::string> cols = Split(row, '\t');
          if (cols.size() == 3 && cols[0] == "counter") {
            daemon_counters[cols[1]] = std::stod(cols[2]);
          }
        }
      } else {
        status = metrics.status();
      }
    }
    client.Close();
    if (Status s = daemon.Stop(); !s.ok()) {
      report->Mismatch("culevod shutdown: " + s.ToString());
    }
    if (!status.ok()) report->Mismatch("serve client: " + status.ToString());
  }

  // Replay of the mixed phase, traced: writes go through the delta loader
  // and ReloadDelta; `info` must then carry the Materialize() fingerprint.
  const std::vector<Scheduled> mixed = MixedSchedule(params, in, cycles, &rotation);
  size_t generation = 0;
  for (size_t i = 0; i < mixed.size(); ++i) {
    const int text = mixed[i].text;
    const int cls = in.text_class[static_cast<size_t>(text)];
    if (cls == kReload) {
      const std::string& path = in.deltas[generation];
      Result<CorpusDelta> delta = [&] {
        ScopedSpan span(&tracer, "corpus.delta_load", i + 1);
        return LoadCorpusDelta(path);
      }();
      Status s = delta.status();
      if (s.ok()) {
        ScopedSpan span(&tracer, "service.reload", i + 1);
        s = core.ReloadDelta(path);
      }
      if (!s.ok()) {
        report->Mismatch("in-process reload: " + s.ToString());
        return;
      }
      ++generation;
      continue;
    }
    std::string answer;
    {
      ScopedSpan span(&tracer, kHandleSpans[cls], i + 1);
      answer = core.Handle(in.texts[static_cast<size_t>(text)]);
    }
    if (cls == kInfo &&
        answer.find(StrFormat("fingerprint\t%016llx",
                              static_cast<unsigned long long>(
                                  in.fingerprints[generation]))) == std::string::npos) {
      report->Mismatch(StrFormat("in-process info after reload %zu lacks the "
                                 "Materialize() fingerprint", generation));
    }
  }
  report->attempted += static_cast<int64_t>(points.size() + mixed.size());

  // Per-layer figures.
  std::map<std::string, std::vector<double>> durations_us;
  for (const Span& span : tracer.spans()) {
    durations_us[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
  const auto p50_ms = [&](const char* name) {
    return Median(durations_us[name]) / 1e3;
  };
  report->Layer("corpus.snapshot_load_ms", p50_ms("corpus.snapshot_load"), "ms");
  report->Layer("service.index_build_ms", p50_ms("service.index_build"), "ms");
  report->Layer("corpus.delta_load_ms", p50_ms("corpus.delta_load"), "ms");
  report->Layer("service.reload_ms", p50_ms("service.reload"), "ms");
  for (int c = 0; c < kNumPointClasses; ++c) {
    const std::vector<double>& us = durations_us[kHandleSpans[c]];
    report->Layer(StrFormat("service.handle_us.%s.p50", kClassNames[c]), Median(us), "us");
    report->Layer(StrFormat("service.handle_us.%s.p99", kClassNames[c]),
                  Quantile(us, 0.99), "us");
    report->Layer(StrFormat("service.transport_us.%s", kClassNames[c]),
                  Median(transport_rtt_us[c]) - Median(us), "us");
  }
  report->Layer("service.handle_ms.simulate", p50_ms(kHandleSpans[kSimulate]), "ms");
  report->Layer("service.requests", daemon_counters["serve.requests"], "count");
  report->Layer("service.rejects", daemon_counters["serve.rejects"], "count");
  report->Layer("service.sheds", daemon_counters["serve.brownout.sheds"], "count");
  report->Layer("client.lateness_ms_p99", Quantile(lateness, 0.99), "ms");
  report->Layer("client.error_rate",
                sent > 0 ? static_cast<double>(missed) / sent : 0.0, "ratio");
  report->Layer("trace.serve_replay_traced_ms", traced_ms, "ms");
  report->Layer("trace.serve_replay_untraced_ms", untraced_ms, "ms");
  report->Layer("trace.serve_overhead_ms", traced_ms - untraced_ms, "ms");
  if (!trace_path.empty() && !tracer.WriteTsv(trace_path)) {
    report->Info("trace.serve_file", "unwritable: " + trace_path);
  } else {
    report->Info("trace.serve_file", trace_path);
  }
}

}  // namespace perfbench

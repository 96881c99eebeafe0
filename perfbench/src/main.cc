// perfbench: the repository benchmark harness.
//
//   perfbench --workload <fig4_paper|serve_point|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--workdir <dir>]
//             [--commit <sha>] [--dirty <0|1|unknown>] [--source-digest <hex>]
//
// Every workload runs one session of the system: synthesize a world and
// rerun the Fig. 4 model comparison on it, then serve a CULEVO-CORPUS
// snapshot through a culevod child process over its Unix socket. The
// workloads differ in where the weight lies (see BENCHMARK.json and
// perfbench/layers.json), so every workload reports every end-to-end
// metric while loading a different set of layers.
//
// With --trace 0 the run prints every end-to-end figure and puts the gated
// ones in the result line; with --trace 1 it replays the same work through
// each module's public calls under spans and reports per-layer metrics.
// Both print human-readable lines, a `provenance` line, and last a
// one-line JSON result. Any output-check mismatch sets "correct": false
// and exits 1.

#include <cstdio>
#include <filesystem>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fig4_stage.h"
#include "host.h"
#include "provenance.h"
#include "report.h"
#include "serve_stage.h"
#include "util/strings.h"

namespace {

using namespace perfbench;
using culevo::StrFormat;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool smoke = false;
  std::string workdir = ".bench_build/perfbench-run";
  std::string culevod = PERFBENCH_CULEVOD;
  std::string commit = "unknown";
  std::string dirty = "unknown";
  std::string source_digest = "unknown";
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fig4_paper|serve_point|serve_mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--workdir <dir>]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value[0] - '0';
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--culevod") {
      args->culevod = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--dirty") {
      args->dirty = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && args->trace >= 0;
}

/// One workload: the sizes of both stages, with `seconds` of measuring
/// time split between them.
struct Workload {
  Fig4Params fig4;
  ServeParams serve;
};

bool MakeWorkload(const Args& args, Workload* w) {
  const double s = args.seconds;
  // The small stages every workload carries so that it reports every
  // end-to-end metric: a quarter-scale Fig. 4, and a 100k-recipe daemon
  // with a short reference phase and a short mixed phase.
  Fig4Params small_fig4;
  small_fig4.scale = 0.25;
  small_fig4.replicas = 2;
  small_fig4.seconds = 0.2 * s;
  ServeParams serve;
  serve.ref_rate = 8000;
  if (args.workload == "fig4_paper") {
    // Paper scale (158,460 recipes); generation, transaction build and
    // Eclat do almost all the work.
    w->fig4.scale = 1.0;
    w->fig4.replicas = 4;
    w->fig4.seconds = 0.75 * s;
    w->fig4.setup_reps = 5;
    w->fig4.focus = true;
    serve.recipes = 100000;
    serve.ref_seconds = 0.1 * s;
    serve.mixed_seconds = 3;
    serve.reload_every_s = 0.5;
    serve.setup_reps = 1;
  } else if (args.workload == "serve_point") {
    // 1M recipes, the perf_serve population: cold start, frame I/O,
    // dispatch and index lookups, and the capacity ladder.
    w->fig4 = small_fig4;
    serve.recipes = 1000000;
    serve.ref_seconds = 0.25 * s;
    serve.ladder = {4000,  8000,  16000, 24000, 32000, 40000,
                    44000, 48000, 52000, 56000, 64000, 72000};
    serve.step_seconds = 1.0;
    serve.mixed_seconds = 9;
    serve.reload_every_s = 3;
    serve.focus = true;
  } else if (args.workload == "serve_mixed") {
    // Same daemon; reads beside hot delta reloads and `simulate`.
    w->fig4 = small_fig4;
    serve.recipes = 1000000;
    serve.ref_seconds = 0.05 * s;
    serve.mixed_seconds = 0.6 * s;
    serve.reload_every_s = 3;
    serve.focus = true;
    serve.points_from_mixed = true;
  } else {
    return false;
  }
  w->serve = serve;
  if (args.smoke) {
    // Smoke size: every code path in seconds.
    w->fig4.scale = 0.1;
    w->fig4.replicas = 1;
    w->fig4.seconds = 0.1;
    w->fig4.setup_reps = 1;
    w->serve.recipes = 20000;
    w->serve.ref_seconds = 0.5;
    if (!w->serve.ladder.empty()) w->serve.ladder = {1000, 2000};
    w->serve.step_seconds = 0.5;
    w->serve.mixed_seconds = 0.6;
    w->serve.reload_every_s = 0.3;
    w->serve.simulates_per_cycle = 1;
    w->serve.setup_reps = 1;
  }
  return true;
}

/// Share of CPU time the hypervisor stole between two readings; printed
/// beside each stage, a high value marks a run measured on a contended
/// host.
std::string StealShare(const CpuTicks& from, const CpuTicks& to) {
  const long long total = to.total - from.total;
  return StrFormat("%.1f%%",
                   total > 0 ? 100.0 * (to.steal - from.steal) / total : 0.0);
}

void PrintMetrics(const char* kind,
                  const std::map<std::string, MetricValue>& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("%s %-40s %14.6f %s\n", kind, name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string ResultJson(const Report& report, bool trace) {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
      report.mismatches.empty() ? "true" : "false",
      static_cast<long long>(std::max<int64_t>(1, report.attempted)),
      static_cast<long long>(report.failed));
  bool first = true;
  for (const auto& [name, m] : trace ? report.per_layer : report.end_to_end) {
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  Workload workload;
  if (!MakeWorkload(args, &workload)) return Usage("unknown workload");
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) return Usage("cannot create --workdir");

  const std::string provenance =
      ProvenanceJson(args.commit, args.dirty, args.source_digest);
  std::printf("provenance %s\n", provenance.c_str());
  std::fflush(stdout);

  const bool trace = args.trace == 1;
  const std::string stem = StrFormat("%s/trace-%s-%llu", args.workdir.c_str(),
                                     args.workload.c_str(),
                                     static_cast<unsigned long long>(args.seed));
  Report report;
  const CpuTicks start = ReadCpuTicks();
  RunFig4Stage(workload.fig4, args.seed, trace, trace ? stem + "-fig4.tsv" : "",
               &report);
  const CpuTicks between = ReadCpuTicks();
  RunServeStage(workload.serve, args.seed, trace, args.culevod, args.workdir,
                trace ? stem + "-serve.tsv" : "", &report);
  report.Info("host.steal.fig4", StealShare(start, between));
  report.Info("host.steal.serve", StealShare(between, ReadCpuTicks()));
  for (const char* file : {"base.snapshot", "culevod.sock"}) {
    std::filesystem::remove(args.workdir + "/" + file, ec);
  }
  for (const auto& entry : std::filesystem::directory_iterator(args.workdir, ec)) {
    if (entry.path().extension() == ".delta") {
      std::filesystem::remove(entry.path(), ec);
    }
  }

  for (const auto& [key, value] : report.info) {
    std::printf("info %-32s %s\n", key.c_str(), value.c_str());
  }
  PrintMetrics(trace ? "layer" : "metric",
               trace ? report.per_layer : report.end_to_end);
  if (!trace) {
    for (const auto& [name, m] : report.ungated) {
      std::printf("metric %-40s %14.6f %s (not gated)\n", name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
  for (const std::string& mismatch : report.mismatches) {
    std::printf("MISMATCH %s\n", mismatch.c_str());
  }
  std::printf("%s\n", ResultJson(report, trace).c_str());
  return report.mismatches.empty() ? 0 : 1;
}

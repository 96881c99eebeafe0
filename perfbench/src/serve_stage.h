#ifndef PERFBENCH_SERVE_STAGE_H_
#define PERFBENCH_SERVE_STAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/// culevod over its real Unix socket, loaded with a CULEVO-CORPUS snapshot
/// of the perf_serve population, driven by one open-loop client process
/// (this one) over at most two connections.
struct ServeParams {
  size_t recipes = 1000000;    ///< Population size of the snapshot.
  double ref_rate = 4000;      ///< Point queries/s of the reference phase.
  double ref_seconds = 2;      ///< Reference phase: point queries only.
  std::vector<double> ladder;  ///< Ascending rates of the capacity ladder.
  double step_seconds = 0.5;   ///< Length of one ladder step.
  double mixed_seconds = 6;    ///< Mixed phase: points beside writes.
  double reload_every_s = 3;   ///< Reload cadence of the mixed phase.
  int simulates_per_cycle = 8; ///< `simulate` requests per reload cycle.
  int setup_reps = 3;          ///< Cold starts whose median is setup_s.
  /// The workload's main stage: it then owns setup_s and peak_rss_mb.
  bool focus = false;
  /// point_p50_ms/point_p99_ms come from the mixed phase instead of the
  /// reference phase.
  bool points_from_mixed = false;
};

/// Untraced: cold starts, then the reference phase, the ladder and the
/// mixed phase against the daemon; every answer is checked byte for byte
/// against an in-process ServiceCore at the generation that served it.
/// Traced: loads, indexes and replays the same schedule in process under
/// spans, and measures transport time and client lateness on the socket.
void RunServeStage(const ServeParams& params, uint64_t seed, bool trace,
                   const std::string& culevod, const std::string& workdir,
                   const std::string& trace_path, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_STAGE_H_

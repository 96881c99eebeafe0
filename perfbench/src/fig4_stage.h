#ifndef PERFBENCH_FIG4_STAGE_H_
#define PERFBENCH_FIG4_STAGE_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

/// The paper's Fig. 4 pipeline: all 25 cuisines x {CM-R, CM-C, CM-M, NM}
/// through EvaluateCuisine on a synthesized world.
struct Fig4Params {
  double scale = 1.0;     ///< World size as a fraction of Table I.
  int replicas = 4;       ///< Replicas per (cuisine, model).
  double seconds = 10.0;  ///< Measuring time, shared by serial and pool runs.
  int setup_reps = 3;     ///< World syntheses setup_s is taken over.
  /// The workload's main stage: it then owns setup_s and peak_rss_mb.
  bool focus = false;
};

/// Untraced (`trace` false): times serial and `nproc`-worker pool runs in
/// turn until `seconds` are spent and reports fig4_s and fig4_pool_s as
/// medians over the least-stolen half of the runs (see host.h). Traced: times one untraced serial run, then replays the same
/// replica loop through the public calls under spans and reports the
/// per-layer self times; the spans go to `trace_path`. Either way the
/// curve digests of every run must agree and each cuisine's best
/// copy-mutate model must beat the null model.
void RunFig4Stage(const Fig4Params& params, uint64_t seed, bool trace,
                  const std::string& trace_path, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_FIG4_STAGE_H_

// Timing-closure loop: iterate static timing and per-net repeater
// insertion until the design's slack converges (docs/STA.md).
//
// Each iteration propagates arrivals/requireds over the TimingGraph,
// ranks nets by worst slack, and optimizes the most critical ones
// through the runtime batch engine.  A net's DP request (tree + tech +
// options) never changes across iterations — only the *derived spec*
// used to pick a frontier point does — so every net is canonicalized
// once (service::Canonicalize) and its frontier is fetched through a
// service-style solution cache: the DP runs at most once per net per
// process, and a warm --cache-dir makes repeat runs pure cache hits.
//
// Convergence is by construction monotone: a net's annotated delay only
// ever decreases (new = min(old, chosen point's ARD)), so arrivals only
// decrease, requireds only increase, and the per-iteration worst slack
// is non-decreasing — the invariant tests/sta_test.cc asserts.  The
// loop stops when timing is met, when an iteration changes nothing
// while already examining every failing net, or at the iteration cap.
//
// Determinism: cache lookups, insertions, and delay updates happen on
// the calling thread in net-index order, and the batch engine is
// byte-deterministic at any thread count, so WriteClosureReport output
// is byte-identical at any `jobs`.
#ifndef MSN_STA_CLOSURE_H
#define MSN_STA_CLOSURE_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "core/msri.h"
#include "obs/stats.h"
#include "service/cache.h"
#include "sta/design.h"
#include "sta/timing_graph.h"

namespace msn::sta {

struct ClosureOptions {
  /// Worker threads for the per-iteration DP batch (>= 1).  Any value
  /// yields a byte-identical report.
  std::size_t jobs = 1;
  /// Iteration cap (>= 1).
  std::size_t max_iters = 20;
  /// Failing nets optimized per iteration, most critical first
  /// (0 = all).  When an iteration improves nothing, the window doubles
  /// before the loop may declare convergence.
  std::size_t nets_per_iter = 0;
  /// Per-net DP options; stats/trace/set_observer must be unset (the
  /// closure owns instrumentation).  `base.cancel` is
  /// honored both between iterations and inside the batch.
  MsriOptions base;
  /// Solution-cache budget for the per-net frontiers.
  service::CacheConfig cache;
  /// When non-empty, the cache persists to this directory
  /// (service::PersistentCache), so a second run starts warm.
  std::string cache_dir;
};

/// Per-iteration telemetry; `worst_slack_ps` is measured at the start of
/// the iteration and is monotonically non-decreasing across entries.
struct IterationStats {
  double worst_slack_ps = 0.0;
  std::size_t failing_endpoints = 0;
  std::size_t failing_nets = 0;
  std::size_t nets_examined = 0;   ///< Selected this iteration.
  std::size_t nets_optimized = 0;  ///< Delay actually lowered.
  std::uint64_t cache_hits = 0;    ///< Frontier lookups served warm.
  std::uint64_t cache_misses = 0;
  std::uint64_t dp_runs = 0;       ///< DP executions (batch jobs).
};

/// Final per-net account, in design declaration order.
struct NetClosure {
  std::string name;
  double initial_delay_ps = 0.0;  ///< Unoptimized ARD annotation.
  double final_delay_ps = 0.0;
  double spec_ps = 0.0;   ///< Last derived spec (+inf: unconstrained).
  double slack_ps = 0.0;  ///< Final spec - final delay.
  bool optimized = false;  ///< Delay was lowered at least once.
  std::string error;       ///< Contained DP failure, if any.
};

struct ClosureResult {
  std::vector<IterationStats> iterations;
  bool timing_met = false;   ///< Worst slack reached >= 0.
  bool converged = false;    ///< No further improvement possible.
  double final_worst_slack_ps = 0.0;
  std::vector<NetClosure> nets;
  std::vector<EndpointSlack> endpoint_slacks;  ///< Final, port order.
  std::size_t jobs = 1;
  std::size_t max_iters = 0;
  /// Merged DP run stats plus sta.* and service.cache.* instruments.
  obs::RunStats registry;
  service::CacheStats cache;  ///< Final snapshot.
};

/// Runs the closure loop on a loaded design.  Throws CheckError on
/// precondition violations (options carrying instrument hooks, jobs or
/// max_iters of 0, unloaded nets) and CancelledError when
/// `options.base.cancel` fires between iterations; per-net DP failures
/// are contained into NetClosure::error like any batch failure.
ClosureResult CloseTiming(const Design& design, const Technology& tech,
                          const ClosureOptions& options);

/// Deterministic human-readable report: iteration table, per-net and
/// per-endpoint slack tables.  Byte-identical at any `jobs` (no timing,
/// no cache bytes, no thread counts).
void WriteClosureReport(std::ostream& os, const ClosureResult& result);

/// The `msn-sta-stats-v1` JSON document (docs/OBSERVABILITY.md):
/// iteration array, totals, cache counters, final slack histogram, and
/// the embedded msn-run-stats-v1 registry.
void WriteClosureStatsJson(std::ostream& os, const ClosureResult& result,
                           const std::string& design_label);

}  // namespace msn::sta

#endif  // MSN_STA_CLOSURE_H

// Deterministic multi-net batch optimization (docs/RUNTIME.md).
//
// OptimizeBatch fans a vector of per-net jobs across a fixed ThreadPool,
// running RunMsri once per net with per-net error containment: a net
// whose parse or DP throws produces a structured error entry instead of
// sinking the batch.  Results are collected into index-addressed slots
// and reported in input order, so the batch report rendered by
// WriteBatchReport is byte-identical at any `jobs` count — the
// determinism contract tests/runtime_test.cc byte-compares.
//
// Observability: each net gets its own thread-confined obs::StatsSink;
// after the join barrier the per-net registries are merged into one
// aggregate RunStats carrying batch-level histograms (per-net wall time,
// queue wait, pool occupancy).  WriteBatchStatsJson renders the whole
// thing as an `msn-batch-stats-v1` document (schema in
// docs/OBSERVABILITY.md, validated by tools/check_stats_schema.py).
#ifndef MSN_RUNTIME_BATCH_H
#define MSN_RUNTIME_BATCH_H

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/msri.h"
#include "obs/stats.h"
#include "rctree/rctree.h"
#include "tech/tech.h"

namespace msn::runtime {

/// One net to optimize.  `options.stats`, `options.trace` and
/// `options.set_observer` must be unset — the batch engine owns per-net
/// sinks, and nets run on pool threads (checked).
struct BatchJob {
  std::string name;  ///< Report key (file path or a synthetic label).
  RcTree tree;
  /// Per-net DP options.  `options.cancel` is honored: a token that
  /// fires mid-run abandons that net with a contained "cancelled" error
  /// entry (like any other per-net failure) while the rest of the batch
  /// proceeds — one shared token cancels the whole batch cooperatively.
  /// stats/trace/set_observer must stay null (checked, see above).
  MsriOptions options;
};

struct BatchOptions {
  /// Worker threads (>= 1).  Any value yields bit-identical reports.
  std::size_t jobs = 1;
  /// Collect per-net run stats and the merged aggregate.  Off keeps the
  /// obs zero-cost-when-null contract: no sinks are created at all.
  bool collect_stats = false;
};

/// Outcome of one net, in input order.  Exactly one of `result` /
/// `error` is meaningful, discriminated by `ok`.
struct NetOutcome {
  std::string name;
  bool ok = false;
  std::string error;  ///< One-line parse/DP failure message when !ok.
  MsriResult result;
  /// Per-net run stats (empty unless BatchOptions::collect_stats).
  obs::RunStats stats;
  // Scheduling telemetry (nondeterministic; never in the batch report).
  double wall_ms = 0.0;        ///< RunMsri wall time inside the task.
  double queue_wait_ms = 0.0;  ///< Submit-to-start latency.
  std::size_t pool_occupancy = 0;  ///< Concurrently running nets at start.
};

/// A contained per-net failure, also summarized out of NetOutcome for
/// callers that only care about what went wrong.
struct BatchError {
  std::size_t index = 0;
  std::string name;
  std::string message;
};

struct BatchResult {
  std::vector<NetOutcome> nets;     ///< Input order, one per job.
  std::vector<BatchError> errors;   ///< Failures, in input order.
  std::size_t jobs = 1;             ///< Thread count actually used.
  /// Merged per-net registries plus batch.* instruments (only populated
  /// when BatchOptions::collect_stats).
  obs::RunStats aggregate;

  bool AllOk() const { return errors.empty(); }
};

/// Optimizes every job on a pool of `options.jobs` threads.  Throws only
/// on precondition violations (a job carrying stats/trace/set_observer
/// hooks); per-net failures are contained into NetOutcome/BatchError
/// entries.
BatchResult OptimizeBatch(std::vector<BatchJob> jobs,
                          const Technology& tech,
                          const BatchOptions& options);

/// File-based variant: each path is parsed (src/io `.msn` reader) and
/// optimized inside its task, so a malformed file is contained exactly
/// like a DP failure.  `base_options` applies to every net.
BatchResult OptimizeBatchFiles(const std::vector<std::string>& paths,
                               const Technology& tech,
                               const MsriOptions& base_options,
                               const BatchOptions& options);

/// Expands a batch input path: a directory yields every `*.msn` inside
/// it (non-recursive), sorted by name; a manifest file yields the paths
/// it lists one per line ('#' comments and blank lines skipped),
/// resolved relative to the manifest's directory.  Throws CheckError
/// when the path does not exist or yields no nets.
std::vector<std::string> CollectNetPaths(const std::string& dir_or_manifest);

/// Deterministic per-net report (input order; no timing, no thread
/// count): byte-identical across `jobs` values.  `spec_ps` selects each
/// net's reported pick the way `msn_cli optimize --spec` does.
void WriteBatchReport(std::ostream& os, const BatchResult& batch,
                      std::optional<double> spec_ps = std::nullopt);

/// The `msn-batch-stats-v1` JSON document: batch values, the aggregate
/// registry, and one entry per net (docs/OBSERVABILITY.md).
void WriteBatchStatsJson(std::ostream& os, const BatchResult& batch);

}  // namespace msn::runtime

#endif  // MSN_RUNTIME_BATCH_H
